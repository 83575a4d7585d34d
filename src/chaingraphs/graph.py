"""Hybrid graphs: node/edge representation and the structural operations.

A hybrid graph has a finite node set and at most one edge per node pair,
each edge being either a line (undirected) or an arrow (directed).  Graphs
are immutable; every transformation returns a new graph.  Node sets are
exchanged with callers as label collections.  A graph is stored once, as
per-node integer bitmasks of its lines, parents and children, and the heavy
operations run on those; the label-keyed edge map is derived from the masks
and cached.  This module alone knows how an edge's kind is encoded.
"""

from __future__ import annotations

import functools
import heapq
import re
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "EdgeKind",
    "GraphError",
    "NotChainGraphError",
    "HybridGraph",
    "arrow",
    "line",
    "build_graph",
    "underlying",
    "induced_subgraph",
    "components",
    "is_chain_graph",
    "find_directed_pseudocycle",
    "component_chain",
    "parents",
    "children",
    "siblings",
    "boundary",
    "ancestral_set",
    "descendants",
]

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class GraphError(ValueError):
    """Invalid graph construction or graph-operation argument."""


class NotChainGraphError(GraphError):
    """A chain graph was required but the input has a directed pseudocycle."""


class EdgeKind(Enum):
    """Edge type relative to the canonically ordered (sorted) node pair."""

    LINE = "line"
    ARROW_FORWARD = "forward"    # smaller label -> larger label
    ARROW_BACKWARD = "backward"  # larger label -> smaller label


def line(u: str, v: str) -> tuple[str, str, EdgeKind]:
    """Edge spec for the line u - v."""
    return (u, v, EdgeKind.LINE)


def arrow(u: str, v: str) -> tuple[str, str, EdgeKind]:
    """Edge spec for the arrow u -> v."""
    return (u, v, EdgeKind.ARROW_FORWARD)


def _per_graph(build):
    """Memoize ``build(g)`` per graph, in ``g._cache`` under the builder's
    name.  Graphs are immutable, so the value never goes stale."""
    key = build.__name__

    @functools.wraps(build)
    def cached(g):
        cache = g._cache
        if key not in cache:  # a test, not a KeyError: fresh graphs miss often
            cache[key] = build(g)
        return cache[key]

    return cached


class HybridGraph:
    """Immutable hybrid graph over string-labelled nodes.

    Stored once, as line, parent and child bitmasks per sorted label
    (``sib_masks``, ``par_masks``, ``chi_masks``).  ``edges`` maps each
    sorted node pair to its :class:`EdgeKind`; that map is rendered from the
    masks on first use and cached.  Two graphs have the same underlying
    graph exactly when their edge key sets coincide.
    """

    __slots__ = ("_nodes", "_index", "_sib", "_par", "_chi", "_cache")

    def __init__(self, nodes: Iterable[str], edges: Mapping[tuple[str, str], EdgeKind]):
        node_list = list(nodes)
        seen = set()
        for label in node_list:
            if not isinstance(label, str) or not _LABEL_RE.match(label):
                raise GraphError(f"invalid node label: {label!r}")
            if label in seen:
                raise GraphError(f"duplicate node label: {label!r}")
            seen.add(label)
        self._nodes = tuple(sorted(node_list))
        self._index = index = {label: i for i, label in enumerate(self._nodes)}
        n = len(self._nodes)
        sib = [0] * n
        par = [0] * n
        chi = [0] * n
        for (u, v), kind in edges.items():
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            if u not in index or v not in index:
                raise GraphError(f"edge endpoint not a declared node: {(u, v)!r}")
            i, j = index[u], index[v]
            if (sib[i] | par[i] | chi[i]) >> j & 1:
                raise GraphError(f"duplicate edge {_key(u, v)!r}")
            if kind is EdgeKind.LINE:
                sib[i] |= 1 << j
                sib[j] |= 1 << i
            else:
                if kind is not EdgeKind.ARROW_FORWARD:  # relative to (u, v) as written
                    i, j = j, i
                chi[i] |= 1 << j
                par[j] |= 1 << i
        self._sib = sib
        self._par = par
        self._chi = chi
        self._cache: dict = {}

    @classmethod
    def _of_masks(cls, nodes: Sequence[str], sib: Sequence[int], par: Sequence[int],
                  chi: Sequence[int] | None = None):
        """Graph from line and parent masks over labels already sorted and
        valid.  Nothing is checked; all lists are copied.  ``chi`` is trusted
        when given; otherwise the child masks are derived from ``par``.  The
        label index is left unset until :meth:`index_of` first needs it."""
        g = cls.__new__(cls)
        g._nodes = tuple(nodes)
        g._sib = list(sib)
        g._par = list(par)
        if chi is None:
            g._chi = chi = [0] * len(g._par)
            for j, p in enumerate(g._par):
                for i in _bits(p):
                    chi[i] |= 1 << j
        else:
            g._chi = list(chi)
        g._cache = {}
        return g

    # -- basic accessors -------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def edges(self) -> dict[tuple[str, str], EdgeKind]:
        return dict(self._edge_map())

    @_per_graph
    def _edge_map(self) -> dict[tuple[str, str], EdgeKind]:
        """The cached edge map, rendered from the masks in sorted-pair order."""
        nodes, edges = self._nodes, {}
        for i, u in enumerate(nodes):
            sib, chi = self._sib[i], self._chi[i]
            for j in _bits(self.adj_mask(i) & ~((2 << i) - 1)):
                edges[(u, nodes[j])] = (
                    EdgeKind.LINE if sib >> j & 1
                    else EdgeKind.ARROW_FORWARD if chi >> j & 1
                    else EdgeKind.ARROW_BACKWARD)
        return edges

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HybridGraph):
            return NotImplemented
        return (self._nodes == other._nodes and self._sib == other._sib
                and self._par == other._par)

    def __hash__(self) -> int:
        return hash((self._nodes, tuple(self._sib), tuple(self._par)))

    def __repr__(self) -> str:
        return f"HybridGraph(nodes={self._nodes!r}, edges={self._edge_map()!r})"

    def has_edge(self, u: str, v: str) -> bool:
        return _key(u, v) in self._edge_map()

    def edge_kind(self, u: str, v: str) -> EdgeKind | None:
        """Kind of the {u, v} edge relative to the sorted pair, or None."""
        return self._edge_map().get(_key(u, v))

    def is_line(self, u: str, v: str) -> bool:
        return self.edge_kind(u, v) is EdgeKind.LINE

    def has_arrow(self, u: str, v: str) -> bool:
        """True iff the arrow u -> v is present."""
        want = EdgeKind.ARROW_FORWARD if u < v else EdgeKind.ARROW_BACKWARD
        return self.edge_kind(u, v) is want

    def arrows(self) -> Iterator[tuple[str, str]]:
        """All arrows as (tail, head) pairs, in canonical edge order."""
        for (u, v), kind in self._edge_map().items():
            if kind is not EdgeKind.LINE:
                yield (u, v) if kind is EdgeKind.ARROW_FORWARD else (v, u)

    def lines(self) -> Iterator[tuple[str, str]]:
        for (u, v), kind in self._edge_map().items():
            if kind is EdgeKind.LINE:
                yield (u, v)

    # -- mask plumbing ---------------------------------------------------

    def index_of(self, label: str) -> int:
        try:
            index = self._index
        except AttributeError:  # a graph built from masks makes it on first use
            index = self._index = {label: i for i, label in enumerate(self._nodes)}
        try:
            return index[label]
        except KeyError:
            raise GraphError(f"unknown node: {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        m = 0
        for label in labels:
            m |= 1 << self.index_of(label)
        return m

    def labels_of(self, mask: int) -> frozenset[str]:
        return frozenset(self._nodes[i] for i in _bits(mask))

    @property
    def sib_masks(self) -> list[int]:
        return self._sib

    @property
    def par_masks(self) -> list[int]:
        return self._par

    @property
    def chi_masks(self) -> list[int]:
        return self._chi

    def adj_mask(self, i: int) -> int:
        return self._sib[i] | self._par[i] | self._chi[i]

    @property
    @_per_graph
    def anc_masks(self) -> list[int]:
        """anc_masks[i]: nodes with a descending path to node i (including i)."""
        step = [p | s for p, s in zip(self._par, self._sib)]
        return [_reach(step, 1 << i) for i in range(len(step))]

    @property
    @_per_graph
    def desc_masks(self) -> list[int]:
        """desc_masks[i]: nodes reachable from i by a descending path."""
        step = [c | s for c, s in zip(self._chi, self._sib)]
        return [_reach(step, 1 << i) for i in range(len(step))]


def _key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(step: Sequence[int], seed: int, avoid: int = 0, stop: int = 0) -> int:
    """Nodes reachable from ``seed`` (included) by ``step`` moves that
    never enter ``avoid``: a breadth-first search on bitmasks.

    The search returns early, with the nodes reached so far, as soon as a
    node it has just reached lies in ``stop``.  The result is then a subset
    of the full set that meets ``stop``, so ``_reach(...) & stop`` is
    nonzero exactly when it is for the full set: a caller that asks only
    whether the search reaches ``stop`` gets the same answer.  With the
    default ``stop = 0`` the result is always the full set.
    """
    reach = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= step[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~(reach | avoid)
        reach |= frontier
        if frontier & stop:
            break
    return reach


def build_graph(
    nodes: Iterable[str],
    edge_specs: Iterable[tuple[str, str, EdgeKind]] = (),
) -> HybridGraph:
    """Build a validated hybrid graph from node labels and edge specs.

    Edge specs come from :func:`line` and :func:`arrow`; a pair may appear
    at most once (a second spec for the same pair is rejected even if it
    agrees).
    """
    edges: dict[tuple[str, str], EdgeKind] = {}
    for u, v, kind in edge_specs:
        if (u, v) in edges:  # the constructor rejects (v, u) and self-loops
            raise GraphError(f"duplicate edge {_key(u, v)!r}")
        edges[(u, v)] = kind
    return HybridGraph(nodes, edges)


def underlying(g: HybridGraph) -> HybridGraph:
    """The underlying graph: every edge turned into a line."""
    return HybridGraph._of_masks(g.nodes, [g.adj_mask(i) for i in range(len(g))], [0] * len(g))


def induced_subgraph(g: HybridGraph, t: Iterable[str]) -> HybridGraph:
    """Induced subgraph on the nonempty node set ``t``, kinds preserved."""
    t = set(t)
    if not t:
        raise GraphError("induced subgraph needs a nonempty node set")
    for label in t:
        g.index_of(label)
    edges = {
        (u, v): kind
        for (u, v), kind in g.edges.items()
        if u in t and v in t
    }
    return HybridGraph(t, edges)


@_per_graph
def _component_masks(g: HybridGraph) -> tuple[list[int], list[int]]:
    """Per node index: the node's connectivity component, and the parents
    of that component, as masks."""
    sib, par = g.sib_masks, g.par_masks
    comp = [0] * len(g)
    comp_par = [0] * len(g)
    for i in range(len(g)):
        if comp[i]:
            continue
        if not sib[i]:  # a one-node component needs no search
            comp[i], comp_par[i] = 1 << i, par[i]
            continue
        c = _reach(sib, 1 << i)
        p = 0
        for j in _bits(c):
            p |= par[j]
        for j in _bits(c):
            comp[j], comp_par[j] = c, p
    return comp, comp_par


def components(g: HybridGraph) -> list[frozenset[str]]:
    """Connectivity components of the line-only subgraph.

    Ordered canonically by each component's smallest member label.
    """
    comp = _component_masks(g)[0]
    return [g.labels_of(comp[i]) for i in range(len(g)) if comp[i] & -comp[i] == 1 << i]


@_per_graph
def is_chain_graph(g: HybridGraph) -> bool:
    """True iff ``g`` has no directed pseudocycle.

    Checked on masks by peeling off connectivity components whose parents
    are all peeled already; the graph is a chain graph iff every component
    peels.  The peel keeps one entry per component.  Components without
    parents are peeled before the first round, by never entering ``rest``.
    A component holding one of its own parents never peels.
    """
    comp, comp_par = _component_masks(g)
    todo = []  # (component, its parents), for components with parents
    rest = 0   # nodes not yet peeled
    for i, c in enumerate(comp):
        if comp_par[i] and c & -c == 1 << i:
            todo.append((c, comp_par[i]))
            rest |= c
    while todo:
        left = []
        ready = 0
        for c, p in todo:
            if p & rest:
                left.append((c, p))
            else:
                ready |= c
        if not ready:
            return False
        rest ^= ready
        todo = left
    return True


def find_directed_pseudocycle(g: HybridGraph) -> list[str] | None:
    """A witnessing directed pseudocycle, as a closed node route, or None.

    An arrow t -> h closes a directed pseudocycle exactly when t is a
    descendant of h (``desc_masks``).  The route is t, then a shortest
    descending path from h back to t, found by one breadth-first search
    over children and siblings; its nodes are distinct and the first and
    last labels coincide.
    """
    if is_chain_graph(g):
        return None
    desc = g.desc_masks
    t, h = next((t, h) for t in range(len(g)) for h in _bits(g.chi_masks[t])
                if desc[h] >> t & 1)
    step = [g.chi_masks[i] | g.sib_masks[i] for i in range(len(g))]
    layers = [1 << h]
    seen = 1 << h
    while not seen >> t & 1:
        nxt = 0
        for i in _bits(layers[-1]):
            nxt |= step[i]
        layers.append(nxt & ~seen)
        seen |= nxt
    back = [t]  # the path from t back to h, one node per earlier layer
    for layer in reversed(layers[:-1]):
        back.append(next(i for i in _bits(layer) if step[i] >> back[-1] & 1))
    return [g.nodes[i] for i in [t] + back[::-1]]


def component_chain(g: HybridGraph) -> tuple[frozenset[str], ...]:
    """The chain whose blocks are the connectivity components.

    Components are placed by Kahn's peel over the cached component masks:
    a component becomes ready once all its parents are placed, and the
    ready component with the lowest node bit (the smallest member label)
    goes next.
    """
    if not is_chain_graph(g):
        raise NotChainGraphError("graph has a directed pseudocycle")
    comp, comp_par = _component_masks(g)
    # ascending, so already a heap; each component is keyed by its lowest bit
    heap = [i for i in range(len(g)) if comp[i] & -comp[i] == 1 << i and not comp_par[i]]
    placed = 0
    chain = []
    while heap:
        i = heapq.heappop(heap)
        placed |= comp[i]
        chain.append(g.labels_of(comp[i]))
        kids = 0
        for j in _bits(comp[i]):
            kids |= g.chi_masks[j]
        while kids:  # each child component once
            j = (kids & -kids).bit_length() - 1
            kids &= ~comp[j]
            if not comp_par[j] & ~placed:
                heapq.heappush(heap, (comp[j] & -comp[j]).bit_length() - 1)
    return tuple(chain)


def parents(g: HybridGraph, u: str) -> frozenset[str]:
    return g.labels_of(g.par_masks[g.index_of(u)])


def children(g: HybridGraph, u: str) -> frozenset[str]:
    return g.labels_of(g.chi_masks[g.index_of(u)])


def siblings(g: HybridGraph, u: str) -> frozenset[str]:
    return g.labels_of(g.sib_masks[g.index_of(u)])


def boundary(g: HybridGraph, u: str) -> frozenset[str]:
    """Parents and siblings of ``u``."""
    i = g.index_of(u)
    return g.labels_of(g.par_masks[i] | g.sib_masks[i])


def ancestral_set(g: HybridGraph, a: Iterable[str]) -> frozenset[str]:
    """All nodes with a descending path to some node of ``a`` (contains ``a``)."""
    m = 0
    for label in a:
        m |= g.anc_masks[g.index_of(label)]
    return g.labels_of(m)


def descendants(g: HybridGraph, u: str) -> frozenset[str]:
    """All nodes reachable from ``u`` by a descending path (contains ``u``)."""
    return g.labels_of(g.desc_masks[g.index_of(u)])
