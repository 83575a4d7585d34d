"""Hybrid graphs: node/edge representation and the structural operations.

A hybrid graph has a finite node set and at most one edge per node pair,
each edge being either a line (undirected) or an arrow (directed).  Graphs
are immutable; every transformation returns a new graph.  Node sets are
exchanged with callers as label collections, while the heavy operations run
on integer bitmasks internally.
"""

from __future__ import annotations

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


class HybridGraph:
    """Immutable hybrid graph over string-labelled nodes.

    ``edges`` maps each sorted node pair to its :class:`EdgeKind`, so two
    graphs have the same underlying graph exactly when their edge key sets
    coincide.
    """

    __slots__ = (
        "_nodes", "_index", "_edges",
        "_sib", "_par", "_chi",
        "_cache",
    )

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
        self._index = {label: i for i, label in enumerate(self._nodes)}
        normalized: dict[tuple[str, str], EdgeKind] = {}
        for (u, v), kind in edges.items():
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            if u not in self._index or v not in self._index:
                raise GraphError(f"edge endpoint not a declared node: {(u, v)!r}")
            if u > v:
                u, v = v, u
                kind = _flip(kind)
            if (u, v) in normalized:
                raise GraphError(f"duplicate edge {(u, v)!r}")
            normalized[(u, v)] = kind
        self._edges = dict(sorted(normalized.items()))

        n = len(self._nodes)
        sib = [0] * n
        par = [0] * n
        chi = [0] * n
        for (u, v), kind in self._edges.items():
            i, j = self._index[u], self._index[v]
            if kind is EdgeKind.LINE:
                sib[i] |= 1 << j
                sib[j] |= 1 << i
            elif kind is EdgeKind.ARROW_FORWARD:
                chi[i] |= 1 << j
                par[j] |= 1 << i
            else:
                chi[j] |= 1 << i
                par[i] |= 1 << j
        self._sib = sib
        self._par = par
        self._chi = chi
        self._cache: dict = {}

    # -- basic accessors -------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def edges(self) -> dict[tuple[str, str], EdgeKind]:
        return dict(self._edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HybridGraph):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._nodes, tuple(self._edges.items())))

    def __repr__(self) -> str:
        return f"HybridGraph(nodes={self._nodes!r}, edges={self._edges!r})"

    def has_node(self, u: str) -> bool:
        return u in self._index

    def has_edge(self, u: str, v: str) -> bool:
        return _key(u, v) in self._edges

    def edge_kind(self, u: str, v: str) -> EdgeKind | None:
        """Kind of the {u, v} edge relative to the sorted pair, or None."""
        return self._edges.get(_key(u, v))

    def is_line(self, u: str, v: str) -> bool:
        return self.edge_kind(u, v) is EdgeKind.LINE

    def has_arrow(self, u: str, v: str) -> bool:
        """True iff the arrow u -> v is present."""
        kind = self._edges.get(_key(u, v))
        if kind is None or kind is EdgeKind.LINE:
            return False
        return (kind is EdgeKind.ARROW_FORWARD) == (u < v)

    def arrows(self) -> Iterator[tuple[str, str]]:
        """All arrows as (tail, head) pairs, in canonical edge order."""
        for (u, v), kind in self._edges.items():
            if kind is EdgeKind.ARROW_FORWARD:
                yield (u, v)
            elif kind is EdgeKind.ARROW_BACKWARD:
                yield (v, u)

    def lines(self) -> Iterator[tuple[str, str]]:
        for (u, v), kind in self._edges.items():
            if kind is EdgeKind.LINE:
                yield (u, v)

    # -- mask plumbing ---------------------------------------------------

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
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

    def _reach_masks(self, step: Sequence[int]) -> list[int]:
        """Per-node reachability closure of a one-step mask relation."""
        return [_reach(step, 1 << i) for i in range(len(self._nodes))]

    @property
    def anc_masks(self) -> list[int]:
        """anc_masks[i]: nodes with a descending path to node i (including i)."""
        try:
            return self._cache["anc"]
        except KeyError:
            step = [self._par[i] | self._sib[i] for i in range(len(self._nodes))]
            self._cache["anc"] = self._reach_masks(step)
            return self._cache["anc"]

    @property
    def desc_masks(self) -> list[int]:
        """desc_masks[i]: nodes reachable from i by a descending path."""
        try:
            return self._cache["desc"]
        except KeyError:
            step = [self._chi[i] | self._sib[i] for i in range(len(self._nodes))]
            self._cache["desc"] = self._reach_masks(step)
            return self._cache["desc"]


def _key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


def _flip(kind: EdgeKind) -> EdgeKind:
    if kind is EdgeKind.ARROW_FORWARD:
        return EdgeKind.ARROW_BACKWARD
    if kind is EdgeKind.ARROW_BACKWARD:
        return EdgeKind.ARROW_FORWARD
    return EdgeKind.LINE


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(step: Sequence[int], seed: int, avoid: int = 0) -> int:
    """Nodes reachable from ``seed`` (included) by ``step`` moves that
    never enter ``avoid``: a breadth-first search on bitmasks."""
    reach = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= step[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~(reach | avoid)
        reach |= frontier
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
        if u == v:
            raise GraphError(f"self-loop at {u!r}")
        key = _key(u, v)
        if key in edges:
            raise GraphError(f"duplicate edge {key!r}")
        edges[key] = kind if u < v else _flip(kind)
    return HybridGraph(nodes, edges)


def underlying(g: HybridGraph) -> HybridGraph:
    """The underlying graph: every edge turned into a line."""
    return HybridGraph(g.nodes, {pair: EdgeKind.LINE for pair in g.edges})


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


def components(g: HybridGraph) -> list[frozenset[str]]:
    """Connectivity components of the line-only subgraph.

    Ordered canonically by each component's smallest member label.
    """
    try:
        return g._cache["components"]
    except KeyError:
        pass
    n = len(g)
    seen = 0
    comps = []
    for i in range(n):
        if seen >> i & 1:
            continue
        comp = _reach(g.sib_masks, 1 << i)
        seen |= comp
        comps.append(g.labels_of(comp))
    comps.sort(key=min)
    g._cache["components"] = comps
    return comps


def _component_ids(g: HybridGraph) -> list[int]:
    """component index per node position, components in canonical order."""
    comps = components(g)
    ids = [0] * len(g)
    for c, comp in enumerate(comps):
        for label in comp:
            ids[g.index_of(label)] = c
    return ids


def _condensation(g: HybridGraph) -> tuple[list[frozenset[str]], list[set[int]], bool]:
    """(components, arrow successors per component, intra-component arrow?)."""
    comps = components(g)
    ids = _component_ids(g)
    succ: list[set[int]] = [set() for _ in comps]
    intra = False
    for tail, head in g.arrows():
        a, b = ids[g.index_of(tail)], ids[g.index_of(head)]
        if a == b:
            intra = True
        else:
            succ[a].add(b)
    return comps, succ, intra


def is_chain_graph(g: HybridGraph) -> bool:
    """True iff ``g`` has no directed pseudocycle.

    Checked as: no arrow joins two nodes of one connectivity component, and
    the component condensation by arrows is acyclic.
    """
    try:
        return g._cache["is_cg"]
    except KeyError:
        pass
    comps, succ, intra = _condensation(g)
    ok = not intra and _topo_order(comps, succ) is not None
    g._cache["is_cg"] = ok
    return ok


def _topo_order(comps: list[frozenset[str]], succ: list[set[int]]) -> list[int] | None:
    """Topological order of component ids, smallest-member-label tie rule."""
    indeg = [0] * len(comps)
    for srcs in succ:
        for b in srcs:
            indeg[b] += 1
    heap = [(min(comps[c]), c) for c in range(len(comps)) if indeg[c] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, c = heapq.heappop(heap)
        order.append(c)
        for b in succ[c]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, (min(comps[b]), b))
    return order if len(order) == len(comps) else None


def _line_path(g: HybridGraph, start: int, goal: int) -> list[int]:
    """Shortest line path between two nodes of one connectivity component."""
    prev = {start: -1}
    queue = [start]
    while queue:
        nxt = []
        for i in queue:
            if i == goal:
                path = []
                while i != -1:
                    path.append(i)
                    i = prev[i]
                return path[::-1]
            for j in _bits(g.sib_masks[i]):
                if j not in prev:
                    prev[j] = i
                    nxt.append(j)
        queue = nxt
    raise AssertionError("nodes are not line-connected")


def find_directed_pseudocycle(g: HybridGraph) -> list[str] | None:
    """A witnessing directed pseudocycle, as a closed node route, or None.

    The route alternates line paths inside components with the arrows that
    close a cycle of the component condensation; the first and last labels
    coincide.
    """
    if is_chain_graph(g):
        return None
    comps, succ, intra = _condensation(g)
    ids = _component_ids(g)
    if intra:
        for tail, head in g.arrows():
            ti, hi = g.index_of(tail), g.index_of(head)
            if ids[ti] == ids[hi]:
                inner = _line_path(g, hi, ti)
                return [tail] + [g.nodes[i] for i in inner]
    # find a directed cycle of components
    color = {}
    stack: list[int] = []

    def dfs(c: int) -> list[int] | None:
        color[c] = 1
        stack.append(c)
        for b in sorted(succ[c]):
            if color.get(b) == 1:
                return stack[stack.index(b):]
            if b not in color:
                cyc = dfs(b)
                if cyc is not None:
                    return cyc
        color[c] = 2
        stack.pop()
        return None

    cycle = None
    for c in range(len(comps)):
        if c not in color:
            cycle = dfs(c)
            if cycle is not None:
                break
    assert cycle is not None
    # pick one arrow per condensation step
    arcs = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        for tail, head in g.arrows():
            if ids[g.index_of(tail)] == a and ids[g.index_of(head)] == b:
                arcs.append((g.index_of(tail), g.index_of(head)))
                break
    route = [g.nodes[arcs[0][0]]]
    for (_, head), (tail2, _) in zip(arcs, arcs[1:] + arcs[:1]):
        route.extend(g.nodes[i] for i in _line_path(g, head, tail2))
    route.append(route[0])
    return route


def component_chain(g: HybridGraph) -> tuple[frozenset[str], ...]:
    """The chain whose blocks are the connectivity components.

    Blocks are ordered by a topological sort of the arrow condensation,
    with ties broken by the smallest member label.
    """
    comps, succ, intra = _condensation(g)
    order = None if intra else _topo_order(comps, succ)
    if order is None:
        raise NotChainGraphError("graph has a directed pseudocycle")
    return tuple(comps[c] for c in order)


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
