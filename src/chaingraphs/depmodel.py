"""Dependency models, the recovery predicates, input lists, and the
semigraphoid/graphoid closure engine.

A dependency model splits every triplet <X, Y | Z> into independent or
dependent.  CG-backed models answer through a separation criterion;
explicit models list their independency part and treat everything else as
dependent (closed world).

``dep_all`` and ``dep_plus`` ask the model the mask-level query
``independent_mask(x, y, z)``: bit i of each int stands for the i-th label
of ``sorted(model.nodes)``.  They walk the conditioning sets by size, then
in ``combinations`` order over ``model.nodes``, and stop at the first
independence.  The default ``independent_mask`` turns the masks back into
a ``Triplet`` and calls ``is_independent``, so a subclass that defines only
``nodes`` and ``is_independent`` sees the same queries, in the same order,
as a loop over triplets would make.  ``CGBackedModel`` answers the masks
directly from one memo, which its ``is_independent`` shares;
``ExplicitModel`` looks them up in its listing.
"""

from __future__ import annotations

import warnings
from collections import deque
from itertools import combinations

from .complexes import BoundExceededError
from .graph import GraphError, HybridGraph, _LABEL_RE, _bits, boundary, is_chain_graph
from .separation import c_active_mask, represented_mask
# unused here; bench/spans.py patches these names and cannot install without them
from .separation import c_represented, moralization_represented  # noqa: F401
from .triplets import InvalidTripletError, Triplet, all_triplets, format_triplet, parse_triplet

__all__ = [
    "DependencyModel",
    "CGBackedModel",
    "ExplicitModel",
    "is_independent",
    "dep_all",
    "dep_plus",
    "cg_fast_dep_all",
    "cg_fast_complex_test",
    "input_list",
    "graphoid_closure",
    "semigraphoid_closure",
    "all_triplets",
    "parse_model",
    "serialize_model",
]


class DependencyModel:
    """Queryable decomposition of T(N) into independent and dependent parts.

    Subclasses define ``nodes`` and ``is_independent``, and may override
    ``independent_mask`` with a faster answer to the same query.
    """

    @property
    def nodes(self) -> tuple[str, ...]:
        raise NotImplementedError

    def is_independent(self, t: Triplet) -> bool:
        raise NotImplementedError

    def independent_mask(self, x: int, y: int, z: int) -> bool:
        """Whether <X, Y | Z> is independent, with bit i of each mask
        standing for ``sorted(self.nodes)[i]``; no validation.  The default
        builds the ``Triplet`` and asks ``is_independent``, caching the label
        set of each mask (``nodes`` is taken not to change).
        """
        sets = vars(self).setdefault("_label_sets", {})  # mask -> its labels
        for m in (x, y, z):
            if m not in sets:
                labels = sorted(self.nodes)
                sets[m] = frozenset(labels[i] for i in _bits(m))
        return self.is_independent(Triplet(sets[x], sets[y], sets[z]))


class CGBackedModel(DependencyModel):
    """The dependency model induced by a chain graph.

    ``criterion`` selects the backend: 'moral' (default) or 'c'; the two
    agree on every triplet.  Answers are memoized per ``(x, y, z)`` node
    mask triple, over the graph's (sorted) node order.
    """

    def __init__(self, graph: HybridGraph, criterion: str = "moral"):
        if not is_chain_graph(graph):
            raise GraphError("CG-backed models require a chain graph")
        if criterion not in ("moral", "c"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.graph = graph
        self.criterion = criterion
        self._memo: dict[tuple[int, int, int], bool] = {}

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.graph.nodes

    def independent_mask(self, x: int, y: int, z: int) -> bool:
        key = (x, y, z)
        answer = self._memo.get(key)
        if answer is None:
            if self.criterion == "moral":
                answer = represented_mask(self.graph, x, y, z)
            else:
                answer = not c_active_mask(self.graph, x, y, z)
            self._memo[key] = answer
        return answer

    def is_independent(self, t: Triplet) -> bool:
        g = self.graph
        t.validate_over(g.nodes)
        return self.independent_mask(g.mask_of(t.X), g.mask_of(t.Y), g.mask_of(t.Z))


class ExplicitModel(DependencyModel):
    """A finite listing of the independency part; unlisted means dependent."""

    def __init__(self, nodes, independencies, warn_non_semigraphoid: bool = False):
        self._nodes = tuple(sorted(set(nodes)))
        if not self._nodes:
            raise ValueError("empty node set")
        indep = frozenset(independencies)
        for t in indep:
            t.validate_over(self._nodes)
        self.independencies = indep
        bit = {lab: 1 << i for i, lab in enumerate(self._nodes)}
        listed = [[sum(bit[lab] for lab in s) for s in (t.X, t.Y, t.Z)] for t in indep]
        self._listed = {(x, y, z) for a, b, z in listed for x, y in ((a, b), (b, a))}
        if warn_non_semigraphoid:
            bad = self.semigraphoid_violations()
            if bad:
                warnings.warn(
                    f"explicit model is not semigraphoid-closed; e.g. missing {bad[0]!r}",
                    stacklevel=2,
                )

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    def is_independent(self, t: Triplet) -> bool:
        """Listed, directly or as its symmetric ``<Y, X | Z>``."""
        t.validate_over(self._nodes)
        return t in self.independencies or t.symmetric() in self.independencies

    def independent_mask(self, x: int, y: int, z: int) -> bool:
        """Listed, directly or by symmetry, as a triple of node masks."""
        return (x, y, z) in self._listed

    def semigraphoid_violations(self) -> list[Triplet]:
        """Triplets derivable by the semigraphoid axioms but not stated,
        directly or by symmetry."""
        closed = semigraphoid_closure(self.independencies, self._nodes,
                                      max_nodes=len(self._nodes))
        return sorted((t for t in closed if not self.is_independent(t)), key=format_triplet)


def is_independent(model: DependencyModel, t: Triplet) -> bool:
    return model.is_independent(t)


# ---------------------------------------------------------------------------
# recovery predicates

def _dep_every(model: DependencyModel, key: tuple) -> bool:
    """D<u, v | Z> for every Z over the other nodes that holds w as well,
    for ``key`` = (kind, u, v) or (kind, u, v, w).

    The sets are tried by size, then in ``combinations`` order over
    ``model.nodes``, one ``independent_mask`` query each.
    """
    memo = vars(model).setdefault("_pred_memo", {})  # subclasses need not set it up
    answer = memo.get(key)
    if answer is None:
        bit = {lab: 1 << i for i, lab in enumerate(sorted(model.nodes))}
        unknown = sorted(set(key[1:]) - bit.keys())
        if unknown:
            raise InvalidTripletError(f"unknown nodes: {unknown}")
        x, y = bit[key[1]], bit[key[2]]
        base = sum(bit[w] for w in key[3:])
        rest = [b for b in map(bit.get, model.nodes) if not b & (x | y | base)]
        query = model.independent_mask
        answer = not any(query(x, y, base | sum(zs))
                         for r in range(len(rest) + 1) for zs in combinations(rest, r))
        memo[key] = answer
    return answer


def dep_all(model: DependencyModel, u: str, v: str) -> bool:
    """Dependent for every conditioning set: D<u, v | Z> for all Z."""
    if u == v:
        raise ValueError("u and v must be distinct")
    return _dep_every(model, ("all", u, v))


def dep_plus(model: DependencyModel, u: str, v: str, w: str) -> bool:
    """Dependent for every conditioning set containing w."""
    if len({u, v, w}) != 3:
        raise ValueError("u, v, w must be distinct")
    return _dep_every(model, ("plus", u, v, w))


def cg_fast_dep_all(g: HybridGraph, u: str, v: str) -> bool:
    """Constant-time equivalent of dep_all for CG-backed models: edge presence."""
    if not is_chain_graph(g):
        raise GraphError("fast predicates require a chain graph")
    if u == v:
        raise ValueError("u and v must be distinct")
    g.index_of(u)
    g.index_of(v)
    return g.has_edge(u, v)


def cg_fast_complex_test(g: HybridGraph, u: str, w: str, v: str) -> bool:
    """Constant-time equivalent of dep_plus under the degree-1 hypothesis:
    {u,w} and {v,w} edges, {u,v} a non-edge; answers whether u -> w <- v
    is a complex.
    """
    if not is_chain_graph(g):
        raise GraphError("fast predicates require a chain graph")
    if len({u, v, w}) != 3:
        raise ValueError("u, w, v must be distinct")
    if not g.has_edge(u, w) or not g.has_edge(v, w) or g.has_edge(u, v):
        raise GraphError("hypothesis violated: need edges {u,w}, {v,w} and non-edge {u,v}")
    return g.has_arrow(u, w) and g.has_arrow(v, w)


# ---------------------------------------------------------------------------
# input lists

def input_list(g: HybridGraph, chain) -> list[Triplet]:
    """The input list of a chain: per node u in block B_k, the triplet
    <u, (B_1 u ... u B_k) minus (bd(u) and u) | bd(u)>, skipping entries
    whose remainder is empty.
    """
    blocks = [frozenset(b) for b in chain]
    if not blocks or any(not b for b in blocks):
        raise GraphError("chain blocks must be nonempty")
    flat = [u for b in blocks for u in b]
    if len(flat) != len(set(flat)) or set(flat) != set(g.nodes):
        raise GraphError("chain blocks must partition the node set")
    block_of = {u: i for i, b in enumerate(blocks) for u in b}
    for (u, v) in g.edges:
        bu, bv = block_of[u], block_of[v]
        if bu == bv:
            if not g.is_line(u, v):
                raise GraphError(f"within-block edge {(u, v)!r} must be a line")
        else:
            tail, head = (u, v) if bu < bv else (v, u)
            if not g.has_arrow(tail, head):
                raise GraphError(f"cross-block edge {(u, v)!r} must point to the later block")
    out = []
    prefix: set[str] = set()
    for block in blocks:
        prefix |= block
        for u in sorted(block):
            bd = boundary(g, u)
            remainder = prefix - bd - {u}
            if remainder:
                out.append(Triplet({u}, remainder, bd))
    return out


# ---------------------------------------------------------------------------
# closure engine

def _submasks(mask: int):
    """Nonempty submasks of ``mask``."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _closure_masks(seeds, n: int, with_intersection: bool) -> set[tuple[int, int, int]]:
    known: set[tuple[int, int, int]] = set()
    by_x: dict[int, set[tuple[int, int]]] = {}
    queue: deque[tuple[int, int, int]] = deque()

    def add(x: int, y: int, z: int) -> None:
        t = (x, y, z)
        if t not in known:
            known.add(t)
            by_x.setdefault(x, set()).add((y, z))
            queue.append(t)

    for x, y, z in seeds:
        add(x, y, z)
    while queue:
        x, y, z = queue.popleft()
        add(y, x, z)  # symmetry
        for yp in _submasks(y):
            if yp != y:
                add(x, yp, z)            # decomposition
                add(x, yp, z | (y ^ yp))  # weak union
        for y2, z2 in list(by_x.get(x, ())):
            # contraction: I(x,y|z) & I(x,y2|z|y) => I(x, y|y2, z)
            if z2 == z | y and not y2 & (x | y | z):
                add(x, y | y2, z)
            if z == z2 | y2 and not y & (x | y2 | z2):
                add(x, y | y2, z2)
            if with_intersection:
                # I(x,y|z0|w) & I(x,w|z0|y) => I(x, y|w, z0)
                if z & y2 == y2:
                    z0 = z & ~y2
                    if z2 == z0 | y and not y2 & (x | y | z0):
                        add(x, y | y2, z0)
                if z2 & y == y:
                    z0 = z2 & ~y
                    if z == z0 | y2 and not y & (x | y2 | z0):
                        add(x, y | y2, z0)
    return known


def graphoid_closure(triplets, nodes, with_intersection: bool = True,
                     max_nodes: int = 6) -> set[Triplet]:
    """Least superset of ``triplets`` closed under symmetry, decomposition,
    weak union, contraction, and (when flagged) intersection.
    """
    labels = tuple(sorted(set(nodes)))
    if len(labels) > max_nodes:
        raise BoundExceededError(f"node-count bound exceeded: {len(labels)} > {max_nodes}")
    index = {lab: i for i, lab in enumerate(labels)}

    def mask(s) -> int:
        m = 0
        for lab in s:
            m |= 1 << index[lab]
        return m

    seeds = []
    for t in triplets:
        t.validate_over(labels)
        seeds.append((mask(t.X), mask(t.Y), mask(t.Z)))
    closed = _closure_masks(seeds, len(labels), with_intersection)

    def unmask(m: int) -> frozenset[str]:
        return frozenset(labels[i] for i in _bits(m))

    return {Triplet(unmask(x), unmask(y), unmask(z)) for x, y, z in closed}


def semigraphoid_closure(triplets, nodes, max_nodes: int = 6) -> set[Triplet]:
    return graphoid_closure(triplets, nodes, with_intersection=False, max_nodes=max_nodes)


# ---------------------------------------------------------------------------
# explicit-model file format

def parse_model(text: str) -> ExplicitModel:
    """Parse an explicit-model file: a `model <labels>` header followed by
    one triplet per line in the ``X | Y | Z`` format.
    """
    header = None
    triplets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if header is None:
            toks = stripped.split()
            if toks[0] != "model" or len(toks) < 2:
                raise InvalidTripletError(f"line {lineno}: expected 'model <labels>' header")
            for tok in toks[1:]:
                if not _LABEL_RE.match(tok):
                    raise InvalidTripletError(f"line {lineno}: invalid label {tok!r}")
            header = toks[1:]
            continue
        try:
            triplets.append(parse_triplet(stripped))
        except InvalidTripletError as exc:
            raise InvalidTripletError(f"line {lineno}: {exc}") from exc
    if header is None:
        raise InvalidTripletError("missing 'model' header line")
    return ExplicitModel(header, triplets)


def serialize_model(model: ExplicitModel) -> str:
    out = ["model " + " ".join(model.nodes)]
    out.extend(sorted(format_triplet(t) for t in model.independencies))
    return "\n".join(out) + "\n"
