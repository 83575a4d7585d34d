"""Complexes, patterns, Markov equivalence, and brute-force class oracles.

A complex is an induced subgraph u -> w1 - ... - wr <- v: two arrows into a
line path, nonadjacent endpoints, and no further edges among its nodes.
Two chain graphs are Markov equivalent iff they share the underlying graph
and the complex set; the pattern keeps exactly the complex arrows directed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .graph import (
    EdgeKind,
    GraphError,
    HybridGraph,
    NotChainGraphError,
    _bits,
    is_chain_graph,
    underlying,
)

__all__ = [
    "Complex",
    "BoundExceededError",
    "enumerate_complexes",
    "pattern_of",
    "markov_equivalent",
    "is_larger",
    "equivalence_class",
    "largest_cg_oracle",
]


class BoundExceededError(ValueError):
    pass


@dataclass(frozen=True)
class Complex:
    """A complex, stored canonically: the smaller-labelled parent first."""

    path: tuple[str, ...]

    def __post_init__(self):
        if len(self.path) < 3:
            raise GraphError("complex path needs at least 3 nodes")
        if self.path[0] > self.path[-1]:
            object.__setattr__(self, "path", tuple(reversed(self.path)))

    @property
    def parents(self) -> tuple[str, str]:
        return (self.path[0], self.path[-1])

    @property
    def region(self) -> tuple[str, ...]:
        return self.path[1:-1]

    @property
    def degree(self) -> int:
        return len(self.path) - 2

    def __repr__(self) -> str:
        inner = " - ".join(self.region)
        return f"Complex({self.path[0]} -> {inner} <- {self.path[-1]})"


def _chordless_paths(sib: list[int], ends: list[int], adj: list[int], mask: int,
                     length: int | None = None) -> Iterator[tuple[int, ...]]:
    """Chordless paths (a, w1, ..., wl, b) of the induced subgraph on ``mask``.

    w1 - ... - wl is a line path (``sib``), a is in ``ends[w1]`` and b in
    ``ends[wl]``, a < b, and no two nonconsecutive nodes are adjacent
    (``adj``); ``length`` fixes l.  Index order follows label order, so
    a < b is label canonicalization.
    """
    for w in _bits(mask):
        for a in _bits(ends[w] & mask):
            # blocked: nodes on the path, or adjacent to one before its last
            stack = [((w,), (1 << a) | adj[a])]
            while stack:
                path, blocked = stack.pop()
                last = path[-1]
                free = mask & ~blocked
                if length is None or len(path) == length:
                    for b in _bits(ends[last] & free & ~((2 << a) - 1)):
                        yield (a, *path, b)
                if length is None or len(path) < length:
                    blocked |= adj[last]
                    for x in _bits(sib[last] & free):
                        stack.append(((*path, x), blocked))


def enumerate_complexes(g: HybridGraph) -> list[Complex]:
    """All complexes of ``g``, canonically oriented, deterministically sorted."""
    try:
        paths = g._cache["complexes"]
    except KeyError:
        adj = [g.adj_mask(i) for i in range(len(g))]
        paths = list(_chordless_paths(g.sib_masks, g.par_masks, adj, (1 << len(g)) - 1))
        g._cache["complexes"] = paths
    out = [Complex(tuple(g.nodes[i] for i in p)) for p in paths]
    out.sort(key=lambda c: (c.parents, c.region))
    return out


def complex_parent_pairs(g: HybridGraph, mask: int | None = None) -> list[tuple[int, int]]:
    """Parent index pairs of every complex of the induced subgraph on ``mask``."""
    if mask is None:
        mask = (1 << len(g)) - 1
    adj = [g.adj_mask(i) for i in range(len(g))]
    return sorted({(p[0], p[-1]) for p in _chordless_paths(g.sib_masks, g.par_masks, adj, mask)})


def pattern_of(g: HybridGraph) -> HybridGraph:
    """Underlying graph with exactly the complex arrows restored.

    The result need not be a chain graph.
    """
    if not is_chain_graph(g):
        raise NotChainGraphError("pattern is defined for chain graphs only")
    edges = {pair: EdgeKind.LINE for pair in g.edges}
    for cpx in enumerate_complexes(g):
        for tail, head in ((cpx.path[0], cpx.path[1]), (cpx.path[-1], cpx.path[-2])):
            key = (tail, head) if tail < head else (head, tail)
            edges[key] = EdgeKind.ARROW_FORWARD if tail < head else EdgeKind.ARROW_BACKWARD
    return HybridGraph(g.nodes, edges)


def markov_equivalent(g: HybridGraph, h: HybridGraph) -> bool:
    """Purely graphical test: same underlying graph and same complexes."""
    if g.nodes != h.nodes:
        raise GraphError("graphs are over different node sets")
    if not is_chain_graph(g) or not is_chain_graph(h):
        raise NotChainGraphError("Markov equivalence is defined for chain graphs")
    return set(g.edges) == set(h.edges) and enumerate_complexes(g) == enumerate_complexes(h)


def is_larger(h: HybridGraph, g: HybridGraph) -> bool:
    """True iff ``g`` is at least as large as ``h`` (written h < g):
    every arrow of ``g`` is an arrow of ``h`` with the same orientation.
    """
    if g.nodes != h.nodes or set(g.edges) != set(h.edges):
        raise GraphError("graphs must share node set and underlying graph")
    arrows_h = set(h.arrows())
    return all(a in arrows_h for a in g.arrows())


def equivalence_class(g: HybridGraph, max_edges: int = 12) -> list[HybridGraph]:
    """Brute-force oracle: all chain graphs Markov equivalent to ``g``.

    Enumerates every orientation of the skeleton with the complex arrows
    pinned to their pattern orientation, keeping chain graphs whose complex
    set matches.  Deterministic order; always contains ``g``.
    """
    if not is_chain_graph(g):
        raise NotChainGraphError("equivalence class is defined for chain graphs")
    if len(g.edges) > max_edges:
        raise BoundExceededError(f"{len(g.edges)} edges exceeds bound {max_edges}")
    pat = pattern_of(g)
    target = enumerate_complexes(g)
    fixed = {pair: kind for pair, kind in pat.edges.items() if kind is not EdgeKind.LINE}
    free = [pair for pair, kind in pat.edges.items() if kind is EdgeKind.LINE]
    kinds = (EdgeKind.LINE, EdgeKind.ARROW_FORWARD, EdgeKind.ARROW_BACKWARD)
    members = []
    for assignment in product(kinds, repeat=len(free)):
        edges = dict(fixed)
        edges.update(zip(free, assignment))
        cand = HybridGraph(g.nodes, edges)
        if is_chain_graph(cand) and enumerate_complexes(cand) == target:
            members.append(cand)
    assert g in members
    return members


def largest_cg_oracle(g: HybridGraph, max_edges: int = 12) -> HybridGraph:
    """Brute-force largest chain graph of the class of ``g``.

    The member whose arrow set is exactly the arrows oriented identically
    in every member; its existence is asserted, not assumed.
    """
    members = equivalence_class(g, max_edges=max_edges)
    common = set(members[0].arrows())
    for member in members[1:]:
        common &= set(member.arrows())
    for member in members:
        if set(member.arrows()) == common:
            return member
    raise AssertionError("no class member carries exactly the common arrows")
