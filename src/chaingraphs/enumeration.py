"""Exhaustive and random generation of small graphs and triplets.

The exhaustive sweeps in the test suite run over all hybrid graphs on a
fixed label set.  For label-equivariant properties they keep one graph per
relabelling orbit (``orbit_representatives``), as in orderly generation
(McKay, J. Algorithms 26, 1998): 1,553 of the 142,624 chain graphs at 5 nodes.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterator, Sequence

from .graph import EdgeKind, HybridGraph, is_chain_graph
from .triplets import Triplet

__all__ = [
    "all_hybrid_graphs",
    "all_chain_graphs",
    "orbit_representatives",
    "relabel",
    "random_chain_graph",
    "random_triplet",
]

_KINDS = (None, EdgeKind.LINE, EdgeKind.ARROW_FORWARD, EdgeKind.ARROW_BACKWARD)


def all_hybrid_graphs(labels: Sequence[str]) -> Iterator[HybridGraph]:
    """Every hybrid graph on ``labels``: 4 choices per node pair."""
    labels = sorted(labels)
    pairs = list(combinations(labels, 2))
    for assignment in product(_KINDS, repeat=len(pairs)):
        edges = {p: k for p, k in zip(pairs, assignment) if k is not None}
        yield HybridGraph(labels, edges)


def all_chain_graphs(labels: Sequence[str]) -> Iterator[HybridGraph]:
    for g in all_hybrid_graphs(labels):
        if is_chain_graph(g):
            yield g


def relabel(g: HybridGraph, mapping) -> HybridGraph:
    """``g`` with each node u renamed ``mapping[u]``; arrows keep their heads."""
    return HybridGraph([mapping[u] for u in g.nodes],
                       {(mapping[u], mapping[v]): k for (u, v), k in g.edges.items()})


def orbit_representatives(graphs) -> Iterator[HybridGraph]:
    """The first graph of each relabelling orbit, in input order.

    A new graph marks all its relabellings seen, keyed on their masks.
    ``all_hybrid_graphs`` yields graphs in ascending order of their edge
    kinds, so there the first member is the orbit's lexicographic minimum.
    """
    seen = set()
    for g in graphs:
        key = (tuple(g.sib_masks), tuple(g.par_masks))
        if key in seen:
            continue
        for perm in permutations(g.nodes):
            h = relabel(g, dict(zip(g.nodes, perm)))
            seen.add((tuple(h.sib_masks), tuple(h.par_masks)))
        yield g


def random_chain_graph(rng, labels: Sequence[str], p_edge: float = 0.4) -> HybridGraph:
    """A random chain graph: sample edge kinds, retry until acyclic."""
    labels = sorted(labels)
    pairs = list(combinations(labels, 2))
    while True:
        edges = {}
        for pair in pairs:
            if rng.random() < p_edge:
                edges[pair] = rng.choice(_KINDS[1:])
        g = HybridGraph(labels, edges)
        if is_chain_graph(g):
            return g


def random_triplet(rng, labels: Sequence[str]) -> Triplet:
    """A uniform random triplet: roles X/Y/Z/outside, retried until valid."""
    while True:
        roles = [rng.randrange(4) for _ in labels]
        X = [lab for lab, r in zip(labels, roles) if r == 0]
        Y = [lab for lab, r in zip(labels, roles) if r == 1]
        if X and Y:
            Z = [lab for lab, r in zip(labels, roles) if r == 2]
            return Triplet(X, Y, Z)
