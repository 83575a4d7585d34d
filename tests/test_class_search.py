"""Class search against the literal product loop.

``reference_equivalence_class`` is the literal brute force: it builds every
orientation of the pattern lines, in ``product`` order with the first line
most significant, and keeps the chain graphs with the input's complexes.
The pruned search must return the same members in the same order.
"""

import random
from itertools import product

import pytest

from chaingraphs import (
    EdgeKind,
    HybridGraph,
    build_graph,
    component_chain,
    enumerate_complexes,
    equivalence_class,
    is_chain_graph,
    largest_cg_oracle,
    line,
    pattern_of,
)
from chaingraphs.enumeration import random_chain_graph

KINDS = (EdgeKind.LINE, EdgeKind.ARROW_FORWARD, EdgeKind.ARROW_BACKWARD)


def reference_equivalence_class(g):
    pat = pattern_of(g)
    target = enumerate_complexes(g)
    fixed = {pair: kind for pair, kind in pat.edges.items() if kind is not EdgeKind.LINE}
    free = [pair for pair, kind in pat.edges.items() if kind is EdgeKind.LINE]
    members = []
    for assignment in product(KINDS, repeat=len(free)):
        edges = dict(fixed)
        edges.update(zip(free, assignment))
        cand = HybridGraph(g.nodes, edges)
        if is_chain_graph(cand) and enumerate_complexes(cand) == target:
            members.append(cand)
    return members


def pattern_lines(g):
    return sum(kind is EdgeKind.LINE for kind in pattern_of(g).edges.values())


def assert_same(graphs):
    # the reference depends on g only through its pattern and complexes,
    # so one reference run serves every graph of a class
    expected = {}
    for g in graphs:
        pat = pattern_of(g)
        if pat not in expected:
            expected[pat] = reference_equivalence_class(g)
        assert equivalence_class(g) == expected[pat]


def test_matches_reference_on_3_and_4_nodes(cgs3, cgs4):
    assert_same(cgs3 + cgs4)


def test_matches_reference_on_5_node_sweep(reps5):
    small = [g for g in reps5 if pattern_lines(g) <= 5]
    large = [g for g in reps5 if 6 <= pattern_lines(g) <= 8]
    assert_same(small + random.Random(5).sample(large, 12))


@pytest.mark.parametrize("n", [6, 7])
def test_matches_reference_on_random_chain_graphs(n):
    rng = random.Random(5000 + n)
    labels = [f"v{i}" for i in range(n)]
    graphs = []
    while len(graphs) < (12 if n == 6 else 8):
        g = random_chain_graph(rng, labels)
        if len(g.edges) <= 10:
            graphs.append(g)
    assert_same(graphs)


# the ordered Bell (Fubini) numbers: ordered partitions of an n-set
ORDERED_BELL = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541}


@pytest.mark.parametrize("n", sorted(ORDERED_BELL))
def test_complete_graph_class_is_one_member_per_ordered_partition(n):
    # K_n has no complexes, so its class is every chain graph on the
    # complete skeleton: the chain components, in their one possible order,
    # are an ordered partition of the nodes, and each such partition gives
    # one chain graph
    labels = "abcde"[:n]
    kn = build_graph(labels, [line(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]])
    members = equivalence_class(kn)
    assert len(members) == ORDERED_BELL[n]
    assert len(set(members)) == len(members)
    assert all(is_chain_graph(m) for m in members)
    assert len({component_chain(m) for m in members}) == len(members)
    assert largest_cg_oracle(kn) == kn
