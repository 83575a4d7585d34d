"""Stage-1 chordless-path search against the literal permutation scan.

``reference_recover_pattern`` is the literal stage 1: it tries every
ordered (level + 2)-tuple of nodes and keeps the chordless mixed paths.
It applies each level in sorted edge order, as ``recover_pattern`` does,
so both name the same line when they raise ``PatternConflictError``.
"""

import random
from itertools import combinations, permutations

import pytest

from chaingraphs import (
    CGBackedModel,
    EdgeKind,
    ExplicitModel,
    HybridGraph,
    PatternConflictError,
    Triplet,
    dep_all,
    dep_plus,
    recover_pattern,
)
from chaingraphs.enumeration import random_chain_graph


def reference_recover_pattern(model):
    nodes = sorted(model.nodes)
    n = len(nodes)
    state = {}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if dep_all(model, u, v):
                state[(u, v)] = "line"

    def kind(a, b):
        return state.get((a, b) if a < b else (b, a))

    def is_line(a, b):
        return kind(a, b) == "line"

    def is_arrow(tail, head):
        return kind(tail, head) == (tail, head)

    def apply_level(demands):
        by_edge = {}
        for tail, head in demands:
            key = (tail, head) if tail < head else (head, tail)
            by_edge.setdefault(key, set()).add((tail, head))
        for key in sorted(by_edge):
            dirs = by_edge[key]
            if len(dirs) > 1:
                raise PatternConflictError(f"line {key!r} demanded in both directions")
            (tail, head), = dirs
            current = state[key]
            if current == "line":
                state[key] = (tail, head)
            elif current != (tail, head):
                raise PatternConflictError(
                    f"demanded arrow {tail}->{head} contradicts existing {current!r}")

    for level in range(1, n - 1):
        demands = set()
        for seq in permutations(nodes, level + 2):
            if seq[0] > seq[-1]:
                continue  # the reversed sequence yields the same demands
            if not (is_line(seq[0], seq[1]) or is_arrow(seq[0], seq[1])):
                continue
            if not (is_line(seq[-2], seq[-1]) or is_arrow(seq[-1], seq[-2])):
                continue
            if not all(is_line(seq[i], seq[i + 1]) for i in range(1, level)):
                continue
            if any(kind(seq[i], seq[j]) is not None
                   for i in range(level + 2) for j in range(i + 2, level + 2)):
                continue
            if not dep_plus(model, seq[0], seq[-1], seq[1]):
                continue
            if not dep_plus(model, seq[0], seq[-1], seq[-2]):
                continue
            demands.add((seq[0], seq[1]))
            demands.add((seq[-1], seq[-2]))
        apply_level(demands)

    edges = {}
    for key, value in state.items():
        if value == "line":
            edges[key] = EdgeKind.LINE
        else:
            edges[key] = EdgeKind.ARROW_FORWARD if value[0] == key[0] else EdgeKind.ARROW_BACKWARD
    return HybridGraph(nodes, edges)


def outcome(recover, model):
    try:
        return recover(model)
    except PatternConflictError as exc:
        return f"conflict: {exc}"


def assert_same(model):
    expected = outcome(reference_recover_pattern, model)
    assert outcome(recover_pattern, model) == expected
    return expected


def test_matches_reference_on_5_node_sweep(reps5):
    for g in reps5:
        assert_same(CGBackedModel(g))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_matches_reference_on_random_chain_graphs(n):
    rng = random.Random(2000 + n)
    for _ in range(12 if n < 8 else 4):
        g = random_chain_graph(rng, "abcdefgh"[:n])
        assert not isinstance(assert_same(CGBackedModel(g)), str)


def random_explicit_model(rng, n):
    """A few pairwise independencies for a random share of the node pairs,
    each listed in a random orientation."""
    labels = "abcdef"[:n]
    q = rng.uniform(0.2, 0.7)
    listed = []
    for u, v in combinations(labels, 2):
        if rng.random() < q:
            rest = [x for x in labels if x not in (u, v)]
            for _ in range(rng.randint(1, 3)):
                z = [x for x in rest if rng.random() < 0.4]
                listed.append(Triplet({u}, {v}, z) if rng.random() < 0.5
                              else Triplet({v}, {u}, z))
    return ExplicitModel(labels, listed)


def test_matches_reference_on_random_explicit_models():
    rng = random.Random(77)
    conflicts = 0
    for i in range(1500):
        result = assert_same(random_explicit_model(rng, 4 + i % 3))
        conflicts += isinstance(result, str)
    # both outcomes are exercised
    assert 150 < conflicts < 1350
