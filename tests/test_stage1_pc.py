"""Stage 1 on CG-backed models against the ``dep_all``/``dep_plus`` walk.

``recover_pattern`` reads a ``CGBackedModel`` through a PC skeleton search
started from the moral graph (``recovery._pc_skeleton``) and one query per
complex end on the recorded separator (``recovery._separator_dependent``).
Here the skeleton is compared with ``dep_all`` on every pair, each
recorded separator is checked to separate its pair and to be the one that
search start implies (all other nodes for a pair apart in the moral graph,
moral neighbours otherwise), and at every chordless path that stage 1
examines the one-query answer for both ends is compared with
``dep_plus``.
"""

import random
import time
from statistics import median

import pytest

from chaingraphs import (
    CGBackedModel,
    dep_all,
    dep_plus,
    moral_graph,
    pattern_of,
    recover_end_to_end,
    recover_pattern,
)
from chaingraphs import recovery
from chaingraphs.enumeration import relabel

CRITERIA = ("moral", "c")
SKELETON, PATHS = recovery._pc_skeleton, recovery._chordless_paths


class Differential:
    """Runs ``recover_pattern`` with its skeleton and path search observed."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.ends = {True: 0, False: 0}  # one-query answers seen, by value

    def check(self, g, criterion):
        model = CGBackedModel(g, criterion)
        nodes = model.nodes
        found = []

        def skeleton(*args):
            found.append(SKELETON(*args))
            return found[-1]

        def paths(*args):
            (_, sep), = found
            for p in PATHS(*args):
                a, b = p[0], p[-1]
                for w in (p[1], p[-2]):
                    got = recovery._separator_dependent(model, sep, a, b, w)
                    assert got == dep_plus(model, nodes[a], nodes[b], nodes[w]), (
                        g, criterion, p, w)
                    self.ends[got] += 1
                yield p

        with self.monkeypatch.context() as m:
            m.setattr(recovery, "_pc_skeleton", skeleton)
            m.setattr(recovery, "_chordless_paths", paths)
            assert recover_pattern(model) == pattern_of(g), (g, criterion)
        (adj, sep), = found
        moral, full = moral_graph(g).sib_masks, (1 << len(nodes)) - 1
        for u in range(len(nodes)):
            for v in range(u + 1, len(nodes)):
                adjacent = bool(adj[u] >> v & 1)
                assert adjacent == dep_all(model, nodes[u], nodes[v]), (g, criterion, u, v)
                assert adjacent == ((u, v) not in sep), (g, criterion, u, v)
                # total conditioning separates the pairs apart in the moral
                # graph; the PC search draws the rest from moral neighbours
                if not moral[u] >> v & 1:
                    assert sep[u, v] == full & ~(1 << u | 1 << v), (g, criterion, u, v)
                elif not adjacent:
                    assert not sep[u, v] & ~(moral[u] | moral[v]), (g, criterion, u, v)
        for (u, v), z in sep.items():
            assert model.independent_mask(1 << u, 1 << v, z), (g, criterion, u, v, z)

    def assert_both_answers_seen(self):
        assert all(self.ends.values()), self.ends


@pytest.mark.parametrize("criterion", CRITERIA)
def test_pc_path_matches_walk_on_cgs4(monkeypatch, cgs4, criterion):
    d = Differential(monkeypatch)
    for g in cgs4:
        d.check(g, criterion)
    d.assert_both_answers_seen()


@pytest.mark.parametrize("criterion", CRITERIA)
def test_pc_path_matches_walk_on_reps5(monkeypatch, reps5, criterion):
    d = Differential(monkeypatch)
    for g in reps5:
        d.check(g, criterion)
    d.assert_both_answers_seen()


def test_pc_path_matches_walk_on_block_draws(monkeypatch, block_chain_graph):
    d = Differential(monkeypatch)
    rng = random.Random(2008)
    for n in range(6, 13):
        for k in range(12 if n < 10 else 6):
            # sparse and dense draws, each under both criteria
            density = (0.3, 0.1) if k % 4 < 2 else (0.5, 0.3)
            d.check(block_chain_graph(rng, n, 0.3, *density), CRITERIA[k % 2])
    d.assert_both_answers_seen()


def test_stage1_and_end_to_end_at_scale(block_chain_graph, greedy_merge):
    """Sparse draws at n = 14..30: the pattern, and the largest chain graph
    by merging.  The times and query counts are printed (``pytest -s``)."""
    rng = random.Random(1990)
    for n in range(14, 31):
        times, queries = [], []
        for _ in range(4):
            g = block_chain_graph(rng, n)
            model = CGBackedModel(g)
            start = time.perf_counter()
            pattern = recover_pattern(model)
            times.append(time.perf_counter() - start)
            queries.append(len(model._memo))
            assert pattern == pattern_of(g)
            assert recover_end_to_end(CGBackedModel(g)) == greedy_merge(g)
        print(f"n = {n}: stage 1 median {median(times):.3f} s, max {max(times):.3f} s, "
              f"queries {min(queries)}..{max(queries)}")


@pytest.mark.parametrize("criterion", CRITERIA)
def test_end_to_end_is_relabelling_invariant(block_chain_graph, criterion):
    """Renaming the nodes renames the recovered largest chain graph: the
    search orders follow labels, the answer must not."""
    rng = random.Random(1998)
    for n in range(8, {"moral": 31, "c": 25}[criterion], 2):
        for _ in range(3):
            g = block_chain_graph(rng, n)
            labels = list(g.nodes)
            rng.shuffle(labels)
            mapping = dict(zip(g.nodes, labels))
            got = recover_end_to_end(CGBackedModel(relabel(g, mapping), criterion))
            assert got == relabel(recover_end_to_end(CGBackedModel(g, criterion)), mapping)
