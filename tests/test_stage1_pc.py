"""Stage 1 on CG-backed models against the ``dep_all``/``dep_plus`` walk.

``recover_pattern`` reads a ``CGBackedModel`` through a PC skeleton search
started from the moral graph (``recovery._pc_skeleton``) and one query per
complex end on the recorded separator (``recovery._separator_dependent``).
Here the skeleton is compared with ``dep_all`` on every pair, each
recorded separator is checked to separate its pair and to be the one that
search start implies (all other nodes for a pair apart in the moral graph,
moral neighbours otherwise), and at every chordless path that stage 1
examines the one-query answer for both ends is compared with
``dep_plus``.  The fact the skeleton search prunes with is checked on the
graph itself: for each PC separator S of a, b, every w with a dependent
D<a, b | S + w> lies outside an(a, b, S).
"""

import random
import time
from statistics import median

import pytest

from chaingraphs import (
    CGBackedModel,
    ExplicitModel,
    all_triplets,
    dep_all,
    dep_plus,
    moral_graph,
    parse_graph,
    pattern_of,
    recover_end_to_end,
    recover_largest,
    recover_pattern,
)
from chaingraphs import depmodel, recovery
from chaingraphs.complexes import BoundExceededError
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
        full = (1 << len(nodes)) - 1
        found = []

        def skeleton(*args):
            found.append(SKELETON(*args))
            return found[-1]

        def paths(*args):
            (_, sep), = found
            married = 0  # the nodes of the pairs with a PC separator
            for (u, v), z in sep.items():
                if z != full & ~(1 << u | 1 << v):
                    married |= 1 << u | 1 << v
            for p in PATHS(*args):
                a, b = p[0], p[-1]
                # an end with no PC separator is filtered out before the walk
                assert married >> a & married >> b & 1, (g, criterion, p)
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
        anc = g.anc_masks
        for (u, v), z in sep.items():
            assert model.independent_mask(1 << u, 1 << v, z), (g, criterion, u, v, z)
            if z == full & ~(1 << u | 1 << v):
                continue
            # Fact A: a dependent D<u, v | z + w> puts w outside an(u, v, z)
            xs, anterior = z | 1 << u | 1 << v, 0
            for x in range(len(nodes)):
                if xs >> x & 1:
                    anterior |= anc[x]
            for w in range(len(nodes)):
                if not xs >> w & 1 and not model.independent_mask(1 << u, 1 << v, z | 1 << w):
                    assert not anterior >> w & 1, (g, criterion, u, v, z, w)

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


# Each graph loses a true non-adjacency to one wrong form of the side rule
# in ``_pc_skeleton``: dropping both pools once both "not anterior" facts
# hold keeps v05 - v08 in the first; dropping a side whenever its own fact
# holds, so that the searched side may switch, keeps v03 - v05 in the second.
PINNED = ("""\
nodes v00 v01 v02 v03 v04 v05 v06 v07 v08
v01 -- v05
v03 -- v07
v00 -> v07
v00 -> v08
v02 -> v01
v04 -> v01
v02 -> v08
v04 -> v03
v04 -> v05
v04 -> v07
v06 -> v05
v05 -> v07
v08 -> v07
""", """\
nodes v00 v01 v02 v03 v04 v05 v06 v07 v08 v09 v10 v11
v00 -- v08
v04 -- v11
v00 -> v03
v00 -> v07
v00 -> v09
v00 -> v11
v01 -> v02
v01 -> v05
v08 -> v01
v01 -> v09
v01 -> v11
v03 -> v02
v04 -> v02
v07 -> v02
v11 -> v02
v03 -> v06
v10 -> v03
v08 -> v04
v10 -> v04
v05 -> v06
v07 -> v05
v10 -> v05
v08 -> v06
v08 -> v07
v08 -> v09
v10 -> v11
""")


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("text", PINNED, ids=("both-facts", "side-switch"))
def test_pc_side_rule_on_pinned_graphs(monkeypatch, text, criterion):
    Differential(monkeypatch).check(parse_graph(text), criterion)


def test_stage1_and_end_to_end_at_scale(block_chain_graph, greedy_merge):
    """Sparse draws at n = 14..30, then two draws each at n = 32, 36 and 40
    with about three arrows per node: the pattern, and the largest chain
    graph by merging.  The times and query counts are printed
    (``pytest -s``)."""
    rng = random.Random(1990)
    rows = [(n, 4, ()) for n in range(14, 31)] + [(n, 2, (0.3, 0.3, 0.08)) for n in (32, 36, 40)]
    for n, draws, density in rows:
        times, queries = [], []
        for _ in range(draws):
            g = block_chain_graph(rng, n, *density)
            model = CGBackedModel(g)
            start = time.perf_counter()
            pattern = recover_pattern(model)
            times.append(time.perf_counter() - start)
            queries.append(len(model._memo))
            assert pattern == pattern_of(g)
            assert recover_largest(pattern) == greedy_merge(g)
        print(f"n = {n}, density {density or 'default'}: stage 1 median {median(times):.3f} s, "
              f"max {max(times):.3f} s, queries {min(queries)}..{max(queries)}")


def test_married_filter_spares_other_models(monkeypatch, ga):
    """ga's one married pair is a, c: a CGBackedModel walks from and to
    those two only, and an explicit listing of the same model from every
    end the working graph has (its lines, at level 1)."""
    backed = CGBackedModel(ga)
    explicit = ExplicitModel(ga.nodes, [t for t in all_triplets(ga.nodes)
                                        if backed.is_independent(t)])
    seen = []

    def paths(sib, ends, *rest):
        seen.append((list(sib), list(ends)))
        return PATHS(sib, ends, *rest)

    monkeypatch.setattr(recovery, "_chordless_paths", paths)
    for model, married in ((explicit, 0b1111), (backed, 0b0101)):
        seen.clear()
        assert recover_pattern(model) == pattern_of(ga)
        sib, ends = seen[0]
        assert ends == [s & married for s in sib], model
        for sib, ends in seen:  # later levels add the parents as ends
            assert all(e & s & married == s & married for s, e in zip(sib, ends)), model


def test_complex_end_search_budget(monkeypatch, diamond_ladder):
    # the k = 8 ladder's complex-end search expands 23,382 partial paths
    model = CGBackedModel(diamond_ladder(8))
    pattern = recover_pattern(model)
    monkeypatch.setattr(depmodel, "MAX_WALK_SETS", 23382)
    assert recover_pattern(model) == pattern
    monkeypatch.setattr(depmodel, "MAX_WALK_SETS", 23381)
    with pytest.raises(BoundExceededError, match="complex-end search over 27 nodes "
                                                 "exceeds the bound of 23381 path expansions"):
        recover_pattern(model)


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
