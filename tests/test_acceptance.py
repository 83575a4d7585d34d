"""Acceptance suite: nine oracle- and property-based criteria at desk scale.

The 5-node sweeps run over isomorphism-orbit representatives because every
checked property is label-equivariant; each sweep also spot-checks that
equivariance on relabelled samples.  Set CHAINGRAPHS_FULL_SWEEP=1 to run
the literal all-labellings sweeps instead (slower).
"""

import itertools
import os
import random

import pytest

from chaingraphs import (
    CGBackedModel,
    Trail,
    Triplet,
    all_triplets,
    boundary,
    c_represented,
    component_chain,
    dep_all,
    dep_plus,
    enumerate_complexes,
    enumerate_trails,
    equivalence_class,
    graphoid_closure,
    input_list,
    is_larger,
    markov_equivalent,
    moral_graph,
    moral_graph_component_variant,
    moralization_represented,
    pattern_of,
    recover_largest,
    recover_pattern,
    section_blocked,
    sections_of,
    slides_to,
)
from chaingraphs.enumeration import all_chain_graphs, random_chain_graph, random_triplet, relabel
from chaingraphs.separation import c_active_mask, represented_mask

FULL = os.environ.get("CHAINGRAPHS_FULL_SWEEP") == "1"
SEED = 20260823


@pytest.fixture(scope="session")
def sweep5(reps5):
    """The 5-node generation used by the exhaustive criteria."""
    if FULL:
        return list(all_chain_graphs("abcde"))
    return reps5


@pytest.fixture(scope="session")
def small_cgs(cgs3, cgs4):
    return list(all_chain_graphs("ab")) + cgs3 + cgs4


@pytest.fixture(scope="session")
def suite5(small_cgs, sweep5):
    """Criterion-5 suite: every sweep graph with at most 8 underlying edges,
    with its pattern, brute-force class, and brute-force largest member.
    """
    out = []
    for g in itertools.chain(small_cgs, sweep5):
        if len(g.edges) > 8:
            continue
        cls = equivalence_class(g)
        common = set.intersection(*(set(h.arrows()) for h in cls))
        largest = next(h for h in cls if set(h.arrows()) == common)
        out.append((g, pattern_of(g), cls, largest))
    return out


def _mask_triples(n):
    """Every (X, Y, Z) of pairwise disjoint node masks over n nodes with X
    and Y nonempty: the mask form of ``all_triplets``."""
    out = []
    for roles in itertools.product(range(4), repeat=n):
        parts = [0, 0, 0, 0]
        for i, r in enumerate(roles):
            parts[r] |= 1 << i
        if parts[0] and parts[1]:
            out.append(tuple(parts[:3]))
    return out


def test_criterion_1_separation_criteria_equivalent(small_cgs, sweep5):
    mismatches = 0
    triples = {n: _mask_triples(n) for n in range(2, 6)}
    for g in itertools.chain(small_cgs, sweep5):
        for x, y, z in triples[len(g)]:
            # c_active_mask is True when connected, represented_mask when separated
            if c_active_mask(g, x, y, z) == represented_mask(g, x, y, z):
                mismatches += 1
    # equivariance spot-check justifying the orbit-representative sweep
    rng = random.Random(SEED)
    for _ in range(20):
        g = rng.choice(sweep5)
        perm = list(g.nodes)
        rng.shuffle(perm)
        mapping = dict(zip(g.nodes, perm))
        h = relabel(g, mapping)
        for _ in range(5):
            t = random_triplet(rng, g.nodes)
            t2 = Triplet({mapping[x] for x in t.X}, {mapping[y] for y in t.Y},
                         {mapping[z] for z in t.Z})
            assert c_represented(h, t2) == c_represented(g, t)
            assert moralization_represented(h, t2) == moralization_represented(g, t)
    # random 6- and 7-node pairs
    for n in (6, 7):
        labels = "abcdefg"[:n]
        for _ in range(5000):
            g = random_chain_graph(rng, labels)
            t = random_triplet(rng, labels)
            if c_represented(g, t) != moralization_represented(g, t):
                mismatches += 1
    assert mismatches == 0
    print("ACCEPTANCE 1 separation-criterion equivalence: PASS")


def test_criterion_2_reference_example(ge):
    z = frozenset("ceg")
    t = Triplet("a", "f", z)
    assert not moralization_represented(ge, t)
    assert not c_represented(ge, t)
    trails = enumerate_trails(ge, "a", "f")
    paths = [tr for tr in trails if len(set(tr.steps)) == len(tr.steps)]
    assert [tr.steps for tr in paths] == [("a", "c", "d", "f")]
    # every slide to d runs through a complex region inside Z, so the
    # head-to-tail section {c, d} of the path is blocked
    assert all(set(s) & z for s in slides_to(ge, "d"))
    secs = sections_of(paths[0])
    assert section_blocked(ge, paths[0], secs[1], z)
    long = Trail(ge, ("a", "c", "d", "e", "b", "g", "d", "f"))
    lsecs = sections_of(long)
    assert not any(section_blocked(ge, long, s, z) for s in lsecs)
    h2h = [s for s in lsecs if s.kind == "head-to-head"]
    assert [s.nodes for s in h2h] == [("c", "d", "e"), ("g",)]
    from chaingraphs import descendants
    for s in h2h:
        assert any(descendants(ge, n) & z for n in s.nodes)
    print("ACCEPTANCE 2 reference-example reproduction: PASS")


def test_criterion_3_markov_equivalence_vs_models(small_cgs):
    by_skeleton = {}
    signatures = {}
    for idx, g in enumerate(small_cgs):
        key = (g.nodes, frozenset(g.edges))
        by_skeleton.setdefault(key, []).append(idx)
        signatures[idx] = tuple(moralization_represented(g, t)
                                for t in all_triplets(g.nodes))
    mismatches = 0
    for group in by_skeleton.values():
        for i, j in itertools.combinations(group, 2):
            graphical = markov_equivalent(small_cgs[i], small_cgs[j])
            semantic = signatures[i] == signatures[j]
            if graphical != semantic:
                mismatches += 1
    assert mismatches == 0
    print("ACCEPTANCE 3 Markov equivalence matches model equality: PASS")


def test_criterion_4_pattern_recovery(small_cgs, sweep5):
    mismatches = 0
    for g in itertools.chain(small_cgs, sweep5):
        if recover_pattern(CGBackedModel(g)) != pattern_of(g):
            mismatches += 1
    rng = random.Random(SEED)
    for n in (6, 7):
        labels = "abcdefg"[:n]
        for _ in range(250):
            g = random_chain_graph(rng, labels)
            if recover_pattern(CGBackedModel(g)) != pattern_of(g):
                mismatches += 1
    assert mismatches == 0
    print("ACCEPTANCE 4 pattern recovery equals the pattern: PASS")


def test_criterion_5_largest_cg_recovery(suite5):
    mismatches = 0
    for g, pat, cls, oracle in suite5:
        got = recover_largest(pat)
        swapped = recover_largest(pat, order=("doublecycle", "necessity"))
        if got != oracle or swapped != oracle:
            mismatches += 1
    assert mismatches == 0
    print("ACCEPTANCE 5 largest-CG recovery equals the oracle: PASS")


def test_criterion_6_input_list_closure(small_cgs):
    mismatches = 0
    rng = random.Random(SEED)
    pool = list(small_cgs) + [random_chain_graph(rng, "abcde") for _ in range(200)]
    for g in pool:
        closed = graphoid_closure(input_list(g, component_chain(g)), g.nodes)
        represented = {t for t in all_triplets(g.nodes)
                       if moralization_represented(g, t)}
        if closed != represented:
            mismatches += 1
    assert mismatches == 0
    print("ACCEPTANCE 6 input-list graphoid closure equals the model: PASS")


def test_criterion_7_supporting_lemmas(small_cgs, sweep5):
    violations = 0
    for g in itertools.chain(small_cgs, sweep5):
        m = CGBackedModel(g)
        nodes = g.nodes
        complexes = {c.path for c in enumerate_complexes(g)}
        complexes |= {tuple(reversed(p)) for p in complexes}
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                # edge presence iff dependent for every Z
                if dep_all(m, u, v) != g.has_edge(u, v):
                    violations += 1
                if not g.has_edge(u, v):
                    # boundary separation
                    bd = (boundary(g, u) | boundary(g, v)) - {u, v}
                    if not m.is_independent(Triplet({u}, {v}, bd)):
                        violations += 1
                    # degree-1 complex test
                    for w in nodes:
                        if w in (u, v) or not g.has_edge(u, w) or not g.has_edge(v, w):
                            continue
                        expected = (u, w, v) in complexes
                        if dep_plus(m, u, v, w) != expected:
                            violations += 1
        # higher-degree complex test on qualifying chordless mixed paths
        for k in range(4, len(nodes) + 1):
            for seq in itertools.permutations(nodes, k):
                if seq[0] > seq[-1]:
                    continue
                if not all(g.has_edge(seq[i], seq[i + 1]) for i in range(k - 1)):
                    continue
                if any(g.has_edge(seq[i], seq[j])
                       for i in range(k) for j in range(i + 2, k)):
                    continue
                if any(sub in complexes
                       for j in range(k) for i in range(j)
                       if j - i < k - 1
                       for sub in [seq[i:j + 1]]):
                    continue
                expected = seq in complexes
                got = (dep_plus(m, seq[0], seq[-1], seq[1])
                       and dep_plus(m, seq[0], seq[-1], seq[-2]))
                if got != expected:
                    violations += 1
    assert violations == 0
    print("ACCEPTANCE 7 supporting lemma suite: PASS")


def test_criterion_8_moral_graph_variants(complex_join):
    rng = random.Random(SEED)
    mismatches = 0
    for _ in range(10000):
        n = rng.randint(2, 6)
        g = random_chain_graph(rng, "abcdef"[:n])
        if not moral_graph(g) == moral_graph_component_variant(g) == complex_join(g):
            mismatches += 1
    assert mismatches == 0
    print("ACCEPTANCE 8 moral-graph definitional equivalence: PASS")


def test_criterion_9_largest_cg_extremality(suite5):
    violations = 0
    for g, pat, cls, oracle in suite5:
        recovered = recover_largest(pat)
        if recovered not in cls:
            violations += 1
            continue
        max_lines = max(sum(1 for _ in h.lines()) for h in cls)
        if sum(1 for _ in recovered.lines()) != max_lines:
            violations += 1
        if not all(is_larger(h, recovered) for h in cls):
            violations += 1
    assert violations == 0
    print("ACCEPTANCE 9 largest-CG extremality: PASS")
