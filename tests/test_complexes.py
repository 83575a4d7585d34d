import random
import time
from itertools import combinations

import pytest

from chaingraphs import (
    BoundExceededError,
    Complex,
    GraphError,
    NotChainGraphError,
    arrow,
    build_graph,
    enumerate_complexes,
    equivalence_class,
    is_chain_graph,
    is_larger,
    largest_cg_oracle,
    line,
    markov_equivalent,
    moral_graph,
    parse_graph,
    pattern_of,
    recover_largest,
    serialize_graph,
    underlying,
)


def test_complex_canonical_orientation():
    c1 = Complex(("a", "w", "b"))
    c2 = Complex(("b", "w", "a"))
    assert c1 == c2
    assert c1.parents == ("a", "b")
    assert c1.region == ("w",)
    assert c1.degree == 1


def test_enumerate_complexes_ga(ga):
    assert enumerate_complexes(ga) == [Complex(("a", "d", "c"))]


def test_enumerate_complexes_ge(ge):
    assert enumerate_complexes(ge) == [Complex(("a", "c", "d", "e", "b")),
                                       Complex(("b", "g", "d"))]


def test_ug_has_no_complexes():
    ug = build_graph("abc", [line("a", "b"), line("b", "c")])
    assert enumerate_complexes(ug) == []


def test_extra_edge_kills_complex():
    g = build_graph("abw", [arrow("a", "w"), arrow("b", "w"), line("a", "b")])
    assert enumerate_complexes(g) == []


def test_pattern_of_ga(ga):
    pat = pattern_of(ga)
    assert pat.is_line("a", "b")
    assert pat.is_line("b", "c")
    assert pat.has_arrow("a", "d")
    assert pat.has_arrow("c", "d")


def test_pattern_of_ug_is_identity():
    ug = build_graph("abc", [line("a", "b"), line("b", "c")])
    assert pattern_of(ug) == ug


def test_pattern_of_ge(ge):
    pat = pattern_of(ge)
    assert sorted(pat.arrows()) == [("a", "c"), ("b", "e"), ("b", "g"), ("d", "g")]
    assert sorted(pat.lines()) == [("c", "d"), ("d", "e"), ("d", "f")]


def test_pattern_may_fail_chain_graph():
    # b -> c is not in any complex, so the pattern turns it into a line and
    # the kept complex arrow b -> d closes a directed pseudocycle b, d, c, b
    g = build_graph("abcd", [
        line("c", "d"), arrow("a", "d"), arrow("b", "c"), arrow("b", "d"),
    ])
    assert is_chain_graph(g)
    pat = pattern_of(g)
    assert not is_chain_graph(pat)


def test_pattern_requires_cg():
    tri = build_graph("abc", [arrow("a", "b"), arrow("b", "c"), arrow("c", "a")])
    with pytest.raises(NotChainGraphError):
        pattern_of(tri)


def test_markov_equivalent(ga):
    h = build_graph("abcd", [line("a", "b"), line("b", "c"),
                             arrow("a", "d"), arrow("c", "d")])
    assert markov_equivalent(ga, h)
    assert markov_equivalent(ga, ga)
    left = build_graph("abc", [arrow("a", "b"), arrow("c", "b")])
    right = build_graph("abc", [line("a", "b"), line("b", "c")])
    assert not markov_equivalent(left, right)


def test_markov_equivalent_errors(ga):
    other = build_graph("abc")
    with pytest.raises(GraphError):
        markov_equivalent(ga, other)


def test_is_larger(ga):
    pat = pattern_of(ga)
    assert is_larger(ga, pat)
    assert not is_larger(pat, ga)
    assert is_larger(ga, ga)
    a = build_graph("ab", [arrow("a", "b")])
    b = build_graph("ab", [arrow("b", "a")])
    assert not is_larger(a, b) and not is_larger(b, a)


def test_is_larger_skeleton_mismatch(ga):
    with pytest.raises(GraphError):
        is_larger(ga, underlying(build_graph("abcd", [line("a", "b")])))


def test_equivalence_class_ug():
    ug = build_graph("ab", [line("a", "b")])
    cls = equivalence_class(ug)
    assert len(cls) == 3
    assert ug in cls


def test_equivalence_class_rigid():
    g = build_graph("abc", [arrow("a", "b"), arrow("c", "b")])
    assert equivalence_class(g) == [g]


def test_equivalence_class_ga(ga):
    cls = equivalence_class(ga)
    assert ga in cls
    # skeleton has two non-complex edges; every orientation except the one
    # creating a new complex a -> b <- c survives: 9 - 1 = 8 members
    assert len(cls) == 8
    for member in cls:
        assert markov_equivalent(ga, member)


def test_equivalence_class_bound(ga):
    with pytest.raises(BoundExceededError):
        equivalence_class(ga, max_edges=2)


def test_largest_cg_oracle(ga):
    largest = largest_cg_oracle(ga)
    assert largest == pattern_of(ga)
    ug = build_graph("ab", [line("a", "b")])
    assert largest_cg_oracle(ug) == ug
    rigid = build_graph("abc", [arrow("a", "b"), arrow("c", "b")])
    assert largest_cg_oracle(rigid) == rigid


def test_largest_cg_extremality(ga, gc):
    for g in (ga, gc):
        largest = largest_cg_oracle(g)
        cls = equivalence_class(g)
        assert largest in cls
        for member in cls:
            assert is_larger(member, largest)


def test_pattern_arrows_in_every_member(cgs4):
    for g in cgs4[:300]:
        pat_arrows = set(pattern_of(g).arrows())
        for member in equivalence_class(g):
            assert pat_arrows <= set(member.arrows())


# ---------------------------------------------------------------------------
# the pattern by reachability against the pattern by listed complexes

def _literal_pattern(g):
    """The pattern by its definition: the skeleton, with the two end arrows
    of every listed complex kept."""
    kept = set()
    for cpx in enumerate_complexes(g):
        p = cpx.path
        kept |= {(p[0], p[1]), (p[-1], p[-2])}
    specs = [arrow(t, h) for t, h in g.arrows() if (t, h) in kept]
    specs += [line(u, v) for u, v in g.edges if (u, v) not in kept and (v, u) not in kept]
    return build_graph(g.nodes, specs)


def test_pattern_of_matches_the_listed_complexes_up_to_five_nodes(cgs4, reps5):
    for g in cgs4 + reps5:
        assert pattern_of(g) == _literal_pattern(g), g


def test_pattern_of_matches_the_listed_complexes_on_block_draws(block_chain_graph):
    rng = random.Random(20261020)
    for k in range(600):
        n = rng.randint(6, 30)
        density = (0.3, 0.5, 0.25) if k % 2 else (0.3, 0.3, 0.1)  # dense, sparse
        g = block_chain_graph(rng, n, *density)
        assert pattern_of(g) == _literal_pattern(g), g


def _diamond_ladder(k):
    """p -> a00 and q -> a<k>, and each a<i> joined to a<i+1> through two
    separate middle nodes: a<i> - b<i> - a<i+1> and a<i> - c<i> - a<i+1>.
    The line component has 2^k chordless paths from a00 to a<k>."""
    a = [f"a{i:02d}" for i in range(k + 1)]
    specs = [arrow("p", a[0]), arrow("q", a[k])]
    for i in range(k):
        for mid in (f"b{i:02d}", f"c{i:02d}"):
            specs += [line(a[i], mid), line(mid, a[i + 1])]
    return build_graph({u for spec in specs for u in spec[:2]}, specs)


def test_diamond_ladder_is_polynomial():
    g = _diamond_ladder(20)
    assert len(g) == 63
    text = serialize_graph(g)
    start = time.perf_counter()
    pat = pattern_of(g)
    moral = moral_graph(g)
    same = markov_equivalent(parse_graph(text), parse_graph(text))
    largest = recover_largest(pat)
    elapsed = time.perf_counter() - start
    assert sorted(pat.arrows()) == [("p", "a00"), ("q", "a20")]
    assert set(moral.lines()) == set(g.edges) | {("p", "q")}
    assert same
    assert largest == g
    # listing the complexes would take tens of seconds here
    assert elapsed < 5, elapsed


def test_markov_equivalent_matches_the_listed_complexes(cgs4):
    groups = {}
    for g in cgs4:
        groups.setdefault(frozenset(g.edges), []).append(g)
    pairs = 0
    for members in groups.values():
        listed = [enumerate_complexes(g) for g in members]
        for i, j in combinations(range(len(members)), 2):
            assert markov_equivalent(members[i], members[j]) == (listed[i] == listed[j])
            pairs += 1
    assert len(groups) == 2 ** 6 and pairs > 10000
