import random

import pytest

from chaingraphs import (
    AnnotatedPattern,
    CGBackedModel,
    ExplicitModel,
    GraphError,
    InvalidPatternError,
    arrow,
    build_graph,
    doublecycle_step,
    feasible_semislide_exists,
    is_chain_graph,
    is_larger,
    largest_cg_oracle,
    line,
    markov_equivalent,
    necessity_step,
    pattern_of,
    recover_end_to_end,
    recover_largest,
    recover_pattern,
    transitivity_fixpoint,
)
from chaingraphs.enumeration import random_chain_graph


def test_recover_pattern_fixtures(ga, ge, gc):
    for g in (ga, ge, gc):
        assert recover_pattern(CGBackedModel(g)) == pattern_of(g)


def test_recover_pattern_ug():
    ug = build_graph("abc", [line("a", "b"), line("b", "c")])
    assert recover_pattern(CGBackedModel(ug)) == ug


def test_recover_pattern_level2(gc):
    # the degree-2 complex is only found at level l = 2
    pat = recover_pattern(CGBackedModel(gc))
    assert pat.has_arrow("u", "p")
    assert pat.has_arrow("v", "q")
    assert pat.is_line("p", "q")


def test_recover_pattern_depends_only_on_predicates(ga):
    moral = recover_pattern(CGBackedModel(ga, criterion="moral"))
    csep = recover_pattern(CGBackedModel(ga, criterion="c"))
    assert moral == csep


def test_annotated_pattern_validation():
    g = build_graph("ab", [line("a", "b")])
    AnnotatedPattern(g, frozenset({("a", "b")}))
    h = build_graph("ab", [arrow("a", "b")])
    with pytest.raises(GraphError):
        AnnotatedPattern(h, frozenset({("a", "b")}))


def test_feasible_semislide():
    g = build_graph("abc", [arrow("a", "b"), line("b", "c")])
    a = AnnotatedPattern(g)
    assert feasible_semislide_exists(a, "b", "c")
    with_edge = build_graph("abc", [arrow("a", "b"), line("b", "c"), line("a", "c")])
    assert not feasible_semislide_exists(AnnotatedPattern(with_edge), "b", "c")


def test_feasible_semislide_through_ban():
    g = build_graph("abde", [arrow("a", "b"), line("b", "d"), line("d", "e")])
    banned = AnnotatedPattern(g, frozenset({("b", "d")}))
    assert feasible_semislide_exists(banned, "d", "e")
    assert not feasible_semislide_exists(AnnotatedPattern(g), "d", "e")


def test_feasible_semislide_errors():
    g = build_graph("ab", [arrow("a", "b")])
    with pytest.raises(GraphError):
        feasible_semislide_exists(AnnotatedPattern(g), "a", "a")
    with pytest.raises(GraphError):
        feasible_semislide_exists(AnnotatedPattern(g), "b", "a")  # not a line


def test_transitivity_fixpoint_chain():
    g = build_graph("abcd", [arrow("a", "b"), line("b", "c"), line("c", "d")])
    out = transitivity_fixpoint(AnnotatedPattern(g))
    assert ("b", "c") in out.bans  # no b <- c
    assert ("c", "d") in out.bans  # second round, through the first ban
    ug = build_graph("abc", [line("a", "b"), line("b", "c")])
    assert transitivity_fixpoint(AnnotatedPattern(ug)).bans == frozenset()


def test_necessity_step():
    g = build_graph("abc", [arrow("a", "b"), line("b", "c"), line("a", "c")])
    a = AnnotatedPattern(g, frozenset({("b", "c")}))
    directing = necessity_step(a)
    assert directing is not None
    assert (directing.tail, directing.head) == ("a", "c")
    ug = build_graph("abc", [line("a", "b"), line("b", "c"), line("a", "c")])
    assert necessity_step(AnnotatedPattern(ug)) is None
    # without the ban the cycle has two undesignated line steps
    assert necessity_step(AnnotatedPattern(g)) is None


def test_doublecycle_step_none_on_empty():
    ug = build_graph("abc", [line("a", "b"), line("b", "c")])
    assert doublecycle_step(AnnotatedPattern(ug)) is None


def test_doublecycle_needs_anchor_adjacent_to_rk():
    # d -> b with the lines b - a - d: r0 = d, r1 = last = b, rk = a.  The
    # only semislide into b is c -> b, and c is not adjacent to rk = a, so
    # nothing may be directed
    g = build_graph("abcd", [line("a", "b"), line("a", "d"), arrow("c", "b"), arrow("d", "b")])
    assert doublecycle_step(AnnotatedPattern(g, frozenset({("a", "b")}))) is None


def test_recover_largest_fixtures(ga, ge, gc):
    for g in (ga, ge, gc):
        assert recover_largest(pattern_of(g)) == largest_cg_oracle(g)


def test_recover_largest_ug():
    ug = build_graph("abc", [line("a", "b"), line("b", "c")])
    assert recover_largest(ug) == ug


def test_recover_largest_order_swap(ga, ge, gc, cgs4):
    for g in (ga, ge, gc, *cgs4[:120]):
        pat = pattern_of(g)
        default = recover_largest(pat)
        swapped = recover_largest(pat, order=("doublecycle", "necessity"))
        assert default == swapped


def test_recover_largest_beyond_5_nodes():
    # every draw is also compared with the brute-force class oracle, its
    # edge bound raised to the draw's size (these draws have up to 16 edges)
    fired = set()
    for n in range(6, 11):
        rng = random.Random(8000 + n)
        labels = [f"v{i}" for i in range(n)]
        for _ in range(8):
            g = random_chain_graph(rng, labels, p_edge=0.4)
            pat = pattern_of(g)
            want = largest_cg_oracle(g, max_edges=len(g.edges))
            for order in (("necessity", "doublecycle"), ("doublecycle", "necessity")):
                events = []
                h = recover_largest(pat, order=order, trace=events.append)
                fired |= {e[0] for e in events}
                assert is_chain_graph(h)
                assert markov_equivalent(h, g)
                assert is_larger(g, h)
                assert h == want
    assert fired == {"ban", "necessity", "doublecycle"}


def test_recover_largest_trace(gc):
    # u -> p and v -> q each feed a transitivity ban on the line p - q
    events = []
    recover_largest(pattern_of(gc), trace=events.append)
    assert any(e[0] == "ban" for e in events)


def test_recover_largest_invalid_input():
    # a -> b <- c plus line b - d is not a pattern: its largest-CG loop
    # output has complex a -> b <- c with the line kept, but the input
    # directs nothing, so validation compares pattern arrows
    not_a_pattern = build_graph("abc", [arrow("a", "b"), line("b", "c")])
    with pytest.raises(InvalidPatternError):
        recover_largest(not_a_pattern)


def test_recover_largest_rejects_unknown_rule(ga):
    with pytest.raises(ValueError):
        recover_largest(pattern_of(ga), order=("bogus",))


def test_recover_end_to_end(ga, ge, gc):
    for g in (ga, ge, gc):
        assert recover_end_to_end(CGBackedModel(g)) == largest_cg_oracle(g)


def test_recover_end_to_end_explicit_model(ga):
    from chaingraphs import all_triplets
    backed = CGBackedModel(ga)
    listed = [t for t in all_triplets(ga.nodes) if backed.is_independent(t)]
    explicit = ExplicitModel(ga.nodes, listed)
    assert recover_end_to_end(explicit) == largest_cg_oracle(ga)


def test_monotone_run(ga):
    events = []
    recover_largest(pattern_of(ga), trace=events.append)
    n_lines = len(list(pattern_of(ga).lines()))
    assert len(events) <= 3 * n_lines
