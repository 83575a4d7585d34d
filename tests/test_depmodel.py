import pytest

from chaingraphs import (
    CGBackedModel,
    DependencyModel,
    ExplicitModel,
    GraphError,
    Triplet,
    arrow,
    build_graph,
    component_chain,
    dep_all,
    dep_plus,
    graphoid_closure,
    input_list,
    is_independent,
    line,
    moralization_represented,
    parse_model,
    parse_triplet,
    pattern_of,
    recover_pattern,
    semigraphoid_closure,
    serialize_model,
)
from chaingraphs import depmodel, recovery
from chaingraphs.complexes import BoundExceededError
from chaingraphs.depmodel import MAX_WALK_SETS


def test_cg_backed_model(ga, ge):
    m = CGBackedModel(ge)
    assert not is_independent(m, parse_triplet("a | f | c,e,g"))
    assert is_independent(CGBackedModel(ga), parse_triplet("a | c | b"))


def test_cg_backed_criteria_agree(ga):
    from chaingraphs import all_triplets
    moral = CGBackedModel(ga, criterion="moral")
    csep = CGBackedModel(ga, criterion="c")
    for t in all_triplets(ga.nodes):
        assert moral.is_independent(t) == csep.is_independent(t)


def test_cg_backed_rejects_non_cg():
    tri = build_graph("abc", [arrow("a", "b"), arrow("b", "c"), arrow("c", "a")])
    with pytest.raises(GraphError):
        CGBackedModel(tri)
    with pytest.raises(ValueError):
        CGBackedModel(build_graph("ab"), criterion="bogus")


def test_explicit_model_closed_world():
    m = ExplicitModel("abc", [Triplet("a", "b", "c")])
    assert m.is_independent(Triplet("a", "b", "c"))
    assert not m.is_independent(Triplet("a", "b"))
    empty = ExplicitModel("ab", [])
    assert not empty.is_independent(Triplet("a", "b"))


def test_explicit_model_semigraphoid_warning():
    # I(a, bc | -) without its decompositions is not semigraphoid-closed
    with pytest.warns(UserWarning):
        ExplicitModel("abc", [Triplet("a", "bc", "")], warn_non_semigraphoid=True)


def test_dep_all(ga):
    m = CGBackedModel(ga)
    assert dep_all(m, "a", "d")
    assert not dep_all(m, "a", "c")
    with pytest.raises(ValueError):
        dep_all(m, "a", "a")


def test_dep_plus(ga, gc):
    m = CGBackedModel(ga)
    assert dep_plus(m, "a", "c", "d")
    assert not dep_plus(m, "a", "c", "b")
    mc = CGBackedModel(gc)
    assert dep_plus(mc, "u", "v", "p")
    assert dep_plus(mc, "u", "v", "q")
    with pytest.raises(ValueError):
        dep_plus(m, "a", "a", "b")


class Logged(DependencyModel):
    """k labels; every triplet independent; each query logged."""

    def __init__(self, k):
        self._nodes = tuple(f"x{i:02d}" for i in range(k))
        self.log = []

    @property
    def nodes(self):
        return self._nodes

    def is_independent(self, t):
        self.log.append(t)
        return True


def test_walk_bound_raises_before_any_query():
    assert MAX_WALK_SETS == 1 << 20
    # at the bound (2^20 sets) the walk runs, and stops at its first query
    m = Logged(22)
    assert not dep_all(m, "x00", "x01")
    m = Logged(23)
    assert not dep_plus(m, "x00", "x01", "x02")
    assert len(m.log) == 1
    # one free node more, and nothing is asked
    for call in (lambda m: dep_all(m, "x00", "x01"),
                 lambda m: dep_plus(m, "x00", "x01", "x02"),
                 recover_pattern):
        m = Logged(24)
        with pytest.raises(BoundExceededError, match="exceeds the bound of 1048576"):
            call(m)
        assert m.log == []


def test_walk_bound_spares_cg_backed_recovery():
    g = build_graph([f"x{i:02d}" for i in range(25)], [arrow("x00", "x01")])
    m = CGBackedModel(g)
    with pytest.raises(BoundExceededError):
        dep_all(m, "x00", "x02")
    assert recover_pattern(m) == pattern_of(g)


def test_skeleton_query_bound(monkeypatch, ge):
    # every query of the skeleton search is a new memo entry
    n = len(ge)
    m = CGBackedModel(ge)
    recovery._pc_skeleton(m, n)
    asked = len(m._memo)
    assert asked > n * (n - 1) // 2  # total conditioning, then the PC loop
    monkeypatch.setattr(depmodel, "MAX_WALK_SETS", asked)
    assert recover_pattern(CGBackedModel(ge)) == pattern_of(ge)
    for bound in (asked - 1, 3):
        monkeypatch.setattr(depmodel, "MAX_WALK_SETS", bound)
        m = CGBackedModel(ge)
        with pytest.raises(BoundExceededError,
                           match=f"skeleton search over 7 nodes exceeds the bound of {bound} queries"):
            recover_pattern(m)
        assert len(m._memo) == bound


def test_input_list_ga(ga):
    entries = input_list(ga, component_chain(ga))
    assert Triplet("d", "b", "ac") in entries


def test_input_list_trivia():
    single = build_graph("a")
    assert input_list(single, component_chain(single)) == []
    ug = build_graph("abc", [line("a", "b"), line("b", "c")])
    entries = input_list(ug, (frozenset("abc"),))
    assert set(entries) == {Triplet("a", "c", "b"), Triplet("c", "a", "b")}


def test_input_list_invalid_chain(ga):
    with pytest.raises(GraphError):
        input_list(ga, (frozenset("ab"),))  # not a partition
    with pytest.raises(GraphError):
        # arrow b -> a points backward for this ordering
        input_list(ga, (frozenset("a"), frozenset("b"), frozenset("c"), frozenset("d")))


def test_graphoid_closure_basics():
    assert graphoid_closure([], "abc") == set()
    closed = graphoid_closure([Triplet("a", "bc", "")], "abc")
    assert Triplet("a", "b", "") in closed
    assert Triplet("a", "c", "") in closed
    assert Triplet("a", "b", "c") in closed
    assert Triplet("b", "a", "") in closed


def test_closure_monotone_idempotent():
    seed = {Triplet("a", "bc", "")}
    closed = graphoid_closure(seed, "abcd")
    assert seed <= closed
    assert graphoid_closure(closed, "abcd") == closed
    bigger = graphoid_closure(seed | {Triplet("b", "d", "")}, "abcd")
    assert closed <= bigger


def test_semigraphoid_vs_graphoid():
    # intersection: I(a,b|c) and I(a,c|b) entail I(a,bc|-) only with the flag
    seeds = [Triplet("a", "b", "c"), Triplet("a", "c", "b")]
    semi = semigraphoid_closure(seeds, "abc")
    full = graphoid_closure(seeds, "abc")
    assert Triplet("a", "bc", "") not in semi
    assert Triplet("a", "bc", "") in full


def test_closure_bound():
    with pytest.raises(BoundExceededError):
        graphoid_closure([], "abcdefg")


def test_closure_matches_criterion_small(cgs3):
    for g in cgs3:
        entries = input_list(g, component_chain(g))
        closed = graphoid_closure(entries, g.nodes)
        from chaingraphs import all_triplets
        represented = {t for t in all_triplets(g.nodes)
                       if moralization_represented(g, t)}
        assert closed == represented


def test_model_file_round_trip():
    m = ExplicitModel("abc", [Triplet("a", "b", "c"), Triplet("b", "a", "c")])
    text = serialize_model(m)
    m2 = parse_model(text)
    assert m2.nodes == m.nodes
    assert m2.independencies == m.independencies


def test_parse_model_errors():
    from chaingraphs import InvalidTripletError
    with pytest.raises(InvalidTripletError):
        parse_model("a | b | c\n")  # missing header
    with pytest.raises(InvalidTripletError, match="line 2: "):
        parse_model("model a b\nnot a triplet\n")
    # labels are checked against the header on the triplet's own line
    with pytest.raises(InvalidTripletError, match=r"^line 4: unknown nodes: \['c'\]$"):
        parse_model("model a b\na | b |\n\na | c |  # c is not declared\nb | a |\n")
    with pytest.raises(InvalidTripletError, match="^line 2: repeated label 'a'$"):
        parse_model("# header next\nmodel a b a\n")
    with pytest.raises(InvalidTripletError, match="^line 1: invalid label 'a,b'$"):
        parse_model("model a,b\n")


def test_explicit_model_symmetric():
    # listing <b, a | c> states <a, b | c> too, so both listings drop a - b
    for listed in ("a | b | c", "b | a | c"):
        m = ExplicitModel("abc", [parse_triplet(listed)])
        assert m.is_independent(Triplet("a", "b", "c"))
        assert m.is_independent(Triplet("b", "a", "c"))
        assert not recover_pattern(m).has_edge("a", "b")
        assert m.semigraphoid_violations() == []
        assert serialize_model(m) == f"model a b c\n{listed}\n"


def test_user_subclass_predicates(ga):
    class Oracle(DependencyModel):
        """Defines only what the base class asks for."""

        nodes = ga.nodes

        def is_independent(self, t):
            return moralization_represented(ga, t)

    m = Oracle()
    assert dep_all(m, "a", "d") and not dep_all(m, "a", "c")
    assert dep_plus(m, "a", "c", "d") and not dep_plus(m, "a", "c", "b")
    assert recover_pattern(m) == pattern_of(ga)
