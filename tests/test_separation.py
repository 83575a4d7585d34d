import random
from functools import partial
from itertools import combinations

import pytest

from chaingraphs import (
    CGBackedModel,
    EdgeKind,
    GraphError,
    HybridGraph,
    InvalidTripletError,
    Section,
    Trail,
    Triplet,
    all_triplets,
    ancestral_set,
    arrow,
    build_graph,
    c_represented,
    enumerate_trails,
    induced_subgraph,
    line,
    moral_graph,
    moral_graph_component_variant,
    moralization_represented,
    parse_triplet,
    section_blocked,
    sections_of,
    slides_to,
    ug_separated,
    underlying,
)
from chaingraphs.separation import c_active_mask, represented_mask

Z_E = frozenset("ceg")


def test_moral_graph_ga(ga):
    m = moral_graph(ga)
    assert m.is_line("a", "c")
    assert set(m.edges) == set(ga.edges) | {("a", "c")}


def test_moral_graph_ug_identity():
    ug = build_graph("abc", [line("a", "b"), line("b", "c")])
    assert moral_graph(ug) == ug


def test_moral_graph_ge(ge):
    m = moral_graph(ge)
    assert set(m.edges) == set(ge.edges) | {("a", "b"), ("b", "d")}


def test_moral_graph_component_variant_agrees(ga, ge, cgs4):
    for g in (ga, ge, *cgs4[:300]):
        assert moral_graph(g) == moral_graph_component_variant(g)


def test_ug_separated():
    path = build_graph("abc", [line("a", "b"), line("b", "c")])
    assert ug_separated(path, parse_triplet("a | c | b"))
    assert not ug_separated(path, parse_triplet("a | c |"))
    with pytest.raises(GraphError):
        ug_separated(build_graph("ab", [arrow("a", "b")]), parse_triplet("a | b |"))


def test_moralization_represented(ga, ge):
    assert not moralization_represented(ge, Triplet("a", "f", Z_E))
    assert moralization_represented(ga, parse_triplet("a | c | b"))
    assert not moralization_represented(ga, parse_triplet("a | c | d"))


def test_triplet_entry_points_name_unknown_labels_alike(ga):
    # masks are looked up first and the labels validated only on a miss;
    # every entry point must still name all unknown labels, in X, Y or Z,
    # on graphs from the constructor and from masks alike
    from_masks = HybridGraph._of_masks(ga.nodes, ga.sib_masks, ga.par_masks)
    all_lines = HybridGraph(ga.nodes, {pair: EdgeKind.LINE for pair in ga.edges})
    cases = [(Triplet("z", "c", "b"), "['z']"), (Triplet("a", "cqz", ""), "['q', 'z']"),
             (Triplet("a", "c", "bz"), "['z']"), (Triplet("qa", "c", "z"), "['q', 'z']")]
    for t, unknown in cases:
        calls = [partial(ug_separated, ug) for ug in (all_lines, underlying(ga))]
        for g in (ga, from_masks):
            calls += [partial(moralization_represented, g), partial(c_represented, g)]
            calls += [CGBackedModel(g, criterion).is_independent for criterion in ("moral", "c")]
        for call in calls:
            with pytest.raises(InvalidTripletError) as exc:
                call(t)
            assert str(exc.value) == f"unknown nodes: {unknown}", (call, t)


def test_disconnected_always_separated():
    g = build_graph("abcd", [line("a", "b"), line("c", "d")])
    assert moralization_represented(g, parse_triplet("a | c |"))
    assert c_represented(g, parse_triplet("a | c | b,d"))


def test_trail_validation(ge):
    Trail(ge, ("a", "c", "d", "f"))
    # node d repeats across sections: allowed
    Trail(ge, ("a", "c", "d", "e", "b", "g", "d", "f"))
    with pytest.raises(GraphError):
        Trail(ge, ("a", "f"))  # not an edge
    with pytest.raises(GraphError):
        Trail(ge, ("c", "d", "c"))  # section repeats a node
    with pytest.raises(GraphError):
        Trail(ge, ("b", "g", "b"))  # arrow b -> g used twice


def test_enumerate_trails_ge(ge):
    steps = {t.steps for t in enumerate_trails(ge, "a", "f")}
    assert ("a", "c", "d", "f") in steps
    assert ("a", "c", "d", "e", "b", "g", "d", "f") in steps


def test_enumerate_trails_trivia():
    g = build_graph("abcd", [arrow("a", "b"), line("c", "d")])
    assert enumerate_trails(g, "a", "c") == []
    only = enumerate_trails(g, "a", "b")
    assert [t.steps for t in only] == [("a", "b")]
    with pytest.raises(GraphError):
        enumerate_trails(g, "a", "a")


def test_sections_of_long_trail(ge):
    trail = Trail(ge, ("a", "c", "d", "e", "b", "g", "d", "f"))
    secs = sections_of(trail)
    assert [s.nodes for s in secs] == [("a",), ("c", "d", "e"), ("b",),
                                       ("g",), ("d",), ("f",)]
    assert [s.kind for s in secs] == ["tail-to-tail", "head-to-head", "tail-to-tail",
                                      "head-to-head", "tail-to-tail", "head-to-tail"]


def test_sections_trivia():
    ug = build_graph("xy", [line("x", "y")])
    secs = sections_of(Trail(ug, ("x", "y")))
    assert secs == [Section(("x", "y"), "end", "end")]
    assert secs[0].kind == "tail-to-tail"
    dag = build_graph("xyz", [arrow("x", "y"), arrow("y", "z")])
    kinds = [s.kind for s in sections_of(Trail(dag, ("x", "y", "z")))]
    assert kinds == ["tail-to-tail", "head-to-tail", "head-to-tail"]


def test_slides_to(ge):
    # every slide to d passes through the complex regions, so meets Z
    assert slides_to(ge, "d") == [("a", "c", "d"), ("b", "e", "d")]
    single = build_graph("ab", [arrow("a", "b")])
    assert slides_to(single, "b") == [("a", "b")]
    assert slides_to(single, "a") == []


def test_section_blocked_example(ge):
    path = Trail(ge, ("a", "c", "d", "f"))
    secs = sections_of(path)
    assert secs[1].nodes == ("c", "d")
    assert section_blocked(ge, path, secs[1], Z_E)
    assert not section_blocked(ge, path, secs[0], Z_E)
    assert not section_blocked(ge, path, secs[2], Z_E)


def test_long_trail_active(ge):
    trail = Trail(ge, ("a", "c", "d", "e", "b", "g", "d", "f"))
    secs = sections_of(trail)
    assert not any(section_blocked(ge, trail, s, Z_E) for s in secs)
    h2h = [s for s in secs if s.kind == "head-to-head"]
    assert [s.nodes for s in h2h] == [("c", "d", "e"), ("g",)]


def test_head_to_head_empty_z_blocks(ge):
    trail = Trail(ge, ("a", "c", "d", "e", "b", "g", "d", "f"))
    h2h = [s for s in sections_of(trail) if s.kind == "head-to-head"]
    for s in h2h:
        assert section_blocked(ge, trail, s, set())


def test_section_blocked_wrong_trail(ge):
    path = Trail(ge, ("a", "c", "d", "f"))
    with pytest.raises(GraphError):
        section_blocked(ge, path, Section(("x",), "end", "end"), Z_E)


def test_c_represented(ga, ge):
    assert not c_represented(ge, Triplet("a", "f", Z_E))
    assert c_represented(ga, parse_triplet("a | c | b"))
    assert not c_represented(ga, parse_triplet("a | c | b,d"))


def test_criteria_agree_on_fixtures(ga, ge, gc):
    from chaingraphs import all_triplets
    for g in (ga, gc):
        for t in all_triplets(g.nodes):
            assert c_represented(g, t) == moralization_represented(g, t)
    for t in list(all_triplets(ge.nodes))[::37]:
        assert c_represented(ge, t) == moralization_represented(ge, t)


def test_dag_collapse_to_d_separation(cgs4):
    # on DAGs both criteria agree (and equal classical d-separation)
    from chaingraphs import all_triplets
    dags = [g for g in cgs4 if not list(g.lines())][:150]
    for g in dags:
        for t in all_triplets(g.nodes):
            assert c_represented(g, t) == moralization_represented(g, t)


def _assert_literal_definitions(g):
    """Both criteria on every triplet of ``g`` against their definitions.

    c-separation: some x in X, y in Y are joined by a trail from
    ``enumerate_trails`` with no section that ``section_blocked`` blocks.
    Moralization: undirected separation in the moral graph of the induced
    subgraph on the ancestral set of X | Y | Z.
    """
    trails = {}
    blocked = {}   # (section, Z) -> section_blocked
    active = {}    # (x, y, Z) -> some trail has no blocked section
    moral = {}     # ancestral set -> its moral graph

    def is_blocked(trail, s, z):
        if (s, z) not in blocked:
            blocked[s, z] = section_blocked(g, trail, s, z)
        return blocked[s, z]

    for t in all_triplets(g.nodes):
        for x in t.X:
            for y in t.Y:
                if (x, y) not in trails:
                    trails[x, y] = [(tr, sections_of(tr)) for tr in enumerate_trails(g, x, y)]
                if (x, y, t.Z) not in active:
                    active[x, y, t.Z] = any(not any(is_blocked(tr, s, t.Z) for s in secs)
                                            for tr, secs in trails[x, y])
        literal_c = not any(active[x, y, t.Z] for x in t.X for y in t.Y)
        a = ancestral_set(g, t.X | t.Y | t.Z)
        if a not in moral:
            moral[a] = moral_graph(induced_subgraph(g, a))
        literal_moral = ug_separated(moral[a], t)
        assert c_represented(g, t) == literal_c, (g, t)
        assert moralization_represented(g, t) == literal_moral, (g, t)


def test_criteria_match_definitions_on_all_4_node_chain_graphs(cgs4):
    for g in cgs4:
        _assert_literal_definitions(g)


def test_adjacent_pairs_are_connected_by_the_definitions(cgs4):
    # both criteria answer an adjacent pair at once; the literal
    # definitions must call every such pair connected, whatever Z is
    for g in cgs4:
        moral = {}    # ancestral set -> its moral graph
        blocked = {}  # (section, Z) -> section_blocked

        def is_blocked(trail, s, z):
            if (s, z) not in blocked:
                blocked[s, z] = section_blocked(g, trail, s, z)
            return blocked[s, z]

        for u, v in g.edges:
            for x, y in ((u, v), (v, u)):
                rest = [w for w in g.nodes if w not in (x, y)]
                trails = [(tr, sections_of(tr)) for tr in enumerate_trails(g, x, y)]
                for k in range(len(rest) + 1):
                    for z in map(frozenset, combinations(rest, k)):
                        xm, ym, zm = g.mask_of(x), g.mask_of(y), g.mask_of(z)
                        assert not represented_mask(g, xm, ym, zm)
                        assert c_active_mask(g, xm, ym, zm)
                        a = ancestral_set(g, {x, y} | z)
                        if a not in moral:
                            moral[a] = moral_graph(induced_subgraph(g, a))
                        t = Triplet({x}, {y}, z)
                        assert not ug_separated(moral[a], t), (g, t)
                        assert any(not any(is_blocked(tr, s, z) for s in secs)
                                   for tr, secs in trails), (g, t)


def test_criteria_match_definitions_on_5_node_sample(reps5):
    for g in random.Random(7).sample(reps5, 100):
        _assert_literal_definitions(g)


def test_moralization_matches_its_three_steps_on_block_draws(block_chain_graph):
    # the literal criterion is polynomial, so it reaches sizes the trail
    # definitions cannot: multi-node X and Y, and line components with
    # many parents, each of whose virtual bits lies in A or not
    rng = random.Random(20)
    answers = {True: 0, False: 0}
    for n in range(9, 31):
        for p_cut, p_line, p_arrow in ((0.3, 0.3, 0.1), (0.1, 0.35, 0.15)):
            g = block_chain_graph(rng, n, p_cut, p_line, p_arrow)
            for _ in range(100):
                picked = rng.sample(g.nodes, rng.randint(2, 6))
                cut = rng.randint(1, len(picked) - 1)
                z = [u for u in g.nodes if u not in picked and rng.random() < 0.4]
                t = Triplet(picked[:cut], picked[cut:], z)
                a = ancestral_set(g, t.X | t.Y | t.Z)
                literal = ug_separated(moral_graph(induced_subgraph(g, a)), t)
                assert moralization_represented(g, t) == literal, (g, t)
                answers[literal] += 1
    assert min(answers.values()) > 500, answers


def _chain_graph_with_large_component(rng, n, k):
    """A chain graph on n nodes whose line component of k nodes, a random
    tree plus extra lines, sits among singleton blocks: arrows run from
    earlier to later blocks, so many of them point into the component."""
    labels = [f"v{i}" for i in range(n)]
    start = rng.randint(1, n - k)
    inside = labels[start:start + k]
    block = {u: min(i, start) if i < start + k else i for i, u in enumerate(labels)}
    specs = [line(inside[i], inside[rng.randrange(i)]) for i in range(1, k)]
    tree = {frozenset(spec[:2]) for spec in specs}
    for u, v in combinations(labels, 2):
        if frozenset((u, v)) in tree:
            continue
        if block[u] == block[v]:
            if rng.random() < 0.3:
                specs.append(line(u, v))
        elif rng.random() < (0.5 if block[v] == start else 0.2):
            specs.append(arrow(u, v))
    return build_graph(labels, specs)


def test_criteria_agree_beyond_the_trail_search_wall():
    # A depth-first trail search takes seconds on many such queries at
    # n = 12; a linear search answers all of them in well under a second.
    rng = random.Random(12)
    for n in range(12, 21):
        for _ in range(4):
            g = _chain_graph_with_large_component(rng, n, rng.randint(6, 8))
            for _ in range(25):
                x, y = rng.sample(g.nodes, 2)
                z = [u for u in g.nodes if u not in (x, y) and rng.random() < 0.3]
                t = Triplet([x], [y], z)
                assert c_represented(g, t) == moralization_represented(g, t), (g, t)
