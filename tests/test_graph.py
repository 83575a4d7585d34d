import heapq
import random

import pytest

from chaingraphs import (
    EdgeKind,
    GraphError,
    HybridGraph,
    NotChainGraphError,
    ancestral_set,
    arrow,
    boundary,
    build_graph,
    children,
    component_chain,
    components,
    descendants,
    find_directed_pseudocycle,
    induced_subgraph,
    equivalence_class,
    is_chain_graph,
    line,
    moral_graph,
    parents,
    pattern_of,
    recover_largest,
    siblings,
    underlying,
)
from chaingraphs.enumeration import all_chain_graphs, all_hybrid_graphs, random_chain_graph
from chaingraphs.graph import _reach


def test_single_node_graph():
    g = build_graph(["a"])
    assert g.nodes == ("a",)
    assert g.edges == {}


def test_duplicate_node_rejected():
    with pytest.raises(GraphError):
        build_graph(["a", "a"])


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        build_graph("ab", [line("a", "a")])


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError):
        build_graph("ab", [arrow("a", "b"), line("a", "b")])
    # the same pair twice with the same kind is also a duplicate
    with pytest.raises(GraphError):
        build_graph("ab", [arrow("a", "b"), arrow("b", "a")])
    # the message names the sorted pair, whichever order the pair came in
    message = r"^duplicate edge \('a', 'b'\)$"
    with pytest.raises(GraphError, match=message):
        build_graph("ab", [arrow("b", "a"), line("a", "b")])
    for first, second in ((("a", "b"), ("b", "a")), (("b", "a"), ("a", "b"))):
        with pytest.raises(GraphError, match=message):
            HybridGraph("ab", {first: EdgeKind.LINE, second: EdgeKind.ARROW_FORWARD})


def test_unknown_endpoint_rejected():
    with pytest.raises(GraphError):
        build_graph("ab", [line("a", "c")])


def test_invalid_label_rejected():
    with pytest.raises(GraphError):
        build_graph(["a b"])


def test_edge_accessors(ga):
    assert ga.has_arrow("b", "a")
    assert not ga.has_arrow("a", "b")
    assert not ga.is_line("b", "a")
    assert sorted(ga.arrows()) == [("a", "d"), ("b", "a"), ("b", "c"), ("c", "d")]
    assert list(ga.lines()) == []


def test_unknown_label_queries(ga):
    assert not ga.has_edge("a", "z") and not ga.has_edge("z", "a")
    assert ga.edge_kind("a", "z") is None and ga.edge_kind("z", "a") is None
    assert not ga.has_arrow("a", "z") and not ga.has_arrow("z", "a")
    assert not ga.is_line("a", "z")


def test_edge_map_round_trip_on_all_four_node_hybrid_graphs():
    count = 0
    for g in all_hybrid_graphs("abcd"):
        count += 1
        edges = g.edges
        again = HybridGraph(g.nodes, edges)
        assert again == g and hash(again) == hash(g), g
        assert list(edges) == sorted(edges), g
        assert list(g.lines()) == [p for p, kind in edges.items() if kind is EdgeKind.LINE]
        assert list(g.arrows()) == [
            (u, v) if kind is EdgeKind.ARROW_FORWARD else (v, u)
            for (u, v), kind in edges.items() if kind is not EdgeKind.LINE]
        assert all(g.is_line(u, v) and g.is_line(v, u) for u, v in g.lines())
        assert all(g.has_arrow(t, h) and not g.has_arrow(h, t) for t, h in g.arrows())
    assert count == 4 ** 6


def test_mask_constructor_matches_the_edge_map():
    for g in all_hybrid_graphs("abcd"):
        for chi in (None, g.chi_masks):  # derived, or passed in
            h = HybridGraph._of_masks(g.nodes, g.sib_masks, g.par_masks, chi)
            assert h == g and h.chi_masks == g.chi_masks and h.edges == g.edges, g


def test_mask_constructor_copies_its_lists(ga):
    sib, par, chi = list(ga.sib_masks), list(ga.par_masks), list(ga.chi_masks)
    g = HybridGraph._of_masks(ga.nodes, sib, par, chi)
    sib[0] |= 1 << 2
    par[3] = 0
    chi[0] = 0
    assert g == ga and g.edges == ga.edges and g.chi_masks == ga.chi_masks


def test_mask_constructor_builds_the_label_index_on_first_use(ga):
    g = HybridGraph._of_masks(ga.nodes, ga.sib_masks, ga.par_masks)
    assert g == ga and hash(g) == hash(ga)
    assert [g.index_of(u) for u in "abcd"] == [0, 1, 2, 3]
    assert g.mask_of("bd") == ga.mask_of("bd") == 0b1010
    assert g.mask_of("bdb") == ga.mask_of("bdb") == 0b1010  # repeats OR together
    assert g.mask_of(()) == 0
    with pytest.raises(GraphError, match="unknown node: 'z'"):
        g.index_of("z")
    for h in (ga, HybridGraph._of_masks(ga.nodes, ga.sib_masks, ga.par_masks)):
        with pytest.raises(GraphError, match="^unknown node: 'z'$"):
            h.mask_of("az")
        with pytest.raises(GraphError, match="^unknown node: 'z'$"):
            h.index_of("z")
    assert g == ga and hash(g) == hash(ga) and {g: 1}[ga] == 1


def test_mask_built_graphs_are_well_formed(cgs4):
    # rebuilding from the edge map catches a line set on one side only, or
    # a pair set as both a line and an arrow
    classes = {}
    for g in cgs4:
        pattern = pattern_of(g)
        for h in (pattern, moral_graph(g), underlying(g)):
            assert HybridGraph(h.nodes, h.edges) == h, (g, h)
        classes.setdefault(pattern, g)
    for pattern, g in classes.items():  # one graph per class
        for h in (recover_largest(pattern), *equivalence_class(g)):
            assert HybridGraph(h.nodes, h.edges) == h, (g, h)


def test_underlying(ga):
    u = underlying(ga)
    assert set(u.edges) == set(ga.edges)
    assert all(kind is EdgeKind.LINE for kind in u.edges.values())
    assert underlying(u) == u


def test_induced_subgraph(ga):
    sub = induced_subgraph(ga, {"a", "c", "d"})
    assert sorted(sub.arrows()) == [("a", "d"), ("c", "d")]
    assert not sub.has_edge("a", "c")
    assert induced_subgraph(ga, ga.nodes) == ga
    single = induced_subgraph(ga, {"a"})
    assert single.edges == {}


def test_induced_subgraph_errors(ga):
    with pytest.raises(GraphError):
        induced_subgraph(ga, set())
    with pytest.raises(GraphError):
        induced_subgraph(ga, {"z"})


def test_components(ga, ge):
    assert components(ga) == [frozenset(x) for x in ("a", "b", "c", "d")]
    assert components(ge) == [frozenset("a"), frozenset("b"), frozenset("cde"),
                              frozenset("f"), frozenset("g")]
    path = build_graph("abc", [line("a", "b"), line("b", "c")])
    assert components(path) == [frozenset("abc")]


def test_is_chain_graph(ga):
    assert is_chain_graph(ga)
    tri = build_graph("abc", [arrow("a", "b"), arrow("b", "c"), arrow("c", "a")])
    assert not is_chain_graph(tri)
    # pseudocycle through a line's component
    mixed = build_graph("abc", [line("a", "b"), arrow("b", "c"), arrow("c", "a")])
    assert not is_chain_graph(mixed)


def test_find_directed_pseudocycle():
    tri = build_graph("abc", [arrow("a", "b"), arrow("b", "c"), arrow("c", "a")])
    cyc = find_directed_pseudocycle(tri)
    assert cyc[0] == cyc[-1] and len(cyc) >= 4
    mixed = build_graph("abc", [line("a", "b"), arrow("b", "c"), arrow("c", "a")])
    cyc = find_directed_pseudocycle(mixed)
    assert cyc[0] == cyc[-1]
    # each step is an edge, at least one step is an arrow in route direction
    assert any(mixed.has_arrow(x, y) for x, y in zip(cyc, cyc[1:]))
    ok = build_graph("ab", [line("a", "b")])
    assert find_directed_pseudocycle(ok) is None


def test_intra_component_arrow_is_pseudocycle():
    g = build_graph("abc", [line("a", "b"), line("b", "c"), arrow("a", "c")])
    assert not is_chain_graph(g)
    cyc = find_directed_pseudocycle(g)
    assert cyc[0] == cyc[-1]


def _is_chain_graph_by_condensation(g):
    """Reference: no arrow inside a connectivity component, and the arrows
    between components form an acyclic condensation (Kahn's algorithm)."""
    comp_of = {u: c for c, comp in enumerate(components(g)) for u in comp}
    succ = {c: set() for c in comp_of.values()}
    for tail, head in g.arrows():
        if comp_of[tail] == comp_of[head]:
            return False
        succ[comp_of[tail]].add(comp_of[head])
    indeg = {c: 0 for c in succ}
    for targets in succ.values():
        for b in targets:
            indeg[b] += 1
    ready = [c for c, d in indeg.items() if d == 0]
    placed = 0
    while ready:
        c = ready.pop()
        placed += 1
        for b in succ[c]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    return placed == len(succ)


def _component_chain_by_condensation(g):
    """Reference: Kahn's algorithm on the label-level component
    condensation, the ready component with the smallest member label first."""
    comps = components(g)
    comp_of = {u: c for c, comp in enumerate(comps) for u in comp}
    succ = [set() for _ in comps]
    for tail, head in g.arrows():
        succ[comp_of[tail]].add(comp_of[head])
    indeg = [0] * len(comps)
    for targets in succ:
        for b in targets:
            indeg[b] += 1
    heap = [(min(comps[c]), c) for c in range(len(comps)) if indeg[c] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, c = heapq.heappop(heap)
        order.append(comps[c])
        for b in succ[c]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, (min(comps[b]), b))
    return tuple(order)


def test_component_chain_matches_condensation_order():
    count = 0
    for g in all_chain_graphs("abcd"):
        count += 1
        assert component_chain(g) == _component_chain_by_condensation(g), g
    assert count == 1688
    rng = random.Random(20261018)
    for n in range(6, 13):
        for _ in range(100):  # sparse draws: many components to order
            g = random_chain_graph(rng, "abcdefghijkl"[:n], p_edge=0.25)
            assert component_chain(g) == _component_chain_by_condensation(g), g


def test_is_chain_graph_all_four_node_hybrid_graphs():
    count = 0
    for g in all_hybrid_graphs("abcd"):
        count += 1
        ok = is_chain_graph(g)
        assert ok == _is_chain_graph_by_condensation(g), g
        cyc = find_directed_pseudocycle(g)
        assert (cyc is None) == ok, g
        if cyc is not None:
            assert cyc[0] == cyc[-1]
            assert len(set(cyc)) == len(cyc) - 1, cyc
            assert all(g.has_edge(a, b) and not g.has_arrow(b, a) for a, b in zip(cyc, cyc[1:]))
            assert any(g.has_arrow(a, b) for a, b in zip(cyc, cyc[1:]))
    assert count == 4 ** 6


def test_component_chain(ge):
    assert component_chain(ge) == (frozenset("a"), frozenset("b"), frozenset("cde"),
                                   frozenset("f"), frozenset("g"))
    edgeless = build_graph("ab")
    assert component_chain(edgeless) == (frozenset("a"), frozenset("b"))
    ug = build_graph("ab", [line("a", "b")])
    assert component_chain(ug) == (frozenset("ab"),)


def test_component_chain_requires_cg():
    tri = build_graph("abc", [arrow("a", "b"), arrow("b", "c"), arrow("c", "a")])
    with pytest.raises(NotChainGraphError):
        component_chain(tri)


def test_boundary_family(ga, ge):
    assert parents(ga, "d") == frozenset("ac")
    assert siblings(ga, "d") == frozenset()
    assert boundary(ga, "d") == frozenset("ac")
    assert boundary(ge, "d") == frozenset("ce")
    assert children(ge, "d") == frozenset("fg")
    isolated = build_graph("ab")
    assert boundary(isolated, "a") == frozenset()


def test_boundary_unknown_node(ga):
    with pytest.raises(GraphError):
        boundary(ga, "z")


def test_ancestral_set(ga, ge):
    assert ancestral_set(ga, {"d"}) == frozenset("abcd")
    assert ancestral_set(ga, ga.nodes) == frozenset(ga.nodes)
    assert ancestral_set(ge, {"a", "f", "c", "e", "g"}) == frozenset("abcdefg")


def test_ancestral_set_monotone_idempotent(ga):
    small = ancestral_set(ga, {"a"})
    big = ancestral_set(ga, {"a", "d"})
    assert small <= big
    assert ancestral_set(ga, big) == big


def test_descendants(ga, ge):
    assert descendants(ga, "b") == frozenset("abcd")
    assert descendants(ge, "c") == frozenset("cdefg")
    isolated = build_graph("ab")
    assert descendants(isolated, "a") == frozenset("a")


def test_descendants_duality(cgs3):
    for g in cgs3[:200]:
        for u in g.nodes:
            for v in descendants(g, u):
                assert u in ancestral_set(g, {v})


def test_reach_stop_only_cuts_the_search_short():
    # a search told to stop at `stop` meets it exactly when the full search
    # meets it outside the seed, and otherwise returns the full set
    rng = random.Random(20261020)
    for _ in range(3000):
        n = rng.randint(1, 12)
        sparse = rng.random() < 0.5
        step = [rng.getrandbits(n) & (rng.getrandbits(n) if sparse else -1) for _ in range(n)]
        seed = rng.getrandbits(n) & rng.getrandbits(n) or 1
        avoid = rng.getrandbits(n) & rng.getrandbits(n)
        stop = rng.getrandbits(n) & rng.getrandbits(n)
        full = _reach(step, seed, avoid)
        got = _reach(step, seed, avoid, stop)
        assert got & ~full == 0
        if full & stop & ~seed:
            assert got & stop
        else:
            assert got == full
