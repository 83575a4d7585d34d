from itertools import combinations

import pytest

from chaingraphs import (
    EdgeKind,
    HybridGraph,
    arrow,
    build_graph,
    enumerate_complexes,
    is_chain_graph,
    line,
)
from chaingraphs.enumeration import all_chain_graphs, orbit_representatives
from chaingraphs.graph import components


@pytest.fixture
def ga():
    """Four-node DAG with the single complex a -> d <- c."""
    return build_graph("abcd", [arrow("b", "a"), arrow("b", "c"),
                                arrow("a", "d"), arrow("c", "d")])


@pytest.fixture
def ge():
    """Seven-node chain graph with a degree-3 and a degree-1 complex."""
    return build_graph("abcdefg", [arrow("a", "c"), line("c", "d"), line("d", "e"),
                                   arrow("b", "e"), arrow("b", "g"),
                                   arrow("d", "g"), arrow("d", "f")])


@pytest.fixture
def gc():
    """Degree-2 complex u -> p - q <- v; its equivalence class is a singleton."""
    return build_graph(["u", "p", "q", "v"],
                       [arrow("u", "p"), line("p", "q"), arrow("v", "q")])


@pytest.fixture(scope="session")
def cgs3():
    return list(all_chain_graphs("abc"))


@pytest.fixture(scope="session")
def cgs4():
    return list(all_chain_graphs("abcd"))


@pytest.fixture(scope="session")
def reps5():
    """Orbit representatives of the 5-node chain graphs: 1,553 graphs.

    ``all_chain_graphs`` builds all 4^10 hybrid graphs and keeps the
    142,624 chain graphs, which takes about half a minute;
    ``orbit_representatives`` then keeps the first graph met in each
    relabelling orbit and marks its 120 relabellings seen.  Every
    session-level sweep shares this list.
    """
    return list(orbit_representatives(all_chain_graphs("abcde")))


# ---------------------------------------------------------------------------
# seeded draws beyond the listed sizes, and the largest chain graph by
# feasible merging, each handed to tests as a fixture

def _feasible_merges(g):
    """Each feasible merge of g: all arrows from one component into another
    made lines, the result a chain graph with the same complexes."""
    comps = components(g)
    comp_of = {u: c for c, comp in enumerate(comps) for u in comp}
    complexes = enumerate_complexes(g)
    for upper, lower in sorted({(comp_of[t], comp_of[h]) for t, h in g.arrows()}):
        edges = dict(g.edges)
        for t, h in g.arrows():
            if comp_of[t] == upper and comp_of[h] == lower:
                edges[min(t, h), max(t, h)] = EdgeKind.LINE
        merged = HybridGraph(g.nodes, edges)
        if is_chain_graph(merged) and enumerate_complexes(merged) == complexes:
            yield merged


def _complex_join(g):
    """The moral graph by its definition: the underlying graph plus a line
    joining the two parents of every listed complex."""
    edges = {pair: EdgeKind.LINE for pair in g.edges}
    for cpx in enumerate_complexes(g):
        edges[cpx.parents] = EdgeKind.LINE
    return HybridGraph(g.nodes, edges)


def _admits_no_merge(g):
    return next(_feasible_merges(g), None) is None


def _greedy_merge(g):
    while (merged := next(_feasible_merges(g), None)) is not None:
        g = merged
    return g


def _block_chain_graph(rng, n, p_cut=0.3, p_line=0.3, p_arrow=0.1):
    """Nodes shuffled into blocks; lines inside a block, arrows forward."""
    order = [f"v{i:02d}" for i in range(n)]
    rng.shuffle(order)
    block = [0]
    for _ in order[1:]:
        block.append(block[-1] + (rng.random() < p_cut))
    edges = {}
    for i, j in combinations(range(n), 2):
        same = block[i] == block[j]
        if rng.random() < (p_line if same else p_arrow):
            edges[order[i], order[j]] = EdgeKind.LINE if same else EdgeKind.ARROW_FORWARD
    return HybridGraph(order, edges)


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


@pytest.fixture(scope="session")
def diamond_ladder():
    """``diamond_ladder(k)``: the 3k + 3-node ladder of k diamonds."""
    return _diamond_ladder


@pytest.fixture(scope="session")
def admits_no_merge():
    return _admits_no_merge


@pytest.fixture(scope="session")
def greedy_merge():
    """The largest chain graph of g's class (Studeny, Roverato & Stepanova,
    Kybernetika 45, 2009): merge components while a merge is feasible."""
    return _greedy_merge


@pytest.fixture(scope="session")
def complex_join():
    return _complex_join


@pytest.fixture(scope="session")
def block_chain_graph():
    """``block_chain_graph(rng, n, p_cut=0.3, p_line=0.3, p_arrow=0.1)``."""
    return _block_chain_graph
