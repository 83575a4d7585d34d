"""Relabelling and the orbit filter behind the 5-node sweeps."""

from itertools import permutations

from chaingraphs import arrow, build_graph, line
from chaingraphs.enumeration import orbit_representatives, relabel


def _orbit(g):
    return {relabel(g, dict(zip(g.nodes, perm))) for perm in permutations(g.nodes)}


def test_relabel_keeps_arrow_directions():
    g = build_graph("abc", [arrow("a", "b"), line("b", "c")])
    h = relabel(g, {"a": "c", "b": "a", "c": "b"})
    assert h == build_graph("abc", [arrow("c", "a"), line("a", "b")])
    assert relabel(g, {u: u for u in g.nodes}) == g


def test_orbit_representatives_on_four_nodes(cgs4):
    reps = list(orbit_representatives(cgs4))
    assert len(reps) == 104
    position = {g: i for i, g in enumerate(cgs4)}
    orbits = [_orbit(r) for r in reps]
    # every chain graph is a relabelling of exactly one representative
    for g in cgs4:
        assert sum(g in orbit for orbit in orbits) == 1
    # and each representative is the first member of its orbit
    for r, orbit in zip(reps, orbits):
        assert min(position[h] for h in orbit) == position[r]


def test_reps5_size(reps5):
    assert len(reps5) == 1553
