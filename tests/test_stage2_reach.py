"""Stage-2 rule searches against the route-enumerating references, and
stage 2 against greedy component merging.

``ref_necessity``, ``ref_doublecycle`` and ``ref_semislide_exists`` are
the searches ``recovery`` used before its rules became mask reachability:
depth-first route enumeration with per-node visit counts, a step cap and
a second pass that lets routes visit a node twice.
``ref_semislide_with_anchor`` is the anchored semislide search with its
head step written out apart from the recursion; it is compared on every
anchor (r0, r1, rk) at each doublecycle call.  ``recover_largest``
is driven with the new rules while every rule call is compared with its
reference, and again with the references swapped in; both runs must end
in the same graph.

Beyond the sizes where the class can be listed, the largest chain graph
is checked by merging (Studeny, Roverato & Stepanova, Kybernetika 45,
2009): every member of a class reaches the largest chain graph by
feasible mergings of an upper and a lower component, so a member that
admits no feasible merge is the largest.  The merging helpers and the
block sampler are fixtures in ``conftest.py``.
"""

import random

import pytest

from chaingraphs import (
    AnnotatedPattern,
    feasible_semislide_exists,
    largest_cg_oracle,
    parse_graph,
    pattern_of,
    recover_largest,
)
from chaingraphs import depmodel, recovery
from chaingraphs.complexes import BoundExceededError
from chaingraphs.enumeration import random_chain_graph
from chaingraphs.graph import _bits

ORDERS = (("necessity", "doublecycle"), ("doublecycle", "necessity"))


def ref_semislide_exists(w, target, excluded, *_):
    # *_: the banned-line relation the new search is handed, unused here
    avoid = w.adj(excluded) | 1 << excluded
    seen = 1 << target

    def back(cur):
        nonlocal seen
        for u in _bits(w.adj(cur) & ~avoid):
            if seen >> u & 1:
                continue
            if w.par[cur] >> u & 1:
                return True
            if w.sib[cur] >> u & 1 and w.ban[u] >> cur & 1:
                seen |= 1 << u
                if back(u):
                    return True
        return False

    return back(target)


def ref_semislide_with_anchor(w, r0, r1, rk):
    near_r0, near_rk = w.adj(r0), w.adj(rk)

    def forward(cur, seen, clear, qualified):
        # clear: every node so far is nonadjacent to r0
        for nxt in _bits(w.d_step(cur) & ~seen):
            if nxt == r1:
                if qualified:
                    return True
                continue
            c = clear and not near_r0 >> nxt & 1
            if forward(nxt, seen | 1 << nxt, c, qualified or (c and near_rk >> nxt & 1)):
                return True
        return False

    for s0 in range(len(w.nodes)):
        if s0 == r0:
            continue
        clear0 = not near_r0 >> s0 & 1
        qualified0 = clear0 and near_rk >> s0 & 1
        for s1 in _bits(w.chi[s0]):
            if s1 == r1:
                if qualified0:
                    return True
                continue
            c = clear0 and not near_r0 >> s1 & 1
            if forward(s1, 1 << s0 | 1 << s1, c, qualified0 or (c and near_rk >> s1 & 1)):
                return True
    return False


def _ref_necessity(w, limit):
    n = len(w.nodes)
    max_steps = 2 * n + 2
    for r0 in range(n):
        for r1 in _bits(w.chi[r0]):
            counts = [0] * n
            counts[r1] = 1

            def walk(cur, steps, designated):
                if steps > max_steps:
                    return None
                d = w.d_step(cur)
                lines = w.sib[cur] if designated is None else 0
                for nxt in _bits(d | lines):
                    d_ok = d >> nxt & 1
                    line_ok = lines >> nxt & 1
                    if nxt == r0:
                        if steps + 1 >= 3:
                            if d_ok and designated is not None:
                                a, b = designated
                                return b, a, (r0, r1, cur)
                            if line_ok:
                                return r0, cur, (r0, r1, cur)
                        continue
                    if counts[nxt] >= limit:
                        continue
                    counts[nxt] += 1
                    if d_ok:
                        found = walk(nxt, steps + 1, designated)
                        if found:
                            return found
                    if line_ok:
                        found = walk(nxt, steps + 1, (cur, nxt))
                        if found:
                            return found
                    counts[nxt] -= 1
                return None

            found = walk(r1, 1, None)
            if found:
                return found
    return None


def ref_necessity(w):
    return _ref_necessity(w, 1) or _ref_necessity(w, 2)


def _ref_doublecycle(w, limit):
    n = len(w.nodes)
    max_steps = 2 * n + 2
    for r0 in range(n):
        for r1 in _bits(w.chi[r0]):
            counts = [0] * n
            counts[r0] = counts[r1] = 1

            def walk(last, length):
                for rk in _bits(w.sib[last] & w.sib[r0]):
                    if not counts[rk] and ref_semislide_with_anchor(w, r0, r1, rk):
                        return rk, last, (r0, r1, rk)
                if length >= max_steps:
                    return None
                for nxt in _bits(w.d_step(last)):
                    if counts[nxt] >= limit:
                        continue
                    counts[nxt] += 1
                    found = walk(nxt, length + 1)
                    if found:
                        return found
                    counts[nxt] -= 1
                return None

            found = walk(r1, 2)
            if found:
                return found
    return None


def ref_doublecycle(w):
    return _ref_doublecycle(w, 1) or _ref_doublecycle(w, 2)


NEW = {"semislide": recovery._semislide_exists,
       "necessity": recovery._necessity, "doublecycle": recovery._doublecycle}
REF = {"semislide": ref_semislide_exists,
       "necessity": ref_necessity, "doublecycle": ref_doublecycle}


def _largest(monkeypatch, pattern, order, searches):
    """recover_largest with the given semislide and rule searches."""
    with monkeypatch.context() as m:
        m.setattr(recovery, "_semislide_exists", searches["semislide"])
        for rule in ("necessity", "doublecycle"):
            m.setitem(recovery._RULES, rule,
                      lambda w, rule=rule: recovery._directing(w, rule, searches[rule](w)))
        return recover_largest(pattern, order=order)


class Checked:
    """The new searches, each call compared with its reference."""

    def __init__(self):
        self.fired = dict.fromkeys([*NEW, "anchor"], 0)

    def __getitem__(self, name):
        return lambda *args: self._check(name, *args)

    def _check(self, name, w, *args):
        got, want = NEW[name](w, *args), REF[name](w, *args)
        assert bool(got) == bool(want), (name, w.to_graph(), args)
        self.fired[name] += bool(got)
        if name != "semislide":
            self._check_lines(w)
        if name == "doublecycle":
            self._check_anchors(w)
        return got

    def _check_anchors(self, w):
        for r0 in range(len(w.nodes)):
            for r1 in _bits(w.chi[r0]):
                for rk in _bits(w.sib[r0]):
                    got = recovery._semislide_with_anchor(w, r0, r1, rk)
                    assert got == ref_semislide_with_anchor(w, r0, r1, rk), (
                        w.to_graph(), r0, r1, rk)
                    self.fired["anchor"] += got

    @staticmethod
    def _check_lines(w):
        nodes = w.nodes
        bans = frozenset((nodes[u], nodes[v]) for u in range(len(nodes)) for v in _bits(w.ban[u]))
        a = AnnotatedPattern(w.to_graph(), bans)
        for u in range(len(nodes)):
            for v in _bits(w.sib[u]):
                assert (feasible_semislide_exists(a, nodes[u], nodes[v])
                        == ref_semislide_exists(w, u, v))


def _drive(monkeypatch, graphs):
    checked = Checked()
    for pattern in dict.fromkeys(pattern_of(g) for g in graphs):
        for order in ORDERS:
            got = _largest(monkeypatch, pattern, order, checked)
            assert got == _largest(monkeypatch, pattern, order, REF)
    return checked


def _assert_all_fired(checked):
    assert all(checked.fired.values()), checked.fired


def test_rules_agree_on_cgs4(monkeypatch, cgs4):
    _assert_all_fired(_drive(monkeypatch, cgs4))


def test_rules_agree_on_reps5(monkeypatch, reps5):
    _assert_all_fired(_drive(monkeypatch, reps5))


def test_rules_agree_on_random_draws(monkeypatch):
    graphs = []
    for n in range(6, 11):
        rng = random.Random(6000 + n)
        labels = [f"v{i}" for i in range(n)]
        graphs += [random_chain_graph(rng, labels, p_edge=0.4) for _ in range(30)]
    _assert_all_fired(_drive(monkeypatch, graphs))


# a 5-node pattern whose doublecycle search runs the anchored semislide DFS;
# its longest call expands six paths
ANCHORED = "nodes a b c d e\na -- d\nb -- d\nc -- d\nd -- e\nc -> a\ne -> a\nc -> b\ne -> b\n"


def test_anchored_semislide_budget(monkeypatch):
    pattern = parse_graph(ANCHORED)
    largest = recover_largest(pattern)
    monkeypatch.setattr(depmodel, "MAX_WALK_SETS", 6)
    assert recover_largest(pattern) == largest
    monkeypatch.setattr(depmodel, "MAX_WALK_SETS", 5)
    with pytest.raises(BoundExceededError,
                       match="anchored semislide search exceeds the bound of 5 path expansions"):
        recover_largest(pattern)


# ---------------------------------------------------------------------------
# the largest chain graph by feasible merging

def test_merging_matches_class_oracle(cgs4, greedy_merge, admits_no_merge):
    for g in cgs4:
        largest = largest_cg_oracle(g)
        assert greedy_merge(g) == largest
        assert admits_no_merge(g) == (g == largest)


def test_recover_largest_by_merging_beyond_class_sizes(block_chain_graph, greedy_merge,
                                                      admits_no_merge):
    rng = random.Random(2009)
    for _ in range(60):
        g = block_chain_graph(rng, rng.randint(20, 30))
        got = recover_largest(pattern_of(g))
        assert got == greedy_merge(g)
        assert admits_no_merge(got)
