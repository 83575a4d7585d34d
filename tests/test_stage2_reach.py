"""Stage-2 rule searches against the route-enumerating references, and
stage 2 against greedy component merging.

``ref_necessity``, ``ref_doublecycle`` and ``ref_semislide_exists`` are
the searches ``recovery`` used before its rules became mask reachability:
depth-first route enumeration with per-node visit counts, a step cap and
a second pass that lets routes visit a node twice.
``ref_semislide_with_anchor`` is the anchored semislide search with its
head step written out apart from the recursion; it is compared on every
anchor (r0, r1, rk) at each doublecycle call.  ``full_sweep_transitivity``
and ``per_node_necessity`` are ``_transitivity`` before it re-tested only
the targets a new ban can reach, and ``_necessity`` before it skipped the
reaches with no line back: each call of the new ones must give the same
ban events, in the same order, and the same (tail, head, witness).
``recover_largest`` is driven with the new rules while every rule call is
compared with its reference, and again with the references swapped in;
the runs must end in the same graph, and the runs with the new and the
replaced searches in the same trace.

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
    InvalidPatternError,
    feasible_semislide_exists,
    is_chain_graph,
    largest_cg_oracle,
    parse_graph,
    pattern_of,
    recover_largest,
)
from chaingraphs import depmodel, recovery
from chaingraphs.complexes import BoundExceededError
from chaingraphs.enumeration import all_hybrid_graphs, random_chain_graph
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


def full_sweep_transitivity(w, trace=None):
    banned_into = recovery._transpose(w.ban)
    changed = True
    while changed:
        changed = False
        for u in range(len(w.nodes)):
            for v in _bits(w.sib[u] & ~((2 << u) - 1)):
                for x, y in ((u, v), (v, u)):
                    if not w.ban[x] >> y & 1 and recovery._semislide_exists(w, x, y, banned_into):
                        w.ban[x] |= 1 << y
                        banned_into[y] |= 1 << x
                        changed = True
                        if trace is not None:
                            trace(("ban", w.nodes[x], w.nodes[y]))


def per_node_necessity(w):
    n = len(w.nodes)
    d = [w.d_step(u) for u in range(n)]
    into = recovery._transpose(d)
    for r0 in range(n):
        if not w.chi[r0]:
            continue
        back = recovery._reach(into, 1 << r0)
        for r1 in _bits(w.chi[r0]):
            for a in _bits(recovery._reach(d, 1 << r1, avoid=1 << r0)):
                line = w.sib[a] & back
                if line:
                    return (line & -line).bit_length() - 1, a, (r0, r1, a)
    return None


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


NEW = {"semislide": recovery._semislide_exists, "transitivity": recovery._transitivity,
       "necessity": recovery._necessity, "doublecycle": recovery._doublecycle}
REF = {"semislide": ref_semislide_exists, "transitivity": full_sweep_transitivity,
       "necessity": ref_necessity, "doublecycle": ref_doublecycle}


def _largest(monkeypatch, pattern, order, searches):
    """recover_largest with the given semislide, transitivity and rule
    searches: the result and the trace."""
    events = []
    with monkeypatch.context() as m:
        m.setattr(recovery, "_semislide_exists", searches["semislide"])
        m.setattr(recovery, "_transitivity", searches["transitivity"])
        for rule in ("necessity", "doublecycle"):
            m.setitem(recovery._RULES, rule,
                      lambda w, rule=rule: recovery._directing(w, rule, searches[rule](w)))
        return recover_largest(pattern, order=order, trace=events.append), events


class Checked:
    """The new searches, each call compared with its reference and with
    the search it replaced; ``routes=False`` leaves out the route
    enumerations, which are too slow beyond about ten nodes."""

    def __init__(self, routes=True):
        self.routes = routes
        self.fired = dict.fromkeys([*NEW, "anchor"], 0)

    def __getitem__(self, name):
        if not self.routes and name in ("semislide", "doublecycle"):
            return NEW[name]
        return lambda *args: self._check(name, *args)

    def _check(self, name, w, *args):
        if name == "transitivity":
            return self._check_transitivity(w, *args)
        got = NEW[name](w, *args)
        if name == "necessity":
            assert got == per_node_necessity(w), w.to_graph()
        self.fired[name] += bool(got)
        if not self.routes:
            return got
        assert bool(got) == bool(REF[name](w, *args)), (name, w.to_graph(), args)
        if name != "semislide":
            self._check_lines(w)
        if name == "doublecycle":
            self._check_anchors(w)
        return got

    def _check_transitivity(self, w, trace=None):
        old = recovery._WorkingGraph(w.nodes, w.sib, w.par, w.chi, w.ban)
        got, want = [], []
        full_sweep_transitivity(old, want.append)
        NEW["transitivity"](w, got.append)
        assert got == want and w.ban == old.ban, w.to_graph()
        self.fired["transitivity"] += bool(got)
        for event in got if trace is not None else ():
            trace(event)

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


def _drive(monkeypatch, graphs, routes=True):
    """Each pattern under both orders: the checked run ends as the run of
    the replaced searches does, trace included, and as the references do."""
    checked = Checked(routes)
    replaced = {**NEW, "transitivity": full_sweep_transitivity, "necessity": per_node_necessity}
    for pattern in dict.fromkeys(pattern_of(g) for g in graphs):
        for order in ORDERS:
            got = _largest(monkeypatch, pattern, order, checked)
            assert got == _largest(monkeypatch, pattern, order, replaced)
            if routes:  # the route searches may name other witnesses
                assert got[0] == _largest(monkeypatch, pattern, order, REF)[0]
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


def test_stage2_matches_the_full_sweeps_on_block_draws(monkeypatch, block_chain_graph):
    rng = random.Random(2018)
    graphs = []
    for k in range(125):
        if k % 2:  # dense up to 20 nodes: beyond, the anchored semislide search runs long
            graphs.append(block_chain_graph(rng, 6 + k % 15, 0.3, 0.5, 0.25))
        else:
            graphs.append(block_chain_graph(rng, 6 + k % 25, 0.3, 0.3, 0.1))
    checked = _drive(monkeypatch, graphs, routes=False)
    assert checked.fired["transitivity"] and checked.fired["necessity"], checked.fired


def test_stage2_on_largest_shaped_draws(monkeypatch, block_chain_graph, greedy_merge):
    """Sparse DAG-like draws at n = 20..30, shaped like the benchmark's
    stage-2 inputs: every transitivity and necessity call matches the full
    sweeps, and the result is the largest chain graph by merging."""
    rng = random.Random(20261023)
    graphs = [block_chain_graph(rng, rng.randint(20, 30), 0.9, 0.5, rng.uniform(0.06, 0.2))
              for _ in range(100)]
    checked = _drive(monkeypatch, graphs, routes=False)
    assert checked.fired["transitivity"], checked.fired
    for g in graphs:
        assert recover_largest(pattern_of(g)) == greedy_merge(g), g


def test_mask_validation_matches_the_pattern_comparison(monkeypatch):
    """On every 4-node hybrid graph g0, stage 2 raises InvalidPatternError
    exactly when the graph r its rules end in is no chain graph or has a
    pattern other than g0; a rule that demands a banned direction raises
    before r exists."""
    checks = {True: 0, False: 0}
    for g0 in all_hybrid_graphs("abcd"):
        ends = []
        with monkeypatch.context() as m:
            m.setattr(recovery, "is_chain_graph", lambda r: ends.append(r) or is_chain_graph(r))
            try:
                recover_largest(g0)
                raised = None
            except InvalidPatternError as exc:
                raised = str(exc)
        if not ends:
            assert raised and "which is banned" in raised, g0
            continue
        r, = ends
        invalid = not is_chain_graph(r) or pattern_of(r) != g0
        assert raised == ("input is not the pattern of a Markov-equivalence class"
                          if invalid else None), g0
        checks[invalid] += 1
    assert all(checks.values()), checks


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
