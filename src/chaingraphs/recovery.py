"""Two-stage structure recovery from a dependency model.

Stage 1 rebuilds the pattern of the (unknown) equivalence class from the
two predicate families "dependent for every Z" (``dep_all``) and
"dependent for every Z containing w" (``dep_plus``).  Level 0 lays down
the skeleton.  Level l >= 1 searches the current graph for the chordless
paths a, w1 - ... - wl, b whose ends are joined to the line path by a line
or an arrow into it, and directs a -> w1 and b -> wl where ``dep_plus``
holds given w1 and given wl.  The search is the one that enumerates
complexes, run on the working graph's line and arrow bitmasks.

Stage 2 turns the pattern into the largest chain graph of the class by
alternating orientation bans (transitivity principle) with line directing
(necessity and doublecycle principles); bans have priority.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import _chordless_paths, pattern_of
from .depmodel import DependencyModel, dep_all, dep_plus
from .graph import EdgeKind, GraphError, HybridGraph, _bits, is_chain_graph

__all__ = [
    "PatternConflictError",
    "InvalidPatternError",
    "AnnotatedPattern",
    "Directing",
    "recover_pattern",
    "feasible_semislide_exists",
    "transitivity_fixpoint",
    "necessity_step",
    "doublecycle_step",
    "recover_largest",
    "recover_end_to_end",
]


class PatternConflictError(ValueError):
    """Stage-1 directings clashed; the model is not induced by a chain graph."""


class InvalidPatternError(ValueError):
    """Stage-2 input was not the pattern of a Markov-equivalence class."""


# ---------------------------------------------------------------------------
# stage 1: pattern recovery

def recover_pattern(model: DependencyModel) -> HybridGraph:
    """Reconstruct the pattern of the class inducing ``model``.

    Level-l directings are computed against the previous level in full
    before any is applied, so search order cannot matter.
    """
    nodes = sorted(model.nodes)
    n = len(nodes)
    # sib[i]: line neighbours of i; into[j]: tails of the arrows into j
    sib = [0] * n
    into = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dep_all(model, nodes[i], nodes[j]):
                sib[i] |= 1 << j
                sib[j] |= 1 << i
    adj = list(sib)  # directing keeps the skeleton

    for level in range(1, n - 1):
        ends = [s | t for s, t in zip(sib, into)]
        demands: set[tuple[int, int]] = set()
        for p in _chordless_paths(sib, ends, adj, (1 << n) - 1, level):
            a, b = nodes[p[0]], nodes[p[-1]]
            # with one interior node p[1] is p[-2]: one query covers both ends
            if dep_plus(model, a, b, nodes[p[1]]) and (
                    level == 1 or dep_plus(model, a, b, nodes[p[-2]])):
                demands.add((p[0], p[1]))
                demands.add((p[-1], p[-2]))
        _apply_level(nodes, sib, into, demands)

    edges = {}
    for j in range(n):
        for i in _bits(sib[j] & ((1 << j) - 1)):
            edges[(nodes[i], nodes[j])] = EdgeKind.LINE
        for i in _bits(into[j]):
            edges[(nodes[i], nodes[j])] = EdgeKind.ARROW_FORWARD
    return HybridGraph(nodes, edges)


def _apply_level(nodes, sib, into, demands) -> None:
    """Turn each demanded line tail -> head into an arrow, in sorted edge order,
    so that the first conflict reported does not depend on set order.
    """
    for tail, head in sorted(demands, key=sorted):
        if (head, tail) in demands:
            key = tuple(sorted((nodes[tail], nodes[head])))
            raise PatternConflictError(f"line {key!r} demanded in both directions")
        if sib[tail] >> head & 1:
            sib[tail] ^= 1 << head
            sib[head] ^= 1 << tail
            into[head] |= 1 << tail
        elif not into[head] >> tail & 1:
            raise PatternConflictError(
                f"demanded arrow {nodes[tail]}->{nodes[head]} contradicts existing "
                f"{(nodes[head], nodes[tail])!r}")


# ---------------------------------------------------------------------------
# stage 2: annotated patterns and the working state

@dataclass(frozen=True)
class AnnotatedPattern:
    """A hybrid graph whose lines may carry per-direction orientation bans.

    A ban ``(u, v)`` records that the line u - v may never be oriented as
    u <- v (no arrow from v to u) in the largest chain graph.
    """

    graph: HybridGraph
    bans: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self):
        for u, v in self.bans:
            if not self.graph.is_line(u, v):
                raise GraphError(f"ban {(u, v)!r} does not refer to a line")


@dataclass(frozen=True)
class Directing:
    """One line converted to the arrow tail -> head by a named rule."""

    rule: str
    tail: str
    head: str
    witness: tuple = ()


class _State:
    """Mutable working copy of an annotated pattern."""

    def __init__(self, g: HybridGraph, bans=()):
        self.nodes = list(g.nodes)
        self.state: dict[tuple[str, str], object] = {}
        for (u, v), k in g.edges.items():
            if k is EdgeKind.LINE:
                self.state[(u, v)] = "line"
            elif k is EdgeKind.ARROW_FORWARD:
                self.state[(u, v)] = (u, v)
            else:
                self.state[(u, v)] = (v, u)
        self.bans: set[tuple[str, str]] = set(bans)
        self.neighbors: dict[str, list[str]] = {u: [] for u in self.nodes}
        for u, v in self.state:
            self.neighbors[u].append(v)
            self.neighbors[v].append(u)
        for lst in self.neighbors.values():
            lst.sort()

    def _key(self, a, b):
        return (a, b) if a < b else (b, a)

    def adjacent(self, a, b):
        return self._key(a, b) in self.state

    def is_line(self, a, b):
        return self.state.get(self._key(a, b)) == "line"

    def is_arrow(self, tail, head):
        return self.state.get(self._key(tail, head)) == (tail, head)

    def d_step(self, a, b):
        """Arrow a -> b, or line a - b banned against the a <- b orientation."""
        value = self.state.get(self._key(a, b))
        if value == (a, b):
            return True
        return value == "line" and (a, b) in self.bans

    def lines(self):
        return sorted(k for k, v in self.state.items() if v == "line")

    def direct(self, d: Directing) -> None:
        key = self._key(d.tail, d.head)
        assert self.state[key] == "line"
        if (d.head, d.tail) in self.bans:
            raise InvalidPatternError(
                f"{d.rule} demands {d.tail}->{d.head}, which is banned")
        self.state[key] = (d.tail, d.head)
        self.bans.discard((d.tail, d.head))
        self.bans.discard((d.head, d.tail))

    def snapshot(self) -> AnnotatedPattern:
        return AnnotatedPattern(self.to_graph(), frozenset(self.bans))

    def to_graph(self) -> HybridGraph:
        edges = {}
        for key, value in self.state.items():
            if value == "line":
                edges[key] = EdgeKind.LINE
            else:
                tail, _ = value
                edges[key] = EdgeKind.ARROW_FORWARD if tail == key[0] else EdgeKind.ARROW_BACKWARD
        return HybridGraph(self.nodes, edges)


def _semislide_exists(st: _State, target: str, excluded: str) -> bool:
    """Feasible semislide w1, ..., wk = target whose head step is a genuine
    arrow, with no edge between ``excluded`` and any of w1 .. w_{k-1}.

    Backward simple-path search over the auxiliary directed relation; a
    repeated node never enables a new head, so simple paths suffice.
    """
    seen = {target}

    def back(cur: str) -> bool:
        for u in st.neighbors[cur]:
            if u in seen or u == excluded or st.adjacent(u, excluded):
                continue
            if st.is_arrow(u, cur):
                return True
            if st.d_step(u, cur):  # banned line traversed forward
                seen.add(u)
                if back(u):
                    return True
        return False

    return back(target)


def feasible_semislide_exists(a: AnnotatedPattern, target: str,
                              excluded_neighbor: str) -> bool:
    """Transitivity-principle hypothesis test on an annotated pattern."""
    if target == excluded_neighbor:
        raise GraphError("target and excluded neighbor must be distinct")
    if not a.graph.is_line(target, excluded_neighbor):
        raise GraphError("expected a line between target and excluded neighbor")
    return _semislide_exists(_State(a.graph, a.bans), target, excluded_neighbor)


def _transitivity(st: _State, trace=None) -> None:
    """Add every ban the transitivity principle forces, to a fixpoint."""
    changed = True
    while changed:
        changed = False
        for u, v in st.lines():
            for x, y in ((u, v), (v, u)):
                if (x, y) in st.bans:
                    continue
                if _semislide_exists(st, x, y):
                    st.bans.add((x, y))
                    changed = True
                    if trace is not None:
                        trace(("ban", x, y))


def transitivity_fixpoint(a: AnnotatedPattern) -> AnnotatedPattern:
    st = _State(a.graph, a.bans)
    _transitivity(st)
    return st.snapshot()


def _necessity(st: _State, limit: int) -> Directing | None:
    """Find a necessity-principle pseudocycle; ``limit`` caps node visits."""
    nodes = st.nodes
    max_steps = 2 * len(nodes) + 2

    for r0 in nodes:
        for r1 in st.neighbors[r0]:
            if not st.is_arrow(r0, r1):
                continue
            counts = {r1: 1}

            def walk(cur: str, steps: int, designated) -> Directing | None:
                if steps > max_steps:
                    return None
                for nxt in st.neighbors[cur]:
                    d_ok = st.d_step(cur, nxt)
                    line_ok = designated is None and st.is_line(cur, nxt)
                    if nxt == r0:
                        if steps + 1 >= 3:
                            if d_ok and designated is not None:
                                a, b = designated
                                return Directing("necessity", b, a, (r0, r1, cur))
                            if line_ok:
                                return Directing("necessity", r0, cur, (r0, r1, cur))
                        continue
                    if counts.get(nxt, 0) >= limit:
                        continue
                    counts[nxt] = counts.get(nxt, 0) + 1
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


def necessity_step(a: AnnotatedPattern | _State) -> Directing | None:
    """One necessity-principle directing, or None.

    Searches simple pseudocycles first, then widens to routes visiting each
    node at most twice.  The demanded direction being banned signals an
    invalid pattern.
    """
    st = a if isinstance(a, _State) else _State(a.graph, a.bans)
    found = _necessity(st, 1) or _necessity(st, 2)
    if found and (found.head, found.tail) in st.bans:
        raise InvalidPatternError(f"necessity demands {found.tail}->{found.head}, which is banned")
    return found


def _semislide_with_anchor(st: _State, r0: str, r1: str, rk: str) -> bool:
    """Feasible semislide s0, ..., sm = r1 with s0 != r0 and an index
    n <= m-1 where {rk, s_n} is an edge and no edge joins r0 to s0 .. s_n.
    """

    def forward(cur, seen, clear, qualified):
        # clear: every node so far is nonadjacent to r0
        for nxt in st.neighbors[cur]:
            if not st.d_step(cur, nxt) or nxt in seen:
                continue
            if nxt == r1:
                if qualified:
                    return True
                continue
            if forward(nxt, seen | {nxt}, clear and not st.adjacent(nxt, r0),
                       qualified or (clear and not st.adjacent(nxt, r0)
                                     and st.adjacent(rk, nxt))):
                return True
        return False

    for s0 in st.nodes:
        if s0 == r0:
            continue
        clear0 = not st.adjacent(s0, r0)
        qualified0 = clear0 and st.adjacent(rk, s0)
        for s1 in st.neighbors[s0]:
            if not st.is_arrow(s0, s1):
                continue
            if s1 == r1:
                if qualified0:
                    return True
                continue
            if forward(s1, {s0, s1},
                       clear0 and not st.adjacent(s1, r0),
                       qualified0 or (clear0 and not st.adjacent(s1, r0)
                                      and st.adjacent(rk, s1))):
                return True
    return False


def _doublecycle(st: _State, limit: int) -> Directing | None:
    """Find a doublecycle-principle configuration; ``limit`` caps visits
    on the pseudocycle prefix.
    """
    max_steps = 2 * len(st.nodes) + 2

    for r0 in st.nodes:
        for r1 in st.neighbors[r0]:
            if not st.is_arrow(r0, r1):
                continue
            counts = {r0: 1, r1: 1}

            def walk(path: list[str]) -> Directing | None:
                last = path[-1]
                for rk in st.neighbors[last]:
                    if (st.is_line(last, rk) and st.is_line(rk, r0)
                            and counts.get(rk, 0) == 0 and len(path) >= 2):
                        if _semislide_with_anchor(st, r0, path[1], rk):
                            return Directing("doublecycle", rk, last, (r0, path[1], rk))
                if len(path) >= max_steps:
                    return None
                for nxt in st.neighbors[last]:
                    if not st.d_step(last, nxt) or counts.get(nxt, 0) >= limit:
                        continue
                    counts[nxt] = counts.get(nxt, 0) + 1
                    found = walk(path + [nxt])
                    if found:
                        return found
                    counts[nxt] -= 1
                return None

            found = walk([r0, r1])
            if found:
                return found
    return None


def doublecycle_step(a: AnnotatedPattern | _State) -> Directing | None:
    """One doublecycle-principle directing, or None."""
    st = a if isinstance(a, _State) else _State(a.graph, a.bans)
    found = _doublecycle(st, 1) or _doublecycle(st, 2)
    if found and (found.head, found.tail) in st.bans:
        raise InvalidPatternError(
            f"doublecycle demands {found.tail}->{found.head}, which is banned")
    return found


_RULES = {"necessity": necessity_step, "doublecycle": doublecycle_step}


def recover_largest(g0: HybridGraph, order=("necessity", "doublecycle"),
                    trace=None, validate: bool = True) -> HybridGraph:
    """Stage 2: largest chain graph from a pattern.

    Loops ban-fixpoint, then one directing by the first applicable rule in
    ``order``, until neither rule fires.  Validation is post hoc: the
    result must be a chain graph whose pattern equals the input.
    """
    for rule in order:
        if rule not in _RULES:
            raise ValueError(f"unknown rule {rule!r}")
    st = _State(g0)
    while True:
        _transitivity(st, trace)
        directing = None
        for rule in order:
            directing = _RULES[rule](st)
            if directing is not None:
                break
        if directing is None:
            break
        st.direct(directing)
        if trace is not None:
            trace((directing.rule, directing.tail, directing.head, directing.witness))
    result = st.to_graph()
    if validate:
        if not is_chain_graph(result) or pattern_of(result) != g0:
            raise InvalidPatternError("input is not the pattern of a Markov-equivalence class")
    return result


def recover_end_to_end(model: DependencyModel, **kwargs) -> HybridGraph:
    """Full recovery: pattern from predicates, then the largest chain graph."""
    return recover_largest(recover_pattern(model), **kwargs)
