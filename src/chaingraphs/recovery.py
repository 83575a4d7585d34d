"""Two-stage structure recovery from a dependency model.

Stage 1 rebuilds the pattern of the (unknown) equivalence class from the
two predicate families "dependent for every Z" (``dep_all``) and
"dependent for every Z containing w" (``dep_plus``).  Level 0 lays down
the skeleton.  Level l >= 1 searches the current graph for the chordless
paths a, w1 - ... - wl, b whose ends are joined to the line path by a line
or an arrow into it, and directs a -> w1 and b -> wl where ``dep_plus``
holds given w1 and given wl.  The search is the one that enumerates
complexes, run on the working graph's line and arrow bitmasks.  It can
take exponential time, so it raises ``BoundExceededError`` past
``depmodel.MAX_WALK_SETS`` partial paths over all levels.

That walk asks up to 2^(n-2) queries per predicate.  A ``CGBackedModel``
is known to come from a chain graph, so it takes the PC route instead
(Spirtes, Glymour & Scheines): one query per pair given all other nodes
gives the moral graph ("total conditioning", Pellet & Elisseeff, JMLR 9,
2008), the skeleton is searched from it over the current
neighbourhoods, and each complex end is one query on the separator
recorded for its pair (as Ma, Xie & Geng, JMLR 9, 2008, do for LWF chain
graphs).  Its path search starts and ends only at the nodes of a
pair joined in the moral graph but not in the skeleton (a married pair),
since no other pair can demand an arrow.  Every other model keeps the
walk from every node, which is the paper's definition and what detects a
model that no chain graph induces.

Stage 2 turns the pattern into the largest chain graph of the class by
alternating orientation bans (transitivity principle) with line directing
(necessity and doublecycle principles); bans have priority.  Each rule's
search is a reachability question over d-steps (arrows, and lines walked
along their ban) answered by one mask breadth-first search (``_reach``).
Searching walks rather than simple routes gives the same answers on
states reached from a pattern: cutting a repeated loop out of a walk
leaves a walk of the same kind, unless the loop holds the free line, and
then cutting it leaves a directed pseudocycle through r0 -> r1 made of
arrows and banned lines, which such a state cannot hold.

Both stages run on one mutable mask working graph: per-node line, parent
and child bitmasks plus a ban mask per node.  Neighbours are visited in
ascending bit order, which is sorted label order, and the public
functions convert labels and ban pairs to masks at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count

from . import depmodel
from .complexes import BoundExceededError, _chordless_paths, _complex_parents
# unused here; bench/spans.py patches this name and cannot install without it
from .complexes import pattern_of  # noqa: F401
from .depmodel import CGBackedModel, DependencyModel, dep_all, dep_plus
from .graph import GraphError, HybridGraph, _bits, _reach, is_chain_graph

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
# the working graph shared by both stages

class _WorkingGraph:
    """Mutable mask copy of a hybrid graph with per-direction line bans.

    ``sib``, ``par`` and ``chi`` are per-node line, parent and child masks
    over ``nodes`` (sorted labels, so ascending bits follow label order).
    Bit v of ``ban[u]`` is the ban (u, v): no arrow v -> u.
    """

    __slots__ = ("nodes", "sib", "par", "chi", "ban")

    def __init__(self, nodes, sib, par, chi, ban):
        self.nodes = tuple(nodes)
        self.sib, self.par, self.chi, self.ban = list(sib), list(par), list(chi), list(ban)

    @classmethod
    def of(cls, g: HybridGraph, bans=()) -> _WorkingGraph:
        ban = [0] * len(g)
        for u, v in bans:
            ban[g.index_of(u)] |= 1 << g.index_of(v)
        return cls(g.nodes, g.sib_masks, g.par_masks, g.chi_masks, ban)

    def adj(self, u: int) -> int:
        return self.sib[u] | self.par[u] | self.chi[u]

    def d_step(self, u: int) -> int:
        """Nodes v with an arrow u -> v or a line u - v banned against v -> u."""
        return self.chi[u] | (self.sib[u] & self.ban[u])

    def direct(self, tail: int, head: int) -> None:
        """Turn the line tail - head into the arrow tail -> head."""
        self.sib[tail] &= ~(1 << head)
        self.sib[head] &= ~(1 << tail)
        self.chi[tail] |= 1 << head
        self.par[head] |= 1 << tail
        self.ban[tail] &= ~(1 << head)
        self.ban[head] &= ~(1 << tail)

    def to_graph(self) -> HybridGraph:
        return HybridGraph._of_masks(self.nodes, self.sib, self.par, self.chi)


# ---------------------------------------------------------------------------
# stage 1: pattern recovery

def recover_pattern(model: DependencyModel, trace=None) -> HybridGraph:
    """Reconstruct the pattern of the class inducing ``model``.

    Any model other than a ``CGBackedModel`` is read through ``dep_all``
    (the skeleton) and ``dep_plus`` (the complex ends), which is what
    raises ``PatternConflictError`` on a model no chain graph induces.

    A ``CGBackedModel`` is read as follows; the output is the same.  Its
    skeleton search raises ``BoundExceededError`` before it would ask more
    than ``depmodel.MAX_WALK_SETS`` queries, as the walk does before it
    would try more than that many sets.

    For every model, the level search raises ``BoundExceededError`` once
    it has taken up more than ``depmodel.MAX_WALK_SETS`` partial paths
    over all levels: the number of chordless paths can grow exponentially
    with the node count.

    *Skeleton* (``_pc_skeleton``).  Total conditioning comes first.  For
    <u, v | V - {u, v}> the ancestral set is V, so by the moralization
    criterion the pair is independent exactly when u and v are not
    adjacent in the moral graph G^m.  One query per pair therefore gives
    G^m, and V - {u, v} is recorded as the separator of each pair left
    out.  G^m contains the skeleton, and adj_m(u) contains bd(u).

    The PC search then runs from G^m.  Let u, v be non-adjacent in G.  If
    v is not reached from u along a path that leaves u's line component
    by an arrow, bd(u) separates them: in the moral graph of
    an(u, v, bd(u)) the neighbours of u are bd(u), because no child of u
    is an ancestor of v or of bd(u).  Otherwise u is not so reached from
    v, and bd(v) separates them.  An adjacent pair is dependent given
    every set, so the working skeleton keeps every true edge, adj(u) - v
    holds bd(u), and the search reaches the separating boundary unless it
    removed the edge before.

    *Nodes proven not anterior.*  The search keeps, per node x, the mask
    na[x] of nodes proven not to be in an(x), and uses it to ask fewer
    queries; the skeleton it finds is the same.
    - Fact A.  Let S separate a from b.  If w is in an(a, b, S), then
      S + w separates them too (shown under *Complex ends* below).  So a
      dependent D<a, b | S + w> proves that w is outside an(a, b, S), the
      union of an(x) over x in S + a + b.  After each removal on a PC
      separator S, the search asks this of each current neighbour w of a
      node x of S + a + b for which the fact is not yet known.
    - Fact B.  bd(x) lies in an(x), so it never meets na[x]:
      adj(x) - y - na[x] still holds bd(x), and the PC argument above
      goes through with that smaller pool.
    - Fact C.  If u is not in an(v), v is not reached from u at all, so by
      the case split above bd(u) separates a non-adjacent u, v, and v's
      pool need not be searched.
    - The side rule.  v's pool is dropped only while "v not in an(u)" is
      unknown, and u's pool symmetrically.  Facts only accumulate, so the
      side whose fact arrived first was never dropped before it and is
      never dropped after: it is searched at every size s and meets its
      boundary at s = |bd|.  If both facts arrive together, neither side
      is dropped.  Each of two other rules loses a true non-adjacency
      (``tests/test_stage1_pc.py`` pins one graph for each): dropping
      both pools once both facts hold, which never searches the pair
      above s = 0 again; and dropping a side whenever its own fact holds,
      so that when the second fact arrives at size s, the side searched
      from then on has never tried the sizes below s.

    *Complex ends* (``_separator_dependent``).  At a chordless path a, w1
    ... wl, b, with S the separator recorded for the non-adjacent a, b,
    end w is tested by the one query D<a, b | S + w>.  The ends of a
    complex are parents of the component that holds its interior, so they
    are adjacent in G^m.  If a and b are not, S = V - {a, b} already
    holds w: the query is the total-conditioning one and answers
    independent, and ``dep_plus(a, b, w)`` is false too, since S contains
    w and separates a from b.  Otherwise S is the PC search's separator.
    The query holds whenever ``dep_plus(a, b, w)`` does, since S + w
    contains w.  Conversely, if w is in an(a, b, S), the moral graph of
    an(a, b, S + w) is that of an(a, b, S), in which S + w separates a
    from b, so both are false; this holds for any separator S.  The
    remaining case, w outside an(a, b, S), is not proved here:
    ``tests/test_stage1_pc.py`` compares the two answers at both ends of
    every path stage 1 examines, on every 4-node chain graph, every
    5-node orbit representative (both criteria) and seeded draws at
    n = 6..12.

    By the first case, a path whose ends are not a married pair (a pair
    whose recorded S is not V - {a, b}) never demands an arrow.  So the
    path search starts and ends only at married nodes, the nodes of such
    pairs.  A path it drops has an end in no married pair.  The paths it
    keeps come in the same order as without the filter; the ends of one
    may still be two married nodes that are not a pair, and its query
    then answers independent, as above.

    Level-l directings are computed against the previous level in full
    before any is applied, so search order cannot matter.

    With ``trace`` given, a ``CGBackedModel`` reports the separator
    recorded for each non-adjacent pair, in sorted pair order, as one
    ``("separator", a, b, labels)`` event before the complex ends are
    searched.
    """
    nodes = sorted(model.nodes)
    n = len(nodes)
    full = married = (1 << n) - 1
    if isinstance(model, CGBackedModel):
        sib, sep = _pc_skeleton(model, n)
        married = 0  # the nodes of the pairs separated short of V - {a, b}
        for (a, b), z in sep.items():
            if z != full & ~(1 << a | 1 << b):
                married |= 1 << a | 1 << b
        if trace is not None:
            for a, b in sorted(sep):
                zs = tuple(nodes[i] for i in _bits(sep[a, b]))
                trace(("separator", nodes[a], nodes[b], zs))

        def complex_end(a, b, w):
            return _separator_dependent(model, sep, a, b, w)
    else:
        sib = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if dep_all(model, nodes[i], nodes[j]):
                    sib[i] |= 1 << j
                    sib[j] |= 1 << i

        def complex_end(a, b, w):
            return dep_plus(model, nodes[a], nodes[b], nodes[w])
    bound, expanded = depmodel.MAX_WALK_SETS, 0

    def expand():
        nonlocal expanded
        expanded += 1
        if expanded > bound:
            raise BoundExceededError(f"complex-end search over {n} nodes exceeds "
                                     f"the bound of {bound} path expansions")

    zeros = [0] * n
    w = _WorkingGraph(nodes, sib, zeros, zeros, zeros)
    adj = list(sib)  # directing keeps the skeleton

    for level in range(1, n - 1):
        ends = [(s | t) & married for s, t in zip(w.sib, w.par)]
        demands: set[tuple[int, int]] = set()
        for p in _chordless_paths(w.sib, ends, adj, full, level, expand):
            a, b = p[0], p[-1]
            # with one interior node p[1] is p[-2]: one query covers both ends
            if complex_end(a, b, p[1]) and (level == 1 or complex_end(a, b, p[-2])):
                demands.add((p[0], p[1]))
                demands.add((p[-1], p[-2]))
        _apply_level(w, demands)
    return w.to_graph()


def _pc_skeleton(model: CGBackedModel, n: int) -> tuple[list[int], dict[tuple[int, int], int]]:
    """The skeleton of the chain graph behind ``model``, as adjacency masks,
    and the separator found for each non-adjacent pair (u, v), u < v.

    Total conditioning first: each pair u < v is asked <u, v | V - {u, v}>
    once, and joined when dependent, which gives the moral graph.  Then the
    PC search from it: for s = 0, 1, ... and each still adjacent pair
    u < v, ask <u, v | Z> for the size-s subsets Z of adj(u) - v, then for
    those of adj(v) - u that are not subsets of adj(u), and drop the edge
    at the first independence.  It ends once no adjacent pair has s
    neighbours besides each other.

    Each pool leaves out na[x], the nodes proven not anterior to its node
    x (Fact B of ``recover_pattern``).  After a removal on separator z,
    D<u, v | z + w> is asked for each w outside z + u + v that is a
    current neighbour of some x there with w not yet in na[x], and a
    dependent answer adds w to na[x] for every x in z + u + v (Fact A).
    Once u is known not to be anterior to v, bd(u) separates the pair
    (Fact C), so v's pool is skipped, but only while the opposite fact is
    still unknown: the side searched never switches.  These queries count
    too: asking more than ``depmodel.MAX_WALK_SETS`` raises
    ``BoundExceededError``.
    """
    bound, asked = depmodel.MAX_WALK_SETS, 0

    def independent(u, v, z):
        nonlocal asked
        asked += 1
        if asked > bound:
            raise BoundExceededError(
                f"skeleton search over {n} nodes exceeds the bound of {bound} queries")
        return model.independent_mask(1 << u, 1 << v, z)

    full = (1 << n) - 1
    adj = [0] * n
    na = [0] * n  # bit w of na[x]: w is proven not anterior to x
    sep: dict[tuple[int, int], int] = {}
    for u in range(n):
        for v in range(u + 1, n):
            z = full & ~(1 << u | 1 << v)
            if independent(u, v, z):
                sep[u, v] = z
            else:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    for s in count():
        searched = False
        for u in range(n):
            for v in _bits(adj[u] >> (u + 1) << (u + 1)):
                u_out, v_out = na[v] >> u & 1, na[u] >> v & 1  # u not in an(v); v not in an(u)
                pool_u = 0 if v_out and not u_out else adj[u] & ~(1 << v | na[u])
                pool_v = 0 if u_out and not v_out else adj[v] & ~(1 << u | na[v])
                if pool_u.bit_count() < s and pool_v.bit_count() < s:
                    continue
                searched = True
                z = None
                for t in _subsets(pool_u, s):
                    if independent(u, v, t):
                        z = t
                        break
                if z is None:
                    for t in _subsets(pool_v, s):
                        if t & ~pool_u and independent(u, v, t):
                            z = t
                            break
                if z is not None:
                    adj[u] &= ~(1 << v)
                    adj[v] &= ~(1 << u)
                    sep[u, v] = z
                    # Fact A: D<u, v | z + w> puts w outside an(x) for each x
                    # in z + u + v; ask it of neighbours w of an x not yet known
                    xs, unknown = z | 1 << u | 1 << v, 0
                    for x in _bits(xs):
                        unknown |= adj[x] & ~na[x]
                    for w in _bits(unknown & ~xs):
                        if not independent(u, v, z | 1 << w):
                            for x in _bits(xs):
                                na[x] |= 1 << w
        if not searched:
            return adj, sep


def _subsets(pool: int, size: int):
    """The size-``size`` submasks of ``pool``, in ``combinations`` order."""
    return map(sum, combinations([1 << i for i in _bits(pool)], size))


def _separator_dependent(model: CGBackedModel, sep, a: int, b: int, w: int) -> bool:
    """D<a, b | S_ab + w> for the separator S_ab of the non-adjacent a < b."""
    return not model.independent_mask(1 << a, 1 << b, sep[a, b] | 1 << w)


def _apply_level(w: _WorkingGraph, demands) -> None:
    """Turn each demanded line tail -> head into an arrow, in sorted edge order,
    so that the first conflict reported does not depend on set order.
    """
    nodes = w.nodes
    for tail, head in sorted(demands, key=sorted):
        if (head, tail) in demands:
            key = tuple(sorted((nodes[tail], nodes[head])))
            raise PatternConflictError(f"line {key!r} demanded in both directions")
        if w.sib[tail] >> head & 1:
            w.direct(tail, head)
        elif not w.par[head] >> tail & 1:
            raise PatternConflictError(
                f"demanded arrow {nodes[tail]}->{nodes[head]} contradicts existing "
                f"{(nodes[head], nodes[tail])!r}")


# ---------------------------------------------------------------------------
# stage 2: annotated patterns and the rules

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


def _working(a: AnnotatedPattern | _WorkingGraph) -> _WorkingGraph:
    return a if isinstance(a, _WorkingGraph) else _WorkingGraph.of(a.graph, a.bans)


def _transpose(step: list[int]) -> list[int]:
    """The reversed relation: bit u of ``into[v]`` iff bit v of ``step[u]``."""
    into = [0] * len(step)
    for u, succ in enumerate(step):
        for v in _bits(succ):
            into[v] |= 1 << u
    return into


def _semislide_exists(w: _WorkingGraph, target: int, excluded: int,
                      banned_into: list[int]) -> bool:
    """Feasible semislide w1, ..., wk = target whose head step is a genuine
    arrow, with no edge between ``excluded`` and any of w1 .. w_{k-1}.

    Reach back from ``target`` along banned lines (``banned_into`` is
    ``_transpose(w.ban)``), outside the neighbours of ``excluded``; a
    reached node with a parent out there is the head.
    """
    avoid = w.adj(excluded) | 1 << excluded
    heads = 0
    for v in _bits(_reach(banned_into, 1 << target, avoid)):
        heads |= w.par[v]
    return bool(heads & ~avoid)


def feasible_semislide_exists(a: AnnotatedPattern, target: str,
                              excluded_neighbor: str) -> bool:
    """Transitivity-principle hypothesis test on an annotated pattern."""
    if target == excluded_neighbor:
        raise GraphError("target and excluded neighbor must be distinct")
    if not a.graph.is_line(target, excluded_neighbor):
        raise GraphError("expected a line between target and excluded neighbor")
    index, w = a.graph.index_of, _working(a)
    return _semislide_exists(w, index(target), index(excluded_neighbor), _transpose(w.ban))


def _transitivity(w: _WorkingGraph, trace=None) -> None:
    """Add every ban the transitivity principle forces, to a fixpoint.

    Sweeps the lines in order, testing each direction (x, y) not yet
    banned, until a sweep adds no ban.  The test of a target reads the bans
    only through its search back along banned lines.  A new ban (x, y)
    lets that search step from y to x, so it can change the test only for
    the targets whose search reaches y: the nodes that banned lines lead
    to from y, ``_reach(w.ban, 1 << y)``.  Those targets become dirty for
    the rest of the sweep and for the next one, and a pair is tested only
    while its target is dirty.  A pair skipped as clean would meet the same
    search as at its last test, which added no ban, so the bans and their
    order are those of re-testing every pair on every sweep.
    """
    banned_into = _transpose(w.ban)
    dirty = (1 << len(w.nodes)) - 1
    while dirty:
        now, dirty = dirty, 0
        for u in range(len(w.nodes)):
            for v in _bits(w.sib[u] & ~((2 << u) - 1)):  # each line once, as u < v
                for x, y in ((u, v), (v, u)):
                    if (now >> x & 1 and not w.ban[x] >> y & 1
                            and _semislide_exists(w, x, y, banned_into)):
                        w.ban[x] |= 1 << y
                        banned_into[y] |= 1 << x
                        touched = _reach(w.ban, 1 << y)
                        now |= touched
                        dirty |= touched
                        if trace is not None:
                            trace(("ban", w.nodes[x], w.nodes[y]))


def transitivity_fixpoint(a: AnnotatedPattern) -> AnnotatedPattern:
    w = _working(a)
    _transitivity(w)
    nodes = w.nodes
    bans = frozenset((nodes[u], nodes[v]) for u in range(len(nodes)) for v in _bits(w.ban[u]))
    return AnnotatedPattern(w.to_graph(), bans)


def _directing(w: _WorkingGraph, rule: str, found) -> Directing | None:
    """The found (tail, head, witness) as a Directing; a banned direction
    signals an invalid pattern.
    """
    if found is None:
        return None
    tail, head, witness = found
    nodes = w.nodes
    if w.ban[head] >> tail & 1:
        raise InvalidPatternError(
            f"{rule} demands {nodes[tail]}->{nodes[head]}, which is banned")
    return Directing(rule, nodes[tail], nodes[head], tuple(nodes[i] for i in witness))


def _necessity(w: _WorkingGraph):
    """Find a necessity-principle pseudocycle r0 -> r1 => a - b => r0."""
    n = len(w.nodes)
    d = [w.d_step(u) for u in range(n)]
    into = _transpose(d)
    for r0 in range(n):
        if not w.chi[r0]:
            continue
        back = _reach(into, 1 << r0)
        ends = 0  # nodes with a line into back
        for b in _bits(back):
            ends |= w.sib[b]
        if not ends:
            continue
        for r1 in _bits(w.chi[r0]):
            hit = _reach(d, 1 << r1, avoid=1 << r0) & ends
            if hit:
                a = (hit & -hit).bit_length() - 1
                line = w.sib[a] & back
                return (line & -line).bit_length() - 1, a, (r0, r1, a)
    return None


def necessity_step(a: AnnotatedPattern | _WorkingGraph) -> Directing | None:
    """One necessity-principle directing, or None.

    Accepts an :class:`AnnotatedPattern` or the mask working graph of
    :func:`recover_largest`.  For each arrow r0 -> r1 it reaches forward
    from r1 and back from r0 along d-steps; the first line a - b with a
    reached from r1 and b reaching r0 is directed b -> a.  The demanded
    direction being banned signals an invalid pattern.
    """
    w = _working(a)
    return _directing(w, "necessity", _necessity(w))


def _semislide_with_anchor(w: _WorkingGraph, r0: int, r1: int, rk: int) -> bool:
    """Feasible semislide s0, ..., sm = r1 with s0 != r0 and an index
    n <= m-1 where {rk, s_n} is an edge and no edge joins r0 to s0 .. s_n.

    The search enumerates simple paths, so it raises ``BoundExceededError``
    once it would expand more than ``depmodel.MAX_WALK_SETS`` of them.
    """
    near_r0, near_rk = w.adj(r0), w.adj(rk)
    bound, expanded = depmodel.MAX_WALK_SETS, 0

    def forward(step, seen, clear, qualified):
        # step: the moves out of the last node, a genuine arrow from s0 and
        # d-steps after it; clear: every node so far is nonadjacent to r0
        nonlocal expanded
        expanded += 1
        if expanded > bound:
            raise BoundExceededError(
                f"anchored semislide search exceeds the bound of {bound} path expansions")
        for nxt in _bits(step & ~seen):
            if nxt == r1:
                if qualified:
                    return True
                continue
            c = clear and not near_r0 >> nxt & 1
            if forward(w.d_step(nxt), seen | 1 << nxt, c,
                       qualified or (c and near_rk >> nxt & 1)):
                return True
        return False

    for s0 in range(len(w.nodes)):
        if s0 != r0:
            clear0 = not near_r0 >> s0 & 1
            if forward(w.chi[s0], 1 << s0, clear0, clear0 and near_rk >> s0 & 1):
                return True
    return False


def _doublecycle(w: _WorkingGraph):
    """Find a doublecycle-principle configuration: a prefix r0 -> r1 => last
    with a line last - rk - r0, and an anchored semislide into r1.
    """
    n = len(w.nodes)
    d = [w.d_step(u) for u in range(n)]
    for r0 in range(n):
        for r1 in _bits(w.chi[r0]):
            for rk in _bits(w.sib[r0]):
                last = _reach(d, 1 << r1, avoid=1 << r0 | 1 << rk) & w.sib[rk]
                if last and _semislide_with_anchor(w, r0, r1, rk):
                    return rk, (last & -last).bit_length() - 1, (r0, r1, rk)
    return None


def doublecycle_step(a: AnnotatedPattern | _WorkingGraph) -> Directing | None:
    """One doublecycle-principle directing, or None.

    Accepts an :class:`AnnotatedPattern` or the mask working graph of
    :func:`recover_largest`.  For each arrow r0 -> r1 and line r0 - rk it
    looks for a node last reached from r1 by d-steps that avoid r0 and rk,
    with a line last - rk, and then for an anchored semislide into r1; the
    line rk - last is directed rk -> last.
    """
    w = _working(a)
    return _directing(w, "doublecycle", _doublecycle(w))


_RULES = {"necessity": necessity_step, "doublecycle": doublecycle_step}


def recover_largest(g0: HybridGraph, order=("necessity", "doublecycle"),
                    trace=None) -> HybridGraph:
    """Stage 2: largest chain graph from a pattern.

    Loops ban-fixpoint, then one directing by the first applicable rule in
    ``order``, until neither rule fires.  The result is always validated:
    it must be a chain graph whose pattern equals the input, or
    :class:`InvalidPatternError` is raised.

    The pattern is compared on masks: directing keeps the skeleton, so the
    result's pattern and the input share their nodes and skeleton, and two
    such graphs are equal exactly when their parent masks are.  The
    result's pattern has the complex arrows as its parents
    (``_complex_parents``), so no second pattern graph is built.
    """
    for rule in order:
        if rule not in _RULES:
            raise ValueError(f"unknown rule {rule!r}")
    w = _WorkingGraph.of(g0)
    while True:
        _transitivity(w, trace)
        directing = None
        for rule in order:
            directing = _RULES[rule](w)
            if directing is not None:
                break
        if directing is None:
            break
        w.direct(w.nodes.index(directing.tail), w.nodes.index(directing.head))
        if trace is not None:
            trace((directing.rule, directing.tail, directing.head, directing.witness))
    result = w.to_graph()
    if not is_chain_graph(result) or _complex_parents(result) != g0.par_masks:
        raise InvalidPatternError("input is not the pattern of a Markov-equivalence class")
    return result


def recover_end_to_end(model: DependencyModel, **kwargs) -> HybridGraph:
    """Full recovery: pattern from predicates, then the largest chain graph."""
    return recover_largest(recover_pattern(model), **kwargs)
