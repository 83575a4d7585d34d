"""Complexes, patterns, Markov equivalence, and brute-force class oracles.

A complex is an induced subgraph u -> w1 - ... - wr <- v: two arrows into a
line path, nonadjacent endpoints, and no further edges among its nodes.
Two chain graphs are Markov equivalent iff they share the underlying graph
and the complex set; the pattern keeps exactly the complex arrows directed.

The pattern and the equivalence test never list complexes.  Which arrows
start or end a complex is one mask test per parent of a one-node
component and one reachability search per pair of nonadjacent parents of
a larger line component (``_complex_parents``), and two
chain graphs with the same skeleton and the same complex arrows have the
same complexes (``markov_equivalent``); stage 2 of recovery checks its
result on ``_complex_parents`` alone, and so does ``equivalence_class``
on each member it builds.  The chordless paths themselves, which can take
exponential time to list, are still listed by ``enumerate_complexes`` and
``complex_parent_pairs``; by ``equivalence_class`` and the class oracles
built on it, once per call, as the chordless skeleton paths its prune
checks; and by stage 1 of recovery (``recovery.recover_pattern``), which
directs complex ends with ``_chordless_paths``, one level of path length
at a time, and stops at the first level no partial path goes beyond.  For
a model backed by a chain graph it walks only between married nodes, the
nonadjacent parents of one line component; for any other model it walks
from every node.  Either way it stops at a bound on the partial paths it
takes up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import (GraphError, HybridGraph, NotChainGraphError, _bits, _component_masks,
                    _reach, _transpose, is_chain_graph)

__all__ = [
    "Complex",
    "BoundExceededError",
    "enumerate_complexes",
    "pattern_of",
    "markov_equivalent",
    "is_larger",
    "equivalence_class",
    "largest_cg_oracle",
]


class BoundExceededError(ValueError):
    pass


@dataclass(frozen=True)
class Complex:
    """A complex, stored canonically: the smaller-labelled parent first."""

    path: tuple[str, ...]

    def __post_init__(self):
        if len(self.path) < 3:
            raise GraphError("complex path needs at least 3 nodes")
        if self.path[0] > self.path[-1]:
            object.__setattr__(self, "path", tuple(reversed(self.path)))

    @property
    def parents(self) -> tuple[str, str]:
        return (self.path[0], self.path[-1])

    @property
    def region(self) -> tuple[str, ...]:
        return self.path[1:-1]

    @property
    def degree(self) -> int:
        return len(self.path) - 2

    def __repr__(self) -> str:
        inner = " - ".join(self.region)
        return f"Complex({self.path[0]} -> {inner} <- {self.path[-1]})"


def _chordless_paths(sib: list[int], ends: list[int], adj: list[int], mask: int,
                     length: int | None = None, expand=None,
                     deeper=None) -> Iterator[tuple[int, ...]]:
    """Chordless paths (a, w1, ..., wl, b) of the induced subgraph on ``mask``.

    w1 - ... - wl is a line path (``sib``), a is in ``ends[w1]`` and b in
    ``ends[wl]``, a < b, and no two nonconsecutive nodes are adjacent
    (``adj``); ``length`` fixes l.  Index order follows label order, so
    a < b is label canonicalization.  ``expand``, when given, is called
    once per partial path a, w1, ... taken up, and may raise to end the
    search.  ``deeper``, when given with ``length``, is called once if
    some partial path a, w1, ..., wl goes on by a line to a w(l+1): a
    partial path one node longer exists.
    """
    for w in _bits(mask):
        for a in _bits(ends[w] & mask):
            # blocked: nodes on the path, or adjacent to one before its last
            stack = [((w,), (1 << a) | adj[a])]
            while stack:
                path, blocked = stack.pop()
                if expand is not None:
                    expand()
                last = path[-1]
                free = mask & ~blocked
                if length is None or len(path) == length:
                    for b in _bits(ends[last] & free & ~((2 << a) - 1)):
                        yield (a, *path, b)
                if length is None or len(path) < length:
                    blocked |= adj[last]
                    for x in _bits(sib[last] & free):
                        stack.append(((*path, x), blocked))
                elif deeper is not None and sib[last] & free:
                    deeper()
                    deeper = None


def enumerate_complexes(g: HybridGraph) -> list[Complex]:
    """All complexes of ``g``, canonically oriented, deterministically sorted."""
    adj = [g.adj_mask(i) for i in range(len(g))]
    paths = _chordless_paths(g.sib_masks, g.par_masks, adj, (1 << len(g)) - 1)
    out = [Complex(tuple(g.nodes[i] for i in p)) for p in paths]
    out.sort(key=lambda c: (c.parents, c.region))
    return out


def complex_parent_pairs(g: HybridGraph, mask: int | None = None) -> list[tuple[int, int]]:
    """Parent index pairs of every complex of the induced subgraph on ``mask``."""
    if mask is None:
        mask = (1 << len(g)) - 1
    adj = [g.adj_mask(i) for i in range(len(g))]
    return sorted({(p[0], p[-1]) for p in _chordless_paths(g.sib_masks, g.par_masks, adj, mask)})


def _complex_parents(g: HybridGraph) -> list[int]:
    """Per node x, the mask of the nodes a whose arrow a -> x is a complex
    arrow of the chain graph ``g``: the first or last arrow of a complex.

    Each line component τ with two or more parents is handled once.  A
    one-node component {x} holds only complexes a -> x <- b, so a -> x is
    a complex arrow exactly when a has a co-parent b in pa(x) not
    adjacent to it: one mask test per parent, with no pair loop.  A larger
    τ is handled one pair a < b of nonadjacent parents at a time.  Every x
    in ch(a) ∩ ch(b) ∩ τ gives a -> x and b -> x.  Let R be the nodes that
    lines reach from ch(b) ∩ τ − ch(a) without entering ch(a) ∪ ch(b).
    Every w in ch(a) ∩ τ − ch(b) with a line into R gives a -> w, and b
    gets the same with a and b swapped.

    Why this finds exactly the complex arrows:

    - A complex a -> w1 - ... - wl <- b has w1 in ch(a), wl in ch(b), and
      a, b nonadjacent parents of the component τ of its line path.  It is
      chordless, so its interior w2 ... wl-1 lies in τ outside
      ch(a) ∪ ch(b).  The case l = 1 is x in ch(a) ∩ ch(b), the only case
      a one-node τ has.
    - Conversely, take a line path from w in ch(a) − ch(b) to ch(b) − ch(a)
      whose inner nodes avoid ch(a) ∪ ch(b).  A shortest such path is
      chordless, because a chord would give a shorter path under the same
      constraints.
    - A parent of τ meets τ only by arrows out of it: a line, or an arrow
      back into it, would close a directed pseudocycle.  So a and b touch
      the path only at its ends, and a, path, b is a complex.
    """
    sib, par, chi = g.sib_masks, g.par_masks, g.chi_masks
    comp, comp_par = _component_masks(g)
    out = [0] * len(g)
    for i, c in enumerate(comp):
        p = comp_par[i]
        if not p & (p - 1) or c & -c != 1 << i:
            continue  # under two parents, or not the component's lowest node
        if c == 1 << i:
            for a in _bits(p):
                if p & ~(sib[a] | par[a] | chi[a] | 1 << a):
                    out[i] |= 1 << a
            continue
        for a in _bits(p):
            ch_a = chi[a] & c
            for b in _bits(p & ~(sib[a] | par[a] | chi[a]) & ~((2 << a) - 1)):
                ch_b = chi[b] & c
                for x in _bits(ch_a & ch_b):
                    out[x] |= (1 << a) | (1 << b)
                only_a, only_b = ch_a & ~ch_b, ch_b & ~ch_a
                if not only_a or not only_b:
                    continue
                avoid = ch_a | ch_b
                reach = _reach(sib, only_b, avoid)
                hit = False
                for w in _bits(only_a):
                    if sib[w] & reach:
                        out[w] |= 1 << a
                        hit = True
                if hit:  # otherwise no such path joins the two sides
                    reach = _reach(sib, only_a, avoid)
                    for w in _bits(only_b):
                        if sib[w] & reach:
                            out[w] |= 1 << b
    return out


def pattern_of(g: HybridGraph) -> HybridGraph:
    """Underlying graph with exactly the complex arrows restored.

    The result need not be a chain graph.  Each node's line mask is its
    skeleton mask less its complex arrows, in and out.
    """
    if not is_chain_graph(g):
        raise NotChainGraphError("pattern is defined for chain graphs only")
    par = _complex_parents(g)
    chi = _transpose(par)
    sib = [(s | p | c) & ~(q | k) for s, p, c, q, k in
           zip(g.sib_masks, g.par_masks, g.chi_masks, par, chi)]
    return HybridGraph._of_masks(g.nodes, sib, par, chi)


def markov_equivalent(g: HybridGraph, h: HybridGraph) -> bool:
    """Purely graphical test: same underlying graph and same complexes,
    decided by comparing the two patterns.

    Lemma: two chain graphs with the same skeleton and the same complex
    arrows have the same complexes.  Take a complex
    κ = a -> w1 - ... - wl <- b of g.  Its two arrows are complex arrows,
    so h has them.  Suppose some inner edge of κ is an arrow in h.  The
    first such arrow from the left cannot point left, or
    a -> w1 - ... - wi <- wi+1 is a complex of h; by symmetry the last one
    cannot point right.  So a right-pointing arrow is followed, after lines
    only, by a left-pointing one, and together they form a complex of h.
    Each of its arrows is then a complex arrow of h but a line in g's
    pattern, a contradiction.  So κ is a complex of h, and the converse
    holds by symmetry.
    """
    if g.nodes != h.nodes:
        raise GraphError("graphs are over different node sets")
    if not is_chain_graph(g) or not is_chain_graph(h):
        raise NotChainGraphError("Markov equivalence is defined for chain graphs")
    return pattern_of(g) == pattern_of(h)


def is_larger(h: HybridGraph, g: HybridGraph) -> bool:
    """True iff ``g`` is at least as large as ``h`` (written h < g):
    every arrow of ``g`` is an arrow of ``h`` with the same orientation.
    """
    if g.nodes != h.nodes or any(g.adj_mask(i) != h.adj_mask(i) for i in range(len(g))):
        raise GraphError("graphs must share node set and underlying graph")
    return not any(x & ~y for x, y in zip(g.chi_masks, h.chi_masks))


def equivalence_class(g: HybridGraph, max_edges: int = 12) -> list[HybridGraph]:
    """Brute-force oracle: all chain graphs Markov equivalent to ``g``.

    A depth-first search over the lines of the pattern (the complex arrows
    stay pinned) gives each line a kind in turn: line, forward arrow,
    backward arrow.  A branch is cut as soon as its assigned edges hold a
    directed pseudocycle, or once every edge of a chordless skeleton path
    is assigned and the path is a complex in one of ``g`` and the branch
    but not in the other.  Members come out in lexicographic order of
    their kind assignments, first pattern line most significant; the
    result always contains ``g``.

    - *Pseudocycles.*  The pinned arrows are arrows of ``g``, so they hold
      none, and no accepted branch holds one; a new one must use the edge
      just set.  A new arrow t -> h closes one exactly when t is in
      desc(h), one reachability search along children and lines.  A new
      line i - j closes one exactly when some arrow lies inside
      desc(i) ∩ anc(i).  Both step lists are kept in step with the branch.
    - *Path flags.*  The chordless skeleton paths are listed once per call.
      Such a path is a complex of ``g`` exactly when its end edges are
      arrows into it and its inner edges lines (``_is_complex``), so
      ``g``'s complexes are never listed.
    - *Leaves.*  A leaf is a chain graph, since every branch that holds a
      directed pseudocycle was cut.  Each leaf is still built and kept only
      if its complex arrows (``_complex_parents``) are the pattern's
      arrows.  The leaf shares ``g``'s skeleton, so by the lemma in
      ``markov_equivalent`` that is the same as having ``g``'s complexes.
    """
    if not is_chain_graph(g):
        raise NotChainGraphError("equivalence class is defined for chain graphs")
    if len(g.edges) > max_edges:
        raise BoundExceededError(f"{len(g.edges)} edges exceeds bound {max_edges}")
    pat = pattern_of(g)
    n = len(g)
    ends = [(i, j) for i in range(n) for j in _bits(pat.sib_masks[i] & ~((2 << i) - 1))]
    # each chordless skeleton path is checked once its last free edge is
    # set; a path of pinned arrows only is a complex as it is in g
    position = {pair: p for p, pair in enumerate(ends)}
    adj = [g.adj_mask(i) for i in range(n)]
    checks: list[list[tuple[tuple[int, ...], bool]]] = [[] for _ in ends]
    for path in _chordless_paths(adj, adj, adj, (1 << n) - 1):
        last = max(position.get((min(x, y), max(x, y)), -1) for x, y in zip(path, path[1:]))
        if last >= 0:
            checks[last].append((path, _is_complex(path, g.sib_masks, g.par_masks)))
    # the assigned edges as masks, starting from the pinned arrows, and the
    # descending (children and lines) and ascending (parents and lines) steps
    sib = [0] * n
    par = list(pat.par_masks)
    chi = list(pat.chi_masks)
    down = list(chi)
    up = list(par)
    members = []
    choice = [-1] * len(ends)  # kind index set at each position, -1 for none
    pos = 0
    while pos >= 0:
        if pos == len(ends):
            cand = HybridGraph._of_masks(g.nodes, sib, par, chi)
            if _complex_parents(cand) == pat.par_masks:
                members.append(cand)
            pos -= 1
            continue
        i, j = ends[pos]
        c = choice[pos]
        if c >= 0:
            _toggle(sib, par, chi, down, up, i, j, c)
        c += 1
        if c == 3:  # all three kinds tried
            choice[pos] = -1
            pos -= 1
            continue
        choice[pos] = c
        _toggle(sib, par, chi, down, up, i, j, c)
        if c == 0:  # a new pseudocycle passes i, so an arrow lies in desc(i) & anc(i)
            loop = _reach(down, 1 << i) & _reach(up, 1 << i)
            if any(chi[t] & loop for t in _bits(loop)):
                continue
        else:  # t -> h closes a pseudocycle exactly when t is in desc(h)
            tail, head = (i, j) if c == 1 else (j, i)
            if _reach(down, 1 << head, stop=1 << tail) >> tail & 1:
                continue
        if all(_is_complex(p, sib, par) == want for p, want in checks[pos]):
            pos += 1
    assert g in members
    return members


def _toggle(sib: list[int], par: list[int], chi: list[int], down: list[int], up: list[int],
            i: int, j: int, c: int) -> None:
    """Add, or remove again, the edge i, j of kind index ``c``: 0 the line,
    1 the arrow i -> j, 2 the arrow j -> i.  ``down`` and ``up`` are the
    child-or-line and parent-or-line masks."""
    if c == 0:
        for x, bit in ((i, 1 << j), (j, 1 << i)):
            sib[x] ^= bit
            down[x] ^= bit
            up[x] ^= bit
    else:
        tail, head = (i, j) if c == 1 else (j, i)
        chi[tail] ^= 1 << head
        down[tail] ^= 1 << head
        par[head] ^= 1 << tail
        up[head] ^= 1 << tail


def _is_complex(path: tuple[int, ...], sib: list[int], par: list[int]) -> bool:
    """Whether the chordless path (a, w1, ..., wl, b) is a complex: arrows
    a -> w1 and b -> wl, and lines along w1 - ... - wl."""
    return bool(par[path[1]] >> path[0] & par[path[-2]] >> path[-1] & 1) and all(
        sib[x] >> y & 1 for x, y in zip(path[1:-2], path[2:-1]))


def largest_cg_oracle(g: HybridGraph, max_edges: int = 12) -> HybridGraph:
    """Brute-force largest chain graph of the class of ``g``.

    The member whose arrow set is exactly the arrows oriented identically
    in every member, the AND of the members' child masks; its existence
    is asserted, not assumed.
    """
    members = equivalence_class(g, max_edges=max_edges)
    common = members[0].chi_masks
    for member in members[1:]:
        common = [x & y for x, y in zip(common, member.chi_masks)]
    for member in members:
        if member.chi_masks == common:
            return member
    raise AssertionError("no class member carries exactly the common arrows")
