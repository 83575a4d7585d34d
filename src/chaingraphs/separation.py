"""Both independence criteria for chain graphs.

The moralization criterion restricts the graph to the ancestral set of
X | Y | Z, joins the parents of every complex, forgets orientations, and
tests plain undirected separation.  The c-separation criterion instead
tests every trail between X and Y directly: a trail is separated when one
of its sections (maximal line runs) is blocked by Z.

Each criterion answers a query with linear searches on bitmasks.
``moralization_represented`` runs two: one climbs parents and lines from
X | Y | Z to the ancestral set A, then a breadth-first search inside A
runs in a moral graph with a virtual node standing for the parents of
each line component; the first is skipped when X | Y | Z is every node.
Per graph it builds only the virtual-node step lists, no ancestor or
descendant closures; the ascending step reaches a component's virtual
node exactly when the whole component lies in A.
``c_represented`` is one search over section starts, in the manner of
Bayes-ball: whether a section may end at a node depends only on where it
starts, how it was entered and how it is left, never on the rest of the
trail.  Both turn a triplet's labels into masks with
``Triplet.masks_over``, one lookup per label.  ``enumerate_trails``,
``sections_of`` and ``section_blocked`` are the literal definitions the
tests cross-check against.
"""

from __future__ import annotations

from dataclasses import dataclass

# complex_parent_pairs is unused here; bench/spans.py patches this name
from .complexes import complex_parent_pairs  # noqa: F401
from .graph import (
    EdgeKind,
    GraphError,
    HybridGraph,
    NotChainGraphError,
    _bits,
    _component_masks,
    _per_graph,
    _reach,
    components,
    is_chain_graph,
)
from .triplets import Triplet

__all__ = [
    "Trail",
    "Section",
    "moral_graph",
    "moral_graph_component_variant",
    "ug_separated",
    "moralization_represented",
    "enumerate_trails",
    "sections_of",
    "slides_to",
    "section_blocked",
    "c_represented",
]


# ---------------------------------------------------------------------------
# moralization criterion

def moral_graph(g: HybridGraph) -> HybridGraph:
    """Underlying graph plus a line joining the parents of every complex.

    Any two parents of a line component are adjacent or the parents of a
    complex (see ``_moral_steps``), so this joins every two parents of
    each line component.
    """
    if not is_chain_graph(g):
        raise NotChainGraphError("moral graph is defined for chain graphs")
    comp, comp_par = _component_masks(g)
    sib = [g.adj_mask(i) for i in range(len(g))]
    for i, p in enumerate(comp_par):
        if comp[i] & -comp[i] == 1 << i:
            for j in _bits(p):
                sib[j] |= p & ~(1 << j)
    return HybridGraph._of_masks(g.nodes, sib, [0] * len(g))


def moral_graph_component_variant(g: HybridGraph) -> HybridGraph:
    """Equivalent moralization: join the nonadjacent parents of every
    connectivity component, then forget orientations.
    """
    if not is_chain_graph(g):
        raise NotChainGraphError("moral graph is defined for chain graphs")
    edges = {pair: EdgeKind.LINE for pair in g.edges}
    for comp in components(g):
        par = set()
        for label in comp:
            par |= set(g.labels_of(g.par_masks[g.index_of(label)]))
        par = sorted(par)
        for i, u in enumerate(par):
            for v in par[i + 1:]:
                if not g.has_edge(u, v):
                    edges[(u, v)] = EdgeKind.LINE
    return HybridGraph(g.nodes, edges)


def ug_separated(u_graph: HybridGraph, t: Triplet) -> bool:
    """Undirected separation: every X-to-Y path meets Z."""
    if any(u_graph.par_masks):
        raise GraphError("ug_separated expects an all-line graph")
    xm, ym, zm = t.masks_over(u_graph)
    reach = _reach(u_graph.sib_masks, xm, zm, stop=ym)
    return not reach & ym


@_per_graph
def _moral_steps(g: HybridGraph) -> tuple[list[int], list[int]]:
    """(adjacency, ascending step) of the moral graph with virtual nodes.

    Any two parents of a line component are adjacent or the parents of a
    complex, so the moral graph joins them all.  Node n + k is a virtual
    node joined to the parents of the k-th component with two or more
    parents: a step through it stands for a moral line.

    ``up[j]`` holds j's parents and siblings and, for a real node j, the
    virtual bit of j's component; a virtual node's ``up`` is 0.  The nodes
    ``up`` reaches from a set S are the ancestral set of S, a union of
    whole components, plus the virtual bit of each component that lies
    in it: reaching one node of a component reaches all of it along lines,
    so ``up`` reaches the virtual bit exactly when the whole component
    lies in that set.  The build is these two lists, linear in the graph.
    """
    n = len(g)
    comp, comp_par = _component_masks(g)
    step = [g.adj_mask(i) for i in range(n)]
    up = [p | s for p, s in zip(g.par_masks, g.sib_masks)]
    for i in range(n):
        p = comp_par[i]
        if comp[i] & -comp[i] == 1 << i and p & (p - 1):
            bit = 1 << len(step)
            step.append(p)
            for j in _bits(p):
                step[j] |= bit
            for j in _bits(comp[i]):
                up[j] |= bit
    up += [0] * (len(step) - n)
    return step, up


def represented_mask(g: HybridGraph, xm: int, ym: int, zm: int) -> bool:
    """Moralization criterion on bitmask node sets (no validation).

    Two linear searches.  The first climbs ``up`` from X | Y | Z to the
    ancestral set A, with the virtual bits of the components inside it.
    The second is a breadth-first search from X in the virtual-node moral
    graph, kept out of Z and out of everything not in A, stopped at the
    first node of Y it reaches.  X, Y and Z are pairwise disjoint, as a
    ``Triplet`` guarantees.

    - *Adjacent pair.*  When X = {x} and some y in Y is adjacent to x in G,
      the answer is "connected" at once, before either search.  Both x and
      y lie in A, so their edge is an edge of the moral graph of G_A, and y
      is not in Z.  The test reads ``step[x]``, which holds x's neighbours
      in G plus virtual bits, and ``ym`` never holds a virtual bit.
    - *Early stop.*  The answer is only whether the search reaches Y.  Y
      lies in A and outside Z, so it never meets the avoided set, and the
      first Y node reached fixes the answer.
    - *Every node given.*  When X | Y | Z holds every node, A is the whole
      graph with every virtual node, and the first search is skipped.
      Stage 1 of recovery asks every pair so, given all other nodes, and
      there that search would expand every node to learn nothing.
    """
    return _moral_separated(*_moral_steps(g), (1 << len(g)) - 1, xm, ym, zm)


def _moral_separated(step: list[int], up: list[int], full: int,
                     xm: int, ym: int, zm: int) -> bool:
    """The body of ``represented_mask``, on the lists of ``_moral_steps``
    and the mask ``full`` of every node; a model that asks many queries
    of one graph binds the first three arguments once."""
    if xm.bit_count() == 1 and step[xm.bit_length() - 1] & ym:
        return False
    seed = xm | ym | zm
    a_mask = -1 if seed == full else _reach(up, seed)
    return not _reach(step, xm, zm | ~a_mask, stop=ym) & ym


def moralization_represented(g: HybridGraph, t: Triplet) -> bool:
    """The 3-step criterion: ancestral restriction, moralization, separation."""
    if not is_chain_graph(g):
        raise NotChainGraphError("moralization criterion is defined for chain graphs")
    return represented_mask(g, *t.masks_over(g))


# ---------------------------------------------------------------------------
# trails and sections

@dataclass(frozen=True)
class Trail:
    """A route along which no arrow repeats and each section's nodes are
    distinct.  Nodes may repeat across different sections.
    """

    graph: HybridGraph
    steps: tuple[str, ...]

    def __post_init__(self):
        g = self.graph
        if not self.steps:
            raise GraphError("empty trail")
        used = set()
        section = {self.steps[0]}
        for a, b in zip(self.steps, self.steps[1:]):
            kind = g.edge_kind(a, b)
            if kind is None:
                raise GraphError(f"trail step {(a, b)!r} is not an edge")
            if kind is EdgeKind.LINE:
                if b in section:
                    raise GraphError(f"section repeats node {b!r}")
                section.add(b)
            else:
                key = (a, b) if a < b else (b, a)
                if key in used:
                    raise GraphError(f"arrow {key!r} used twice")
                used.add(key)
                section = {b}


@dataclass(frozen=True)
class Section:
    """Maximal line run of a trail, with its delimiting arrow directions.

    ``left`` / ``right`` are 'in' (arrow into the section), 'out' (arrow
    emanating from the section), or 'end' (the trail stops there).
    """

    nodes: tuple[str, ...]
    left: str
    right: str

    @property
    def kind(self) -> str:
        incoming = (self.left == "in") + (self.right == "in")
        return ("tail-to-tail", "head-to-tail", "head-to-head")[incoming]

    @property
    def tail_terminals(self) -> tuple[str, ...]:
        """Terminal nodes whose delimiter is a trail end or an outgoing arrow."""
        out = []
        if self.left != "in":
            out.append(self.nodes[0])
        if self.right != "in" and self.nodes[-1] not in out:
            out.append(self.nodes[-1])
        return tuple(out)


def sections_of(trail: Trail) -> list[Section]:
    """The unique decomposition of a trail into its sections, in order."""
    g = trail.graph
    steps = trail.steps
    sections = []
    start = 0
    nodes = [steps[0]]
    left = "end"
    for i, (a, b) in enumerate(zip(steps, steps[1:])):
        if g.is_line(a, b):
            nodes.append(b)
            continue
        right = "out" if g.has_arrow(a, b) else "in"
        sections.append(Section(tuple(nodes), left, right))
        left = "in" if g.has_arrow(a, b) else "out"
        nodes = [b]
    sections.append(Section(tuple(nodes), left, "end"))
    return sections


def enumerate_trails(g: HybridGraph, x: str, y: str) -> list[Trail]:
    """Every trail from ``x`` to ``y``, in deterministic DFS order.

    A line extension is legal unless its target already lies in the current
    section; an arrow extension is legal unless that arrow is already used.
    """
    if x == y:
        raise GraphError("trail endpoints must differ")
    g.index_of(x)
    g.index_of(y)
    arcs_at: list[list[tuple[int, int]]] = [[] for _ in g.nodes]  # (arrow id, other end)
    for eid, (tail, head) in enumerate(sorted(g.arrows())):
        ti, hi = g.index_of(tail), g.index_of(head)
        arcs_at[ti].append((eid, hi))
        arcs_at[hi].append((eid, ti))
    for entries in arcs_at:
        entries.sort(key=lambda e: e[1])
    sib = g.sib_masks
    yi = g.index_of(y)
    nodes = g.nodes
    out: list[Trail] = []

    def dfs(cur: int, used: int, sec_mask: int, path: list[int]) -> None:
        if cur == yi:
            out.append(Trail(g, tuple(nodes[i] for i in path)))
        for j in _bits(sib[cur] & ~sec_mask):
            path.append(j)
            dfs(j, used, sec_mask | 1 << j, path)
            path.pop()
        for eid, other in arcs_at[cur]:
            if used >> eid & 1:
                continue
            path.append(other)
            dfs(other, used | 1 << eid, 1 << other, path)
            path.pop()

    xi = g.index_of(x)
    dfs(xi, 0, 1 << xi, [xi])
    return out


# ---------------------------------------------------------------------------
# slides and blocking

def slides_to(g: HybridGraph, u: str) -> list[tuple[str, ...]]:
    """All slides ending at ``u``: paths v1 -> v2 - v3 - ... - vk = u over
    distinct nodes, k >= 2, whose first step is an arrow and all later
    steps lines (k = 2 degenerates to a single arrow into u).
    """
    ui = g.index_of(u)
    nodes = g.nodes
    par, sib = g.par_masks, g.sib_masks
    out: list[tuple[str, ...]] = []

    # grow the line run backward from u, then head it with any arrow
    def back(path: list[int], path_mask: int) -> None:
        first = path[0]
        for p in _bits(par[first] & ~path_mask):
            out.append((nodes[p],) + tuple(nodes[i] for i in path))
        for s in _bits(sib[first] & ~path_mask):
            back([s] + path, path_mask | 1 << s)

    back([ui], 1 << ui)
    out.sort(key=lambda s: (len(s), s))
    return out


def section_blocked(g: HybridGraph, trail: Trail, section: Section, z) -> bool:
    """Whether ``section`` of ``trail`` is blocked by the node set ``z``.

    Head-to-head sections are blocked when no section node has a descendant
    in Z.  Other sections are blocked when they meet Z and some
    tail-terminal node u has every slide to u meeting Z (vacuously when no
    slide to u exists); a slide meets Z when any of its nodes, endpoints
    included, lies in Z.
    """
    if section not in sections_of(trail):
        raise GraphError("section does not belong to the trail")
    zm = g.mask_of(z)
    if section.kind == "head-to-head":
        return not any(zm & g.desc_masks[g.index_of(u)] for u in section.nodes)
    if not zm & g.mask_of(section.nodes):
        return False
    return any(all(zm & g.mask_of(s) for s in slides_to(g, u)) for u in section.tail_terminals)


# ---------------------------------------------------------------------------
# the c-separation criterion

def c_active_mask(g: HybridGraph, xm: int, ym: int, zm: int) -> bool:
    """True iff some trail from X to Y is active w.r.t. Z (mask level).

    A search over states (u, h): a section starts at u, entered by an
    arrowhead iff h.  It runs along lines to some v of u's component C and
    leaves by an arrow into v (next state: a parent of v, not h), out of v
    (a child of v, h), or stops at v in Y.  Which v keep it unblocked
    depends only on u, h and Z:

    - head-to-head: any v iff C has a descendant in Z (``desc`` steps along
      lines, so this holds for all of C or none of it);
    - otherwise it is blocked iff it meets Z and has a shielded tail
      terminal: one in Z, or whose Z-free line component has all its
      parents in Z (every slide to it meets Z).  Avoiding Z means staying
      in u's Z-free component F.  So without h, a shielded u confines the
      section to F; else it may leave into any v of C, and leave out of or
      stop at any unshielded v or any v of F.

    Each state is expanded once: linear in n, times the mask width.

    When X = {x} and x is adjacent to some y in Y, the answer is "active"
    at once, since X, Y and Z are pairwise disjoint and the one-edge trail
    x, y is active.  A line x - y is one section {x, y} whose two
    delimiters are trail ends: it is not head-to-head and does not meet Z,
    so it is not blocked.  An arrow gives two one-node sections {x} and
    {y}; neither is head-to-head (each has a trail end) and neither meets Z.
    """
    if xm.bit_count() == 1 and g.adj_mask(xm.bit_length() - 1) & ym:
        return True
    comp, comp_par = _component_masks(g)
    par, chi, sib, desc = g.par_masks, g.chi_masks, g.sib_masks, g.desc_masks
    free = {}       # node outside Z -> (its Z-free component, that part's parents)
    unshielded = {}  # component meeting Z -> its unshielded nodes
    n = len(g)
    # state bits: u for (u, False), n + u for (u, True); todo: not yet expanded
    seen = todo = xm
    while todo:
        low = todo & -todo
        todo ^= low
        u = low.bit_length() - 1
        h = u >= n
        if h:
            u -= n
        c = comp[u]
        # up: parents of the v the section may leave into; out: the v it
        # may leave out of or stop at
        up = comp_par[u]
        if not c & zm:  # only the head-to-head rule can block
            out = c
            if h and not desc[u] & zm:
                up = 0
        else:
            if c not in unshielded:
                opened = 0
                rest = c & ~zm
                while rest:
                    f = _reach(sib, rest & -rest, zm)
                    rest &= ~f
                    p = 0
                    for i in _bits(f):
                        p |= par[i]
                    for i in _bits(f):
                        free[i] = f, p
                    if p & ~zm:
                        opened |= f
                unshielded[c] = opened
            f, p = free.get(u, (0, 0))
            if h or p & ~zm:
                out = unshielded[c] | f
            else:  # u shielded: the section avoids Z
                out, up = f, p
        if out & ym:
            return True
        down = 0
        for v in _bits(out):
            down |= chi[v]
        new = (up | down << n) & ~seen
        seen |= new
        todo |= new
    return False


def c_represented(g: HybridGraph, t: Triplet) -> bool:
    """True iff every trail from X to Y has at least one blocked section."""
    if not is_chain_graph(g):
        raise NotChainGraphError("c-separation is defined for chain graphs")
    return not c_active_mask(g, *t.masks_over(g))
