"""Both independence criteria for chain graphs.

The moralization criterion restricts the graph to the ancestral set of
X | Y | Z, joins the parents of every complex, forgets orientations, and
tests plain undirected separation.  The c-separation criterion instead
tests every trail between X and Y directly: a trail is separated when one
of its sections (maximal line runs) is blocked by Z.

``c_represented`` searches for an active trail depth-first and prunes any
branch as soon as a completed section is blocked, since a blocked section
separates every trail extending the prefix.  ``enumerate_trails`` is the
literal, unpruned enumerator the tests cross-check against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import complex_parent_pairs, enumerate_complexes
from .graph import (
    EdgeKind,
    GraphError,
    HybridGraph,
    NotChainGraphError,
    _bits,
    _reach,
    components,
    is_chain_graph,
    underlying,
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
    """Underlying graph plus a line joining the parents of every complex."""
    if not is_chain_graph(g):
        raise NotChainGraphError("moral graph is defined for chain graphs")
    edges = {pair: EdgeKind.LINE for pair in g.edges}
    for cpx in enumerate_complexes(g):
        u, v = cpx.parents
        edges[(u, v) if u < v else (v, u)] = EdgeKind.LINE
    return HybridGraph(g.nodes, edges)


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
    if any(kind is not EdgeKind.LINE for kind in u_graph.edges.values()):
        raise GraphError("ug_separated expects an all-line graph")
    t.validate_over(u_graph.nodes)
    reach = _reach(u_graph.sib_masks, u_graph.mask_of(t.X), u_graph.mask_of(t.Z))
    return not reach & u_graph.mask_of(t.Y)


def _moral_adj(g: HybridGraph, a_mask: int) -> list[int]:
    """Moral-graph adjacency masks of the induced subgraph on ``a_mask``."""
    cache = g._cache.setdefault("moral_adj", {})
    try:
        return cache[a_mask]
    except KeyError:
        pass
    adj = [g.adj_mask(i) & a_mask if a_mask >> i & 1 else 0 for i in range(len(g))]
    for i, j in complex_parent_pairs(g, a_mask):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    cache[a_mask] = adj
    return adj


def represented_mask(g: HybridGraph, xm: int, ym: int, zm: int) -> bool:
    """Moralization criterion on bitmask node sets (no validation)."""
    anc = g.anc_masks
    a_mask = 0
    for i in _bits(xm | ym | zm):
        a_mask |= anc[i]
    return not _reach(_moral_adj(g, a_mask), xm, zm) & ym


def moralization_represented(g: HybridGraph, t: Triplet) -> bool:
    """The 3-step criterion: ancestral restriction, moralization, separation."""
    if not is_chain_graph(g):
        raise NotChainGraphError("moralization criterion is defined for chain graphs")
    t.validate_over(g.nodes)
    return represented_mask(g, g.mask_of(t.X), g.mask_of(t.Y), g.mask_of(t.Z))


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
    arcs_at = _arc_incidence(g)
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
        for eid, other, _outgoing in arcs_at[cur]:
            if used >> eid & 1:
                continue
            path.append(other)
            dfs(other, used | 1 << eid, 1 << other, path)
            path.pop()

    xi = g.index_of(x)
    dfs(xi, 0, 1 << xi, [xi])
    return out


def _arc_incidence(g: HybridGraph) -> list[list[tuple[int, int, bool]]]:
    """Per node: (arrow id, other endpoint, traversal-is-forward) triples."""
    try:
        return g._cache["arc_incidence"]
    except KeyError:
        pass
    incidence: list[list[tuple[int, int, bool]]] = [[] for _ in g.nodes]
    for eid, (tail, head) in enumerate(sorted(g.arrows())):
        ti, hi = g.index_of(tail), g.index_of(head)
        incidence[ti].append((eid, hi, True))
        incidence[hi].append((eid, ti, False))
    for entries in incidence:
        entries.sort(key=lambda e: (e[1], not e[2]))
    g._cache["arc_incidence"] = incidence
    return incidence


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


def _slide_masks(g: HybridGraph) -> list[list[int]]:
    """Per node index: node mask of every slide ending there."""
    try:
        return g._cache["slide_masks"]
    except KeyError:
        pass
    out = []
    for label in g.nodes:
        out.append([g.mask_of(s) for s in slides_to(g, label)])
    g._cache["slide_masks"] = out
    return out


def _blocked_mask(g: HybridGraph, sec_mask: int, first: int, last: int,
                  left_in: bool, right_in: bool, zm: int) -> bool:
    """Blocking test on mask-level section data."""
    if left_in and right_in:  # head-to-head: blocked iff no descendant in Z
        dm = 0
        for i in _bits(sec_mask):
            dm |= g.desc_masks[i]
        return not dm & zm
    if not sec_mask & zm:
        return False
    slide_masks = _slide_masks(g)
    terminals = []
    if not left_in:
        terminals.append(first)
    if not right_in and last not in terminals:
        terminals.append(last)
    for u in terminals:
        if all(sm & zm for sm in slide_masks[u]):
            return True
    return False


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
    sec_mask = g.mask_of(section.nodes)
    return _blocked_mask(
        g, sec_mask,
        g.index_of(section.nodes[0]), g.index_of(section.nodes[-1]),
        section.left == "in", section.right == "in", zm,
    )


# ---------------------------------------------------------------------------
# the c-separation criterion

def c_active_mask(g: HybridGraph, xm: int, ym: int, zm: int) -> bool:
    """True iff some trail from X to Y is active w.r.t. Z (mask level).

    Depth-first trail search; a branch is abandoned the moment a completed
    section is blocked, because every trail extending it is separated.
    """
    arcs_at = _arc_incidence(g)
    sib = g.sib_masks

    def dfs(cur: int, used: int, sec_mask: int, first: int, left_in: bool) -> bool:
        if ym >> cur & 1:
            if not _blocked_mask(g, sec_mask, first, cur, left_in, False, zm):
                return True
        for j in _bits(sib[cur] & ~sec_mask):
            if dfs(j, used, sec_mask | 1 << j, first, left_in):
                return True
        for eid, other, outgoing in arcs_at[cur]:
            if used >> eid & 1:
                continue
            # delimiter at cur: incoming iff the arrow points into cur
            if _blocked_mask(g, sec_mask, first, cur, left_in, not outgoing, zm):
                continue
            if dfs(other, used | 1 << eid, 1 << other, other, outgoing):
                return True
        return False

    for x in _bits(xm):
        if dfs(x, 0, 1 << x, x, False):
            return True
    return False


def c_represented(g: HybridGraph, t: Triplet) -> bool:
    """True iff every trail from X to Y has at least one blocked section."""
    if not is_chain_graph(g):
        raise NotChainGraphError("c-separation is defined for chain graphs")
    t.validate_over(g.nodes)
    return not c_active_mask(g, g.mask_of(t.X), g.mask_of(t.Y), g.mask_of(t.Z))
