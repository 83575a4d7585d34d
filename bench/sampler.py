"""Direct block-partition sampler for chain graphs.

Every draw is a chain graph by construction, so there is no rejection
loop: the nodes are shuffled into an ordered sequence of blocks, lines are
placed only inside a block and arrows only from an earlier block to a later
one.  Components then sit inside blocks and every arrow points forward in
the block order, which rules out a directed pseudocycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from chaingraphs.graph import EdgeKind, HybridGraph


@dataclass(frozen=True)
class Density:
    """Sampler parameters.

    ``p_cut``: chance that a new block starts between two consecutive
    nodes of the shuffled order (0 gives one block, 1 gives a DAG).
    ``p_line``: chance of a line between two nodes of one block.
    ``p_arrow``: chance of an arrow between nodes of different blocks.
    """

    p_cut: float
    p_line: float
    p_arrow: float


def labels(n: int) -> list[str]:
    return [f"v{i:02d}" for i in range(n)]


def block_partition(rng: random.Random, nodes: list[str], p_cut: float) -> list[list[str]]:
    """A random ordered partition of ``nodes`` into nonempty blocks."""
    order = list(nodes)
    rng.shuffle(order)
    blocks = [[order[0]]]
    for u in order[1:]:
        if rng.random() < p_cut:
            blocks.append([u])
        else:
            blocks[-1].append(u)
    return blocks


def _edge(block_of: dict, u: str, v: str):
    """The edge between ``u`` and a later ``v`` in block order: a line inside
    a block, otherwise the arrow u -> v."""
    key = (u, v) if u < v else (v, u)
    if block_of[u] == block_of[v]:
        return key, EdgeKind.LINE
    return key, EdgeKind.ARROW_FORWARD if u < v else EdgeKind.ARROW_BACKWARD


def _blocks(rng: random.Random, n: int, p_cut: float):
    blocks = block_partition(rng, labels(n), p_cut)
    block_of = {u: b for b, block in enumerate(blocks) for u in block}
    return block_of, [u for block in blocks for u in block]


def block_chain_graph(rng: random.Random, n: int, density: Density) -> HybridGraph:
    """One chain graph on ``labels(n)`` drawn with the given density."""
    block_of, order = _blocks(rng, n, density.p_cut)
    edges = {}
    for i, u in enumerate(order):
        for v in order[i + 1:]:
            p = density.p_line if block_of[u] == block_of[v] else density.p_arrow
            if rng.random() < p:
                key, kind = _edge(block_of, u, v)
                edges[key] = kind
    return HybridGraph(order, edges)


def block_chain_graph_with_edges(rng: random.Random, n: int, p_cut: float,
                                 m: int) -> HybridGraph:
    """One chain graph on ``labels(n)`` with exactly ``m`` edges, placed on
    node pairs drawn uniformly; the blocks decide which are lines."""
    block_of, order = _blocks(rng, n, p_cut)
    pairs = [(u, v) for i, u in enumerate(order) for v in order[i + 1:]]
    return HybridGraph(order, dict(_edge(block_of, u, v) for u, v in rng.sample(pairs, m)))
