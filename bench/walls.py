"""Measure the scaling walls that the gated workloads stay clear of.

The benchmark's workloads must finish every operation, so they run at
sizes where no operation comes near its deadline.  This script measures
the cases beyond those sizes, each operation under a deadline, and prints
one line per wall:

- stage 1 (``recover_pattern``) at n = 9 and 10;
- stage 2 (``recover_largest``) on denser sparse 20..30-node patterns;
- c-separation on pairwise queries at n = 12;
- the brute-force class search at each pattern line count k (3^k tries).

Usage (from the repository root)::

    python3 bench/walls.py --seed 1 --samples 200
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import chaingraphs as cg  # noqa: E402
from sampler import Density, block_chain_graph  # noqa: E402
from workloads import install_deadline_handler, timed  # noqa: E402

DEADLINE_S = 2.0
STAGE2_DENSITY = Density(0.3, 0.3, 0.1)
SEP_DENSITY = Density(0.3, 0.5, 0.3)


def over(fn, deadline_s: float) -> float:
    """Seconds taken by ``fn()``, or ``inf`` when it overran."""
    seconds = timed(fn, deadline_s)[1]
    return float("inf") if seconds is None else seconds


def share_over(times: list[float], limit: float) -> str:
    slow = sum(t > limit for t in times)
    return f"{slow}/{len(times)} ({100 * slow / len(times):.1f} %) over {limit:g} s"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--samples", type=int, default=200)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    install_deadline_handler()

    for n in (9, 10):
        times = []
        for i in range(3):
            g = block_chain_graph(rng, n, Density(0.3 + 0.1 * i, 0.3 + 0.2 * i, 0.2 + 0.15 * i))
            times.append(over(lambda: cg.recover_pattern(cg.CGBackedModel(g)), 60.0))
        print(f"stage 1, n = {n}: median {statistics.median(times):.2f} s over {len(times)} graphs")

    times = []
    for _ in range(args.samples):
        g = block_chain_graph(rng, rng.randint(20, 30), STAGE2_DENSITY)
        pattern = cg.pattern_of(g)
        times.append(over(lambda: cg.recover_largest(pattern), DEADLINE_S))
    print(f"stage 2, n = 20..30, {STAGE2_DENSITY}: {share_over(times, DEADLINE_S)}")

    times = []
    for _ in range(args.samples):
        g = block_chain_graph(rng, 12, SEP_DENSITY)
        for _ in range(5):
            x, y = rng.sample(g.nodes, 2)
            z = [u for u in g.nodes if u not in (x, y) and rng.random() < 0.3]
            t = cg.Triplet([x], [y], z)
            times.append(over(lambda: cg.c_represented(g, t), DEADLINE_S))
    print(f"c-separation, n = 12, {SEP_DENSITY}: {share_over(times, DEADLINE_S)}")

    by_k: dict[int, float] = {}
    while len(by_k) < 11:
        g = block_chain_graph(rng, 5, Density(rng.random(), rng.uniform(0.2, 1), rng.uniform(0.2, 1)))
        k = sum(1 for _ in cg.pattern_of(g).lines())
        if k not in by_k:
            by_k[k] = over(lambda: cg.equivalence_class(g), 60.0)
    print("class search, n = 5: " + ", ".join(
        f"k={k} ({3 ** k} tries) {by_k[k] * 1e3:.0f} ms" for k in sorted(by_k)))


if __name__ == "__main__":
    main()
