"""The four benchmark workloads: seeded inputs, the timed operation, checks.

A workload turns a seed into a fixed list of tasks (``build``), runs one
task as the timed closed-loop step (``run``) and checks a task's outputs
afterwards (``check``), outside the timed region.  A task is one operation,
except in ``sep``, where a task is a batch of queries on one graph and
each query is an operation.  ``run`` returns the task's output and one
time per operation, ``None`` for an operation that overran its deadline.

The package modules are looked up through their module objects at call
time (``cg.cli.run``, ``cg.separation.c_represented``, ...), so the
traced pass sees every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import os
import random
import signal
import time
from dataclasses import dataclass, field

import chaingraphs as cg
import chaingraphs.cli  # the package __init__ does not load the CLI
from sampler import Density, block_chain_graph, block_chain_graph_with_edges


class Overrun(Exception):
    """An operation ran past its deadline and was stopped."""


def _on_alarm(signum, frame):
    raise Overrun()


def install_deadline_handler() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def timed(fn, deadline_s: float):
    """Run ``fn()`` under a deadline; return (result, seconds), or
    (None, None) when it overran and was stopped."""
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start
    except Overrun:
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Task:
    """One unit of the closed loop: one operation, or one ``sep`` batch."""

    text: str                     # the graph in the package's text format
    rung: str                     # size group: "lo", "mid" or "hi"
    path: str = ""                # input file for CLI tasks
    queries: list = field(default_factory=list)   # sep: Triplets

    @property
    def n_ops(self) -> int:
        return len(self.queries) or 1

    def op_label(self, j: int) -> str:
        """Names operation ``j`` within the task: its triplet in ``sep``."""
        return f"triplet {cg.format_triplet(self.queries[j])}" if self.queries else ""


def _run_cli(argv: list[str]) -> str:
    """Run the CLI in process; stdout, or the exit code when it is not 0
    (which then fails the output check)."""
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = cg.cli.run(argv)
    return out.getvalue() if code == 0 else f"exit code {code}"


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------

class Recover:
    """``chaingraphs recover --from-cg FILE`` at n = 7 and 8."""

    name = "recover"
    deadline_s = 30.0
    # (n, instances, fewest edges, most edges, rung).  Stage-1 cost grows
    # with n and with the edge count, so each rung spreads a fixed list of
    # edge counts evenly over its range, with three block-cut chances in
    # turn; every seed then draws the same cost mix.  An operation's time
    # is the best of its passes, and on a shared host that best settles
    # only for short operations sampled often: n = 7 takes about 14 ms,
    # n = 8 about 65 ms and n = 9 0.4 to 0.7 s.  So 80 graphs at n = 7 and
    # 20 at n = 8 keep a pass near 2.5 s, p50 in the n = 7 group and p90
    # in the middle of the n = 8 group; n = 9 is left to walls.py.
    rungs = ((7, 80, 3, 17, "lo"), (8, 20, 4, 22, "mid"))
    p_cuts = (0.3, 0.5, 0.7)
    oracle_max_lines = 7   # brute-force class check below 3^7 candidates

    def __init__(self, scale: float = 1.0):
        self.counts = [(n, max(1, round(k * scale)), lo, hi, rung)
                       for n, k, lo, hi, rung in self.rungs]

    def build(self, rng: random.Random, workdir: str) -> list[Task]:
        tasks = []
        for n, count, lo, hi, rung in self.counts:
            for i in range(count):
                m = lo + round((hi - lo) * i / max(1, count - 1))
                g = block_chain_graph_with_edges(rng, n, self.p_cuts[i % len(self.p_cuts)], m)
                text = cg.serialize_graph(g)
                tasks.append(Task(text, rung, _write(workdir, f"r{len(tasks)}.cg", text)))
        rng.shuffle(tasks)
        return tasks

    def run(self, task: Task, deadline_s: float):
        out, dt = timed(lambda: _run_cli(["recover", "--from-cg", task.path]), deadline_s)
        return out, [dt]

    def check(self, task: Task, out: str) -> str | None:
        g = cg.parse_graph(task.text)
        h = cg.parse_graph(out)
        if not cg.is_chain_graph(h):
            return "result is not a chain graph"
        if not cg.markov_equivalent(g, h):
            return "result is not Markov equivalent to the input"
        if not cg.is_larger(g, h):
            return "result is not at least as large as the input"
        pattern_lines = sum(1 for _ in cg.pattern_of(g).lines())
        if pattern_lines <= self.oracle_max_lines:
            if h != cg.largest_cg_oracle(g, max_edges=len(g.edges)):
                return "result differs from the brute-force largest chain graph"
        return None


class Largest:
    """``recover_largest(pattern_of(g))`` on sparse 20..30-node graphs whose
    pattern has no line component of more than ``max_component`` nodes.

    Stage 2 walks the line components of the pattern, and its time grows
    exponentially with their size: with five or more nodes in a component
    some patterns ran past 1 s and one past 20 s, which would make the
    workload fail operations.  ``walls.py`` measures that wall.
    """

    name = "largest"
    deadline_s = 20.0
    density = Density(0.9, 0.5, 0.06)
    max_component = 4
    # the brute-force check costs 3^k candidates on 20..30 nodes: about
    # 0.06 s per pattern at k = 5 and 0.6 s at k = 7; k <= 5 is about a
    # fifth of the patterns
    oracle_max_lines = 5
    count = 1000
    rung_edges = ((20, 23, "lo"), (24, 26, "mid"), (27, 30, "hi"))

    def __init__(self, scale: float = 1.0):
        self.n_tasks = max(1, round(self.count * scale))

    def build(self, rng: random.Random, workdir: str) -> list[Task]:
        tasks = []
        while len(tasks) < self.n_tasks:
            n = rng.randint(20, 30)
            rung = next(name for lo, hi, name in self.rung_edges if lo <= n <= hi)
            g = block_chain_graph(rng, n, self.density)
            if max(map(len, cg.components(cg.pattern_of(g)))) <= self.max_component:
                tasks.append(Task(cg.serialize_graph(g), rung))
        return tasks

    def run(self, task: Task, deadline_s: float):
        g = cg.parse_graph(task.text)   # fresh graph: no warm caches
        complexes, recovery = cg.complexes, cg.recovery
        out, dt = timed(lambda: recovery.recover_largest(complexes.pattern_of(g)), deadline_s)
        return out, [dt]

    def check(self, task: Task, h) -> str | None:
        g = cg.parse_graph(task.text)
        if not cg.is_chain_graph(h):
            return "result is not a chain graph"
        if not cg.is_larger(g, h):
            return "result is not at least as large as the input"
        if not cg.markov_equivalent(h, g):
            return "result is not Markov equivalent to the input"
        pattern_lines = sum(1 for _ in cg.pattern_of(g).lines())
        if pattern_lines <= self.oracle_max_lines:
            if h != cg.largest_cg_oracle(g, max_edges=len(g.edges)):
                return "result differs from the brute-force largest chain graph"
        return None


class Sep:
    """Batches of pairwise queries <x, y | Z> on cold 6..8-node graphs with
    no line component of more than ``max_component`` nodes.

    The c-criterion searches trails exhaustively, and a line component of
    five nodes with a few arrows into it already made single queries run
    for 0.4 s at n = 8 and for seconds at n = 9..12.  ``walls.py`` measures
    that wall.
    """

    name = "sep"
    deadline_s = 10.0
    density = Density(0.6, 0.5, 0.2)
    max_component = 4
    batches = 4000
    per_batch = 8
    p_z = 0.4

    def __init__(self, scale: float = 1.0):
        self.n_tasks = max(1, round(self.batches * scale))

    def build(self, rng: random.Random, workdir: str) -> list[Task]:
        tasks = []
        for i in range(self.n_tasks):
            n = 6 + i % 3
            g = block_chain_graph(rng, n, self.density)
            while max(map(len, cg.components(g))) > self.max_component:
                g = block_chain_graph(rng, n, self.density)
            queries = []
            for _ in range(self.per_batch):
                x, y = rng.sample(g.nodes, 2)
                z = [u for u in g.nodes if u not in (x, y) and rng.random() < self.p_z]
                queries.append(cg.Triplet([x], [y], z))
            tasks.append(Task(cg.serialize_graph(g), ("lo", "mid", "hi")[n - 6], queries=queries))
        rng.shuffle(tasks)
        return tasks

    def run(self, task: Task, deadline_s: float):
        """Each criterion gets its own freshly parsed graph, so neither warms
        the other's caches; an operation's time is the sum of both answers.
        A query whose moral answer overran is not put to the c-criterion."""
        sep, cgio = cg.separation, cg.io
        g = cgio.parse_graph(task.text)
        moral = [timed(lambda: sep.moralization_represented(g, t), deadline_s)
                 for t in task.queries]
        g = cgio.parse_graph(task.text)
        c = [timed(lambda: sep.c_represented(g, t), deadline_s) if dm is not None else (None, None)
             for t, (_, dm) in zip(task.queries, moral)]
        return ([(a, b) for (a, _), (b, _) in zip(moral, c)],
                [None if db is None else da + db for (_, da), (_, db) in zip(moral, c)])

    def check(self, task: Task, answers) -> str | None:
        for t, (moral, c) in zip(task.queries, answers):
            if c is None:   # overran: counted as failed, not checked
                continue
            if moral != c:
                return f"criteria disagree on {cg.format_triplet(t)}: moral {moral}, c {c}"
        return None


class Class:
    """``chaingraphs class FILE`` on 5-node graphs, fixed count per pattern
    line count k (the class search tries 3^k candidates)."""

    name = "class"
    deadline_s = 60.0
    # k -> instances; every run holds the same cost mix.  Of 100 operations
    # the p50 rank falls among the k <= 2 graphs, whose time is mostly the
    # CLI's own, and the p90 rank near the top of the k = 6 group, with the
    # k = 7 graphs above it.  k >= 8 (0.3 s to 3 s per graph) is left to
    # walls.py: so few long operations set most of the run-to-run spread of
    # ``ops_total_s`` and ``op_ms.p90`` on a shared host.
    quotas = {0: 16, 1: 19, 2: 19, 3: 10, 4: 4, 5: 4, 6: 20, 7: 8}

    def __init__(self, scale: float = 1.0):
        self.quota = {k: max(1, round(q * scale)) for k, q in self.quotas.items()}

    def build(self, rng: random.Random, workdir: str) -> list[Task]:
        need = dict(self.quota)
        tasks = []
        while any(need.values()):
            density = Density(rng.random(), rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0))
            g = block_chain_graph(rng, 5, density)
            k = sum(1 for _ in cg.pattern_of(g).lines())
            if need.get(k):
                need[k] -= 1
                text = cg.serialize_graph(g)
                rung = "lo" if k <= 3 else "mid" if k <= 5 else "hi"
                tasks.append(Task(text, rung, _write(workdir, f"c{len(tasks)}.cg", text)))
        rng.shuffle(tasks)
        return tasks

    def run(self, task: Task, deadline_s: float):
        out, dt = timed(lambda: _run_cli(["class", task.path]), deadline_s)
        return out, [dt]

    def check(self, task: Task, out: str) -> str | None:
        g = cg.parse_graph(task.text)
        members = cg.parse_graphs(out)
        if len({cg.serialize_graph(m) for m in members}) != len(members):
            return "class members repeat"
        if g not in members:
            return "the input graph is not among the class members"
        for m in members:
            if not cg.is_chain_graph(m) or not cg.markov_equivalent(m, g):
                return f"member is not an equivalent chain graph:\n{cg.serialize_graph(m)}"
        return None


WORKLOADS = {w.name: w for w in (Recover, Largest, Sep, Class)}
