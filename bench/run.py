"""Seeded closed-loop benchmark for the chaingraphs package.

Usage (from the repository root)::

    python3 bench/run.py --workload recover --seed 1 --seconds 28 --trace 0

Workloads: ``recover``, ``largest``, ``sep`` and ``class`` (see
bench/README.md).  One caller runs the workload's fixed task list back to
back, pass after pass, until another pass would overrun ``--seconds``;
every pass runs at least once.  An operation's time is the best of its
passes, and ``ops_total_s`` adds those times up.  Outputs are checked after the
timed passes.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` a traced pass follows the
untraced ones and the object holds the per-layer metrics instead.  The
exit code is 1 when an output check fails and 2 when the package sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3      # set-ups per run at least, and until SETUP_MIN_S is spent
SETUP_MIN_S = 2.0
MODULES = ("graph", "io", "triplets", "complexes", "separation", "depmodel",
           "recovery", "cli", "enumeration")

END_TO_END = {
    "setup_s": "s",
    "ops_total_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "recovery.stage1.search_ms": "ms",
    "depmodel.oracle_ms": "ms",
    "depmodel.dep_all.calls": "count",
    "depmodel.dep_plus.calls": "count",
    "depmodel.pred_memo.hit_ratio": "ratio",
    "depmodel.is_independent.calls": "count",
    "depmodel.cg_memo.hit_ratio": "ratio",
    "separation.moral.calls": "count",
    "separation.moral_us.p50": "us",
    "separation.moral_us.p90": "us",
    "separation.moral_adj.hit_ratio": "ratio",
    "complexes.parent_pairs.calls": "count",
    "complexes.parent_pairs_ms": "ms",
    "separation.c.calls": "count",
    "separation.c_us.p50": "us",
    "separation.c_us.p90": "us",
    "separation.slides.calls": "count",
    "separation.slides_ms": "ms",
    "separation.separated_frac": "ratio",
    "recovery.stage2_ms": "ms",
    "recovery.stage2.necessity_ms": "ms",
    "recovery.stage2.doublecycle_ms": "ms",
    "recovery.stage2.validate_ms": "ms",
    "recovery.stage2.self_ms": "ms",
    "recovery.stage2.bans": "count",
    "recovery.stage2.directings": "count",
    "recovery.stage2.rule_calls": "count",
    "recovery.stage2.rule_yield": "ratio",
    "complexes.pattern_of_ms": "ms",
    "complexes.class.candidates": "count",
    "complexes.class.members": "count",
    "complexes.class.yield": "ratio",
    "graph.builds": "count",
    "graph.build_ms": "ms",
    "cli.self_ms": "ms",
    "io.parse_ms": "ms",
    "io.serialize_ms": "ms",
    "ops.fail_frac": "ratio",
    "rung.lo.op_ms.p50": "ms",
    "rung.mid.op_ms.p50": "ms",
    "rung.hi.op_ms.p50": "ms",
    "trace.overhead_frac": "ratio",
    **{f"{m}.src_lines": "lines" for m in MODULES},
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; a failed operation is ``math.inf`` and so
    ranks above every finished one."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Pass:
    wall: float
    attempted: int           # operations run in this pass
    outputs: list | None     # kept for the first pass only
    latencies: list          # per task: per-op seconds (None: overran), or None if skipped
    failures: list = field(default_factory=list)
    differs: set = field(default_factory=set)   # tasks whose output changed


def run_pass(wl, tasks, failed: dict, context: str, first: Pass | None = None) -> Pass:
    """One closed-loop pass over ``tasks``.

    ``failed`` maps a task to the operations of it that overran; such a
    task is skipped by later passes.  The first pass keeps its outputs for
    the checks; a later pass only records where its output differs from
    the first pass's.
    """
    outputs, latencies, failures, differs = [], [], [], set()
    attempted = 0
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        out = dts = None
        if i not in failed:
            out, dts = wl.run(task, wl.deadline_s)
            attempted += task.n_ops
            overran = [j for j, dt in enumerate(dts) if dt is None]
            if overran:
                failed[i] = overran
                failures.extend(f"{context}: task {i} operation {j} overran {wl.deadline_s:g} s"
                                f" {task.op_label(j)}\n{task.text}" for j in overran)
            elif first is not None and out != first.outputs[i]:
                differs.add(i)
        latencies.append(dts)
        if first is None:
            outputs.append(out)
    wall = time.perf_counter() - start
    return Pass(wall, attempted, outputs if first is None else None, latencies, failures, differs)


def run_passes(wl, tasks, failed: dict, budget: float, context: str) -> list[Pass]:
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(wl, tasks, failed, context, passes[0] if passes else None)
        passes.append(p)
        if time.perf_counter() - start + p.wall > budget:
            return passes


def op_latencies(tasks, passes: list[Pass], failed: dict) -> list[tuple[str, float]]:
    """(rung, seconds) per operation: the best of its passes, ``inf`` if it
    overran.  Operations of a task that overran elsewhere keep the times of
    the passes that ran them.

    The package is deterministic and CPU-bound, so an operation's time only
    grows with interference from outside the process; on a shared host that
    interference comes in bursts of seconds, and the best pass filters them.
    """
    out = []
    for i, task in enumerate(tasks):
        ran = [p.latencies[i] for p in passes if p.latencies[i] is not None]
        for j in range(task.n_ops):
            if j in failed.get(i, ()):
                out.append((task.rung, math.inf))
            else:
                out.append((task.rung, min(dts[j] for dts in ran)))
    return out


def check_outputs(wl, tasks, passes: list[Pass], failed: dict) -> list[str]:
    """Check the first pass's outputs; later passes must repeat them."""
    errors = []
    for i, task in enumerate(tasks):
        if len(failed.get(i, ())) == task.n_ops:
            continue
        try:
            problem = wl.check(task, passes[0].outputs[i])
        except Exception as exc:   # an unreadable output is a wrong output
            problem = f"check raised {exc!r}"
        if problem is None and any(i in p.differs for p in passes[1:]):
            problem = "output differs between passes"
        if problem is not None:
            errors.append(f"{wl.name} task {i}: {problem}\n{task.text}")
    return errors


def setup(wl_cls, workload: str, seed: int, scale: float):
    """Build the workload's inputs from the seed; repeated, median reported."""
    times, tasks = [], None
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        os.makedirs(workdir)
        wl = wl_cls(scale)
        built = wl.build(random.Random(f"{workload}/{seed}"), workdir)
        times.append(time.perf_counter() - start)
        if tasks is not None and [t.text for t in built] != [t.text for t in tasks]:
            raise RuntimeError("the same seed built different inputs")
        tasks = built
    return wl, tasks, statistics.median(times), workdir


def src_lines(module: str) -> int:
    with open(os.path.join(SRC, "chaingraphs", f"{module}.py"), encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def layer_metrics(tr, wl, first: Pass, lat, overhead: float, fail_frac: float) -> dict:
    """Per-layer figures from one traced pass (times are pass totals);
    output tallies come from the first pass, which the traced one repeats."""

    def ratio(a, b):
        return a / b if b else 0.0

    def p_us(name, q):
        values = tr.durations.get(name)
        return percentile(values, q) * 1e6 if values else 0.0

    stage2 = "recovery.recover_largest"
    oracle = tr.ms("depmodel.dep_all") + tr.ms("depmodel.dep_plus")
    necessity = tr.ms("recovery.necessity_step")
    doublecycle = tr.ms("recovery.doublecycle_step")
    validate = (tr.child_ms(stage2, "complexes.pattern_of")
                + tr.child_ms(stage2, "graph.is_chain_graph"))
    pred_calls = tr.calls["depmodel.dep_all"] + tr.calls["depmodel.dep_plus"]
    # a memo miss always puts at least one query (Z = {} first) to the model
    pred_misses = tr.with_children["depmodel.dep_all"] + tr.with_children["depmodel.dep_plus"]
    queries = tr.calls["depmodel.is_independent"]
    model_misses = (tr.by_parent[("depmodel.is_independent", "separation.moralization_represented")]
                    + tr.by_parent[("depmodel.is_independent", "separation.c_represented")])
    moral_calls = tr.calls["separation.moralization_represented"]
    rule_calls = tr.calls["recovery.necessity_step"] + tr.calls["recovery.doublecycle_step"]
    candidates = tr.by_parent[("complexes.equivalence_class", "graph.build")]
    members = 0
    separated = []
    if wl.name == "class":
        members = sum(out.count("\nnodes ") + 1 for out in first.outputs if out)
    if wl.name == "sep":
        separated = [c for out in first.outputs if out for _, c in out if c is not None]
    rungs = {}
    for rung in ("lo", "mid", "hi"):
        values = [dt for r, dt in lat if r == rung]
        rungs[rung] = percentile(values, 0.5) * 1e3 if values else 0.0

    values = {
        "recovery.stage1.search_ms": tr.ms("recovery.recover_pattern") - oracle,
        "depmodel.oracle_ms": oracle,
        "depmodel.dep_all.calls": tr.calls["depmodel.dep_all"],
        "depmodel.dep_plus.calls": tr.calls["depmodel.dep_plus"],
        "depmodel.pred_memo.hit_ratio": 1 - ratio(pred_misses, pred_calls) if pred_calls else 0.0,
        "depmodel.is_independent.calls": queries,
        "depmodel.cg_memo.hit_ratio": 1 - ratio(model_misses, queries) if queries else 0.0,
        "separation.moral.calls": moral_calls,
        "separation.moral_us.p50": p_us("separation.moralization_represented", 0.5),
        "separation.moral_us.p90": p_us("separation.moralization_represented", 0.9),
        "separation.moral_adj.hit_ratio":
            1 - ratio(tr.calls["complexes.complex_parent_pairs"], moral_calls)
            if moral_calls else 0.0,
        "complexes.parent_pairs.calls": tr.calls["complexes.complex_parent_pairs"],
        "complexes.parent_pairs_ms": tr.ms("complexes.complex_parent_pairs"),
        "separation.c.calls": tr.calls["separation.c_represented"],
        "separation.c_us.p50": p_us("separation.c_represented", 0.5),
        "separation.c_us.p90": p_us("separation.c_represented", 0.9),
        "separation.slides.calls": tr.calls["separation.slides_to"],
        "separation.slides_ms": tr.ms("separation.slides_to"),
        "separation.separated_frac": ratio(sum(separated), len(separated)),
        "recovery.stage2_ms": tr.ms(stage2),
        "recovery.stage2.necessity_ms": necessity,
        "recovery.stage2.doublecycle_ms": doublecycle,
        "recovery.stage2.validate_ms": validate,
        "recovery.stage2.self_ms": tr.ms(stage2) - necessity - doublecycle - validate,
        "recovery.stage2.bans": tr.counters["stage2.bans"],
        "recovery.stage2.directings": tr.counters["stage2.directings"],
        "recovery.stage2.rule_calls": rule_calls,
        "recovery.stage2.rule_yield": ratio(tr.counters["stage2.directings"], rule_calls),
        "complexes.pattern_of_ms": tr.ms("complexes.pattern_of"),
        "complexes.class.candidates": candidates,
        "complexes.class.members": members,
        "complexes.class.yield": ratio(members, candidates),
        "graph.builds": tr.calls["graph.build"],
        "graph.build_ms": tr.ms("graph.build"),
        "cli.self_ms": tr.self_time["cli.run"] * 1e3,
        "io.parse_ms": tr.ms("io.parse_graph"),
        "io.serialize_ms": tr.ms("io.serialize_graph") + tr.ms("io.serialize_graphs"),
        "ops.fail_frac": fail_frac,
        "rung.lo.op_ms.p50": rungs["lo"],
        "rung.mid.op_ms.p50": rungs["mid"],
        "rung.hi.op_ms.p50": rungs["hi"],
        "trace.overhead_frac": overhead,
        **{f"{m}.src_lines": src_lines(m) for m in MODULES},
    }
    return values


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              scale: float = 1.0) -> tuple[dict, list[str]]:
    """Run one benchmark; return (result object, problems to report)."""
    import chaingraphs
    from spans import Tracer
    from workloads import WORKLOADS, install_deadline_handler

    install_deadline_handler()
    wl, tasks, setup_s, workdir = setup(WORKLOADS[workload], workload, seed, scale)
    failed: dict = {}
    context = f"workload {workload} seed {seed}"
    try:
        passes = run_passes(wl, tasks, failed, seconds / 2 if trace else seconds, context)
        traced = None
        if trace:
            tr = Tracer()
            tr.install(chaingraphs)
            try:
                traced = run_pass(wl, tasks, failed, context + " (traced)", passes[0])
            finally:
                tr.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # before the checks
    everything = passes + ([traced] if traced else [])
    problems = [f for p in everything for f in p.failures]
    errors = check_outputs(wl, tasks, everything, failed)
    attempted = sum(p.attempted for p in everything)
    n_failed = sum(map(len, failed.values()))   # a task that overran is not run again
    lat = op_latencies(tasks, passes, failed)
    best_wall = min(p.wall for p in passes)

    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        tr.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))
        values = layer_metrics(tr, wl, passes[0], lat, traced.wall / best_wall - 1,
                               n_failed / len(lat))
        units = PER_LAYER
    else:
        seconds_each = [dt for _, dt in lat]
        values = {
            "setup_s": setup_s,
            "ops_total_s": sum(_finite(dt, wl.deadline_s) for dt in seconds_each),
            "op_ms.p50": _finite(percentile(seconds_each, 0.5), wl.deadline_s) * 1e3,
            "op_ms.p90": _finite(percentile(seconds_each, 0.9), wl.deadline_s) * 1e3,
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, problems + errors


def _finite(value: float, deadline_s: float) -> float:
    """A percentile that lands on a failed operation reads as the deadline."""
    return deadline_s if math.isinf(value) else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("recover", "largest", "sep", "class"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "chaingraphs")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    result, problems = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in problems:
        print(line, file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:8s} {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
