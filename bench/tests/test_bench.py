"""Tests of the benchmark itself: sampler, percentile rule, smoke runs at
tiny sizes, deadline handling and the repeatability of traced counts.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads
from chaingraphs import is_chain_graph
from sampler import Density, block_chain_graph, block_chain_graph_with_edges, block_partition

# smallest scale per workload that still draws every size rung
TINY = {"recover": 0.04, "largest": 0.003, "sep": 0.002, "class": 0.1}


@pytest.mark.parametrize("density", [
    Density(0.0, 1.0, 1.0), Density(1.0, 0.0, 1.0), Density(0.3, 0.7, 0.7),
    Density(0.9, 0.5, 0.06),
])
def test_every_draw_is_a_chain_graph(density):
    rng = random.Random(7)
    for _ in range(200):
        assert is_chain_graph(block_chain_graph(rng, rng.randint(1, 14), density))


def test_exact_edge_count_draws():
    rng = random.Random(5)
    for m in range(0, 37, 3):
        g = block_chain_graph_with_edges(rng, 9, rng.choice((0.0, 0.3, 1.0)), m)
        assert is_chain_graph(g) and len(g.edges) == m


def test_dense_draws_are_fast_and_dense():
    # the rejection sampler in chaingraphs.enumeration cannot produce these
    g = block_chain_graph(random.Random(1), 10, Density(0.3, 0.7, 0.7))
    assert is_chain_graph(g) and len(g.edges) >= 20


def test_seed_reproduces_the_graphs():
    d = Density(0.4, 0.5, 0.3)
    first = [block_chain_graph(random.Random(3), 9, d) for _ in range(5)]
    again = [block_chain_graph(random.Random(3), 9, d) for _ in range(5)]
    other = [block_chain_graph(random.Random(4), 9, d) for _ in range(5)]
    assert first == again
    assert first != other


def test_block_partition_is_an_ordered_partition():
    nodes = [str(i) for i in range(40)]
    blocks = block_partition(random.Random(2), nodes, 0.3)
    assert sorted(x for b in blocks for x in b) == sorted(nodes)
    assert all(blocks) and 1 < len(blocks) < 40


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    random.Random(0).shuffle(values)
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90   # ten values lie beyond it
    assert run.percentile([3.0], 0.9) == 3.0


def test_failed_operations_rank_above_finished_ones():
    values = [0.001 * v for v in range(95)] + [math.inf] * 5
    assert run.percentile(values, 0.9) == pytest.approx(0.089)
    assert math.isinf(run.percentile(values + [math.inf] * 10, 0.9))
    assert run._finite(math.inf, 20.0) == 20.0


@pytest.fixture(autouse=True)
def out_dir(monkeypatch, tmp_path):
    """Keep work files and span files out of the repository; set up three
    times only."""
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    return tmp_path


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_with_output_checks(name):
    result, problems = run.benchmark(name, 5, 0.01, False, scale=TINY[name])
    assert problems == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_wrong_output_fails_the_check(monkeypatch):
    real = workloads.Sep.run

    def wrong(self, task, deadline_s):
        answers, dts = real(self, task, deadline_s)
        return [(moral, not c) for moral, c in answers], dts

    monkeypatch.setattr(workloads.Sep, "run", wrong)
    result, problems = run.benchmark("sep", 1, 0.01, False, scale=TINY["sep"])
    assert not result["correct"]
    assert any("criteria disagree" in p for p in problems)


def test_a_failing_cli_call_fails_the_check(monkeypatch):
    monkeypatch.setattr(workloads.cg.cli, "run", lambda argv: 2)
    result, problems = run.benchmark("class", 1, 0.01, False, scale=0.01)
    assert not result["correct"]
    assert all("check raised" in p for p in problems)


def test_overrun_is_stopped_counted_and_named(monkeypatch):
    monkeypatch.setattr(workloads.Sep, "deadline_s", 1e-6)
    result, problems = run.benchmark("sep", 2, 0.01, False, scale=TINY["sep"])
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["op_ms.p90"]["value"] == pytest.approx(1e-3)
    assert problems and "workload sep seed 2" in problems[0]
    assert "overran" in problems[0] and "triplet" in problems[0] and "nodes v0" in problems[0]


def test_one_overrunning_query_fails_alone(monkeypatch):
    real = workloads.cg.separation.c_represented
    calls = []

    def third_call_hangs(g, t):
        calls.append(t)
        if len(calls) == 3:
            time.sleep(5)   # stopped by the deadline
        return real(g, t)

    monkeypatch.setattr(workloads.cg.separation, "c_represented", third_call_hangs)
    monkeypatch.setattr(workloads.Sep, "deadline_s", 0.5)
    result, problems = run.benchmark("sep", 2, 0.01, False, scale=TINY["sep"])
    assert result["correct"]
    assert result["failed"] == 1 and result["attempted"] > workloads.Sep.per_batch
    assert len(problems) == 1 and "task" in problems[0] and "operation 2 overran" in problems[0]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_exactly(name):
    def counts():
        result, problems = run.benchmark(name, 9, 0.01, True, scale=TINY[name])
        assert problems == [] and result["correct"]
        assert set(result["metrics"]) == set(run.PER_LAYER)
        return {k: m["value"] for k, m in result["metrics"].items()
                if m["unit"] in ("count", "lines") or k.endswith(("hit_ratio", "frac", "yield"))
                and k != "trace.overhead_frac"}

    first = counts()
    assert first == counts()


def test_trace_splits_stage1_into_search_and_oracle():
    result, _ = run.benchmark("recover", 3, 0.01, True, scale=TINY["recover"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["recovery.stage1.search_ms"] > 0 and m["depmodel.oracle_ms"] > 0
    assert m["depmodel.dep_all.calls"] > 0 and m["separation.moral.calls"] > 0
    assert m["separation.c.calls"] == 0


def test_memo_misses_are_the_package_memo_misses():
    """A ``dep_all`` call that queries the model is a miss of its memo."""
    import chaingraphs
    from spans import Tracer

    g = chaingraphs.parse_graph("nodes a b c\na -> b\nb -- c\n")
    model = chaingraphs.CGBackedModel(g)
    tr = Tracer()
    tr.install(chaingraphs)
    try:
        dep_all = chaingraphs.recovery.dep_all
        dep_all(model, "a", "b")
        dep_all(model, "a", "b")      # memo hit
        model._pred_memo.clear()
        dep_all(model, "a", "b")      # memo emptied: a miss again
    finally:
        tr.uninstall()
    assert tr.calls["depmodel.dep_all"] == 3
    assert tr.with_children["depmodel.dep_all"] == 2


def test_spans_are_written(out_dir):
    run.benchmark("sep", 3, 0.01, True, scale=TINY["sep"])
    lines = (out_dir / "spans-sep-seed3.jsonl").read_text().splitlines()
    assert json.loads(lines[0])[2] == "name" and len(lines) > 1


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
