"""Tests of the benchmark harness itself.

    python -m pytest bench/test_harness.py -q

They check that a wrong library output is counted as a failure, that the
metric names agree with BENCHMARK.json, and that a copy of the benchmark
without the library source refuses to report a result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402

harness.bootstrap()

import run  # noqa: E402
import workloads  # noqa: E402


def _perturb(name, out):
    if name == "circle-sweep":
        out.rows[0].sup_abs_E *= 1 + 1e-9
        return out
    if name == "symbol-probe":
        m, L = out[0]
        return [(m + 1e-8, L)] + out[1:]
    if name == "maximal-apply":
        return type(out)(out.L, out.values * (1 + 1e-8))
    scans, blob = out
    variant, rep, count = scans[0]
    rep = dataclasses.replace(rep, candidates_checked=rep.candidates_checked + 1)
    return [(variant, rep, count)] + scans[1:], blob


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_output_raises_fail_frac(name, tmp_path, monkeypatch):
    off = harness.Tracer(False)
    wl = workloads.WORKLOADS[name](workloads.load_references())
    wl.setup(off, str(tmp_path))
    task = wl.warmup(seed=5)
    good = harness.run_task(wl, task, off, 0)
    assert good.ok, good.errors

    honest = wl.prepare

    def perturbed(task, tracer):
        call = honest(task, tracer)
        return lambda: _perturb(name, call())

    monkeypatch.setattr(wl, "prepare", perturbed)
    bad = harness.run_task(wl, task, off, 1)
    assert not bad.ok
    results = [good, bad]
    assert sum(not r.ok for r in results) / len(results) == 0.5


def test_tail_is_the_highest_percentile_with_ten_tasks_beyond():
    idx, pct = harness.tail_rank(10)
    assert idx == -1 and math.isnan(pct)
    assert harness.tail_rank(20) == (9, 50.0)
    idx, pct = harness.tail_rank(110)
    assert (idx, pct) == (99, 90.9)
    results = [harness.TaskResult(i, "a", float(i)) for i in range(1, 31)]
    stats = harness.time_stats(results)
    assert stats["tail"] == 20.0  # ten tasks (21..30) lie beyond it
    assert stats["p50"] == 15.5 and stats["solve_s"] == sum(range(1, 31))


def test_every_run_counts_with_its_own_time():
    # task 0 has one slow run; it shows in the sum, the median and the tail
    results = [harness.TaskResult(0, "a", t) for t in (1.0, 5.0, 1.0)]
    results += [harness.TaskResult(1, "a", t) for t in (2.0, 2.5, 3.0)]
    stats = harness.time_stats(results)
    assert stats["solve_s"] == 14.5 and stats["p50"] == 2.25 and stats["tail"] == 5.0
    assert stats["distinct_tasks"] == 2 and stats["tasks"] == 6


def test_every_pass_runs_each_task_in_the_same_seeded_order():
    order = harness.pass_order(9, seed=3)
    assert sorted(order) == list(range(9))
    assert order == harness.pass_order(9, seed=3) != harness.pass_order(9, seed=4)


def test_circle_sweep_runs_the_same_tasks_for_every_seed():
    wl = workloads.CircleSweep(None)
    plans = [[t.args for t in wl.plan(seed, 1, warmup=False)] for seed in (1, 2)]
    assert plans[0] == plans[1]
    assert {(a["k"], a["grid"]) for a in plans[0]} == {
        (k, 1024 if k % 2 == 0 else 2048) for k in range(14, 23)}


def test_tube_overlap_runs_the_same_tasks_for_every_seed():
    wl = workloads.TubeOverlap(None)
    plans = [[t.args for t in wl.plan(seed, 1, warmup=False)] for seed in (1, 2)]
    assert plans[0] == plans[1]
    assert {(a["N"], a["s"]) for a in plans[0]} == {(8, 3), (8, 4), (16, 3), (16, 4)}
    warm = wl.warmup(seed=1).args
    assert (warm["N"], warm["dseed"]) not in {(a["N"], a["dseed"]) for a in plans[0]}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tube-overlap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
