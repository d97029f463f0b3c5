"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload tube-overlap --seed 1 --seconds 36 --trace 0

Single process, single thread, closed loop: one caller runs the workload's
fixed seeded batch one task after another, in ``repeats`` passes over the
same tasks.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes
half the passes, runs every task in them untraced and then with spans around
every call into the library, replays the insides of the composite calls, and
prints the per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run record (fingerprint,
per-task times, failures, and in a traced run the spans) is written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # setup_s counts from here, before any other import

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile

import harness

E2E = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("task_s.p50", "s"),
    ("task_s.tail", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("arith.sieve_primes.s", "s"),
    ("arith.load_prime_table.s", "s"),
    ("multiplier.error_profile.s", "s"),
    ("multiplier.error_profile.rest_s", "s"),
    ("multiplier.m_k_at_denominator.s", "s"),
    ("multiplier.m_k_at_denominator.calls", "count"),
    ("multiplier.L_k.s", "s"),
    ("multiplier.L_k.calls", "count"),
    ("multiplier.classify_arc.s", "s"),
    ("multiplier.prime_weights.s", "s"),
    ("multiplier.m_k.s", "s"),
    ("multiplier.m_k.calls", "count"),
    *((f"multiplier.m_k_grid.k{k}.L{L}.s", "s") for L in (256, 1024) for k in (14, 15, 16)),
    *((f"maximal.maximal_op.{kind}.L{L}.s", "s") for kind in ("real", "complex") for L in (256, 1024)),
    ("maximal.line_decompose.s", "s"),
    ("maximal.transference_check.s", "s"),
    ("directions.construct_directions.s", "s"),
    ("directions.rescale_to_integers.s", "s"),
    ("directions.serialize.s", "s"),
    ("directions.deserialize.s", "s"),
    ("incidence.max_overlap_scan.exact.s", "s"),
    ("incidence.max_overlap_scan.sample.s", "s"),
    ("incidence.candidates_checked", "count"),
    ("incidence.us_per_candidate", "us"),
    ("incidence.exact_share", "ratio"),
    ("incidence.replay_witness.s", "s"),
    ("input.exact_rational_share", "ratio"),
    ("maximal.real_input_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

SETUP_REPEATS = 5  # setup_s reports the median of this many set-ups in one run


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0,
                   help="sizes the fixed batch: rounds = round(seconds / (repeats * nominal round time))")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_workload(name: str, tracer, tmpdir: str, seconds: float, seed: int):
    """The workload's set-up: prime table, direction families, reference data
    and the batch plan.  With the imports before it, this is what setup_s
    times."""
    import workloads

    wl = workloads.WORKLOADS[name](workloads.load_references())
    wl.setup(tracer, tmpdir)
    rounds = max(1, round(seconds / (wl.repeats * wl.round_s)))
    return wl, rounds, wl.plan(seed, rounds, warmup=False)


def layer_metrics(wl, tracer, traced_tasks, traced_results, ref_results) -> dict:
    """Per-layer metrics of a traced run; ``traced_tasks`` holds the task of
    every traced run, so counts and shares cover all repeats."""
    totals = tracer.totals()

    def s(name):
        return totals.get(name, (0.0, 0))[0]

    def calls(name):
        return totals.get(name, (0.0, 0))[1]

    vals = {}
    for name, unit in PER_LAYER:
        if name.endswith(".s"):
            vals[name] = s(name[:-2])
        elif name.endswith(".calls"):
            vals[name] = calls(name[:-6])
    if calls("multiplier.error_profile"):
        vals["multiplier.error_profile.rest_s"] = s("multiplier.error_profile") - (
            s("multiplier.m_k_at_denominator") + s("multiplier.L_k") + s("multiplier.classify_arc"))
    else:
        vals["multiplier.error_profile.rest_s"] = 0.0
    vals.update({"incidence.candidates_checked": 0, "incidence.exact_share": 0.0,
                 "input.exact_rational_share": 0.0, "maximal.real_input_share": 0.0})
    vals.update(wl.layer_facts(traced_tasks))
    scan = s("incidence.max_overlap_scan.exact") + s("incidence.max_overlap_scan.sample")
    cands = vals["incidence.candidates_checked"]
    vals["incidence.us_per_candidate"] = 1e6 * scan / cands if cands else 0.0
    base = harness.time_stats(ref_results)["solve_s"]
    vals["trace.overhead_frac"] = harness.time_stats(traced_results)["solve_s"] / base - 1.0
    return {name: {"value": vals[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = harness.bootstrap()
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    import workloads  # numpy and primedir load only after bootstrap pinned the threads
    import primedir

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    if not os.path.abspath(primedir.__file__).startswith(os.path.join(root, "src")):
        sys.stderr.write(f"error: imported primedir from {primedir.__file__}, not this checkout\n")
        return 2
    import_s = time.perf_counter() - T_START
    load_start = os.getloadavg()[0]
    probe_start = harness.cpu_probe_ms()

    on = harness.Tracer(bool(args.trace))
    off = harness.Tracer(False)
    setup_samples = []
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for i in range(SETUP_REPEATS):
            wl = None  # drop the previous set-up first, so peak_rss_mb holds one
            t0 = time.perf_counter()
            wl, rounds, plan = setup_workload(args.workload, on if i == SETUP_REPEATS - 1 else off,
                                              tmp, args.seconds, args.seed)
            setup_samples.append(time.perf_counter() - t0)

    checked: list[harness.TaskResult] = [harness.run_task(wl, wl.warmup(args.seed), off, -1)]
    results: list[harness.TaskResult] = []
    ref_results: list[harness.TaskResult] = []
    order = harness.pass_order(len(plan), args.seed)
    # a traced pass runs every task twice, so a traced run makes half the
    # passes and lasts about as long as an untraced one
    passes = max(1, wl.repeats // 2) if args.trace else wl.repeats
    for _ in range(passes):
        for i in order:
            if args.trace:
                # untraced then traced, on the same inputs, for trace.overhead_frac
                ref_results.append(harness.run_task(wl, plan[i], off, i))
                results.append(harness.run_task(wl, plan[i], on, i, replay=True))
            else:
                results.append(harness.run_task(wl, plan[i], off, i))
    run_checks = wl.run_checks(args.seed)
    checked += results + ref_results

    failures = [(r.index, r.stratum, r.errors) for r in checked if not r.ok]
    failures += [(-2, name, errs) for name, errs in run_checks if errs]
    attempted = len(checked) + len(run_checks)
    stats = harness.time_stats(results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = layer_metrics(wl, on, [plan[i] for _ in range(passes) for i in order],
                                results, ref_results)
    else:
        e2e = {
            "setup_s": import_s + statistics.median(setup_samples),
            "solve_s": stats["solve_s"],
            "task_s.p50": stats["p50"],
            "task_s.tail": stats["tail"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E}

    fp = harness.fingerprint(args.seed)
    fp.update(wl.fingerprint)
    hashes = sorted({t.facts["content_hash"] for t in plan if "content_hash" in t.facts})
    if hashes:
        fp["direction_sets"] = hashes
    fp["loadavg_1m"] = {"start": load_start, "end": os.getloadavg()[0]}
    fp["cpu_probe_ms"] = {"start": probe_start, "end": harness.cpu_probe_ms()}

    fail_frac = len(failures) / attempted
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "schema": "primedir.bench.run.v1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "passes": passes,
        "fingerprint": fp,
        "metrics": metrics,
        "fail_frac": {"value": fail_frac, "unit": "ratio"},
        "task_s.tail": {"percentile": stats["tail_percentile"], "tasks": stats["tasks"]},
        "setup_s.import_s": import_s,
        "setup_s.samples": setup_samples,
        "failures": [{"task": i, "stratum": s, "errors": e[:3]} for i, s, e in failures],
        "tasks": [[r.index, r.stratum, r.seconds, r.ok] for r in results],
    }
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(os.path.join(out_dir, tag + "-spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task", "calls"],
                       "spans": on.spans}, fh)

    for i, stratum, errs in failures:
        sys.stderr.write(f"FAIL task {i} ({stratum}): {'; '.join(errs[:3])}\n")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"batch: {rounds} rounds, {stats['distinct_tasks']} tasks run {passes} times each; "
          f"task_s.tail is the p{stats['tail_percentile']:g} of {stats['tasks']} runs")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {fail_frac:.6g} ratio ({len(failures)} of {attempted})")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
