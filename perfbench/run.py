#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tune_cold --seed 1 --seconds 20 --trace 0

Workloads: ``tune_cold``, ``tune_warm``, ``serve_mix`` (see README.md).
With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics; with ``--trace 1`` the layers' entry points
are wrapped with span recorders and the result holds the per-layer
metrics instead, and the spans are written as a Chrome trace under
``.perfbench/traces/``.  The line before the result is a JSON detail
record: operation counts by kind, the reference-loop timings taken
before and after the workload and at the checkpoints between timed
operations, raw wall figures, sample counts and the serve-only figures.
End-to-end timings are wall time scaled to a nominal machine speed with
those checkpoints (``scenarios.Clock``).  ``--smoke`` runs a small size of the workload with the same
checks.  The program is imported from ``src/`` beside this directory.
"""

import time

_T0_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

import tracing  # noqa: E402 — imports the program only when installed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tune_cold", "tune_warm", "serve_mix")
#: fresh interpreters started to time the start-up and imports.
IMPORT_STARTS = 5


def time_imports(clock, starts: int):
    """Regions of ``starts`` fresh interpreters that import what this
    run imports (the benchmark's modules and the program), one after
    another with a checkpoint around each.  A process's own imports are
    timed once, and the page cache and the machine make that one figure
    jump; the median of several starts does not."""
    code = (f"import sys; sys.path[:0] = [{HERE!r}, {os.path.join(ROOT, 'src')!r}]; "
            "import scenarios")
    regions = []
    for _ in range(starts):
        clock.checkpoint()
        start = clock.start()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        regions.append((start, time.perf_counter_ns()))
    clock.checkpoint()
    return regions


def layer_metrics(tracer, info):
    """Per-layer metrics from a traced run (see README.md)."""
    tracer.finalize(info["remap"])
    intervals = info["intervals"]
    unattributed = sum(
        (end - start) / 1e9 - tracer.covered_seconds(start, end) for start, end in intervals
    )
    tracer.keep_within(intervals)
    st = tracer.self_times()

    def self_s(name):
        return st.get(name, (0.0, 0))[0]

    def calls(name):
        return st.get(name, (0.0, 0))[1]

    def mean_ms(name):
        return self_s(name) / calls(name) * 1e3 if calls(name) else 0.0

    def hit_rate(cache):
        return info["cache_delta"].get(cache, {}).get("hit_rate", 0.0)

    prim_names = [f"schedule.{p}" for p in tracing.SCHEDULE_PRIMITIVES]
    waits = info["queue_wait"]
    out = {
        "frontend.build_ms": (mean_ms("frontend.build"), "ms"),
        "frontend.builds": (calls("frontend.build"), "count"),
        "frontend.canonicalize_ms": (mean_ms("frontend.canonicalize"), "ms"),
        "tir.access_regions_s": (self_s("tir.access_regions"), "s"),
        "tir.structural_hash_s": (self_s("tir.structural_hash"), "s"),
        "tir.structural_hash_calls": (tracer.entries("tir.structural_hash"), "count"),
        "tir.script_ms": (mean_ms("tir.script"), "ms"),
        "arith.simplify_s": (self_s("arith.simplify"), "s"),
        "arith.simplify_calls": (tracer.entries("arith.simplify"), "count"),
        "arith.simplify_memo_hit_rate": (hit_rate("arith.simplify_memo"), "ratio"),
        "arith.iter_map_s": (self_s("arith.iter_map"), "s"),
        "arith.iter_map_memo_hit_rate": (hit_rate("arith.iter_map_memo"), "ratio"),
        "schedule.primitive_s": (sum(self_s(n) for n in prim_names), "s"),
        "schedule.primitive_calls": (sum(calls(n) for n in prim_names), "count"),
    }
    for prim in tracing.SCHEDULE_PRIMITIVES:
        out[f"schedule.{prim}_s"] = (self_s(f"schedule.{prim}"), "s")
    out.update({
        "schedule.find_loops_calls": (calls("schedule.find_loops"), "count"),
        "schedule.verify_s": (self_s("schedule.verify"), "s"),
        "schedule.verify_calls": (tracer.entries("schedule.verify"), "count"),
        "meta.search.candidates": (tracer.counters["meta.search.candidates"], "count"),
        "meta.search.measured": (tracer.counters["meta.search.measured"], "count"),
        "meta.search.candidate_cache_hit_rate": (hit_rate("search.candidates"), "ratio"),
        "meta.sketch.apply_s": (self_s("meta.sketch.apply"), "s"),
        "meta.feature.extract_s": (self_s("meta.feature.extract"), "s"),
        "meta.database.key_ms": (mean_ms("meta.database.key"), "ms"),
        "meta.database.get_ms": (mean_ms("meta.database.get"), "ms"),
        # ``Database.replay`` calls ``replay_entry``: both are spans of
        # this name, so the mean is taken over top-level entries.
        "meta.database.replay_ms": (
            self_s("meta.database.replay") / tracer.entries("meta.database.replay") * 1e3
            if calls("meta.database.replay") else 0.0, "ms"),
        "meta.database.put_ms": (mean_ms("meta.database.put"), "ms"),
        "meta.database.load_s": (self_s("meta.database.load"), "s"),
        "learn.gbdt.fit_s": (self_s("learn.gbdt.fit"), "s"),
        "learn.gbdt.fit_calls": (calls("learn.gbdt.fit"), "count"),
        "learn.gbdt.predict_s": (self_s("learn.gbdt.predict"), "s"),
        "sim.estimate_s": (self_s("sim.estimate"), "s"),
        "sim.estimate_calls": (tracer.entries("sim.estimate"), "count"),
        "serve.submit_self_ms": (
            tracer.self_ms_in_groups("serve.submit", info["hit_groups"]), "ms"),
        "serve.queue_wait_ms": (sum(waits) / len(waits) * 1e3 if waits else 0.0, "ms"),
        "serve.coalesced": (info["coalesced"], "count"),
        "runtime.compile_ms": (mean_ms("runtime.compile"), "ms"),
        "runtime.exec_ms": (mean_ms("runtime.exec"), "ms"),
        "trace.overhead_s": (info["traced_s"] - info["untraced_s"], "s"),
        "trace.unattributed_s": (unattributed, "s"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a small size of the workload, same checks")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import scenarios  # imports the program

    import_region = (_T0_NS, time.perf_counter_ns())
    clock = scenarios.Clock()
    clock.checkpoint()
    ref_before = scenarios.reference_loop()
    start_s = median(clock.scaled_all(
        time_imports(clock, 1 if args.smoke else IMPORT_STARTS)))
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None

    if args.workload == "serve_mix":
        outcome = scenarios.run_serve(args.seed, args.seconds, args.smoke, tracer, scratch, clock)
    else:
        outcome = scenarios.run_tune(args.workload, args.seed, args.seconds, args.smoke,
                                     tracer, clock)
    ref_after = scenarios.reference_loop()
    ledger = outcome.ledger
    refs = clock.reference_seconds()

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "counts": ledger.counts(),
        "reference_loop_s": {"before": ref_before, "after": ref_after},
        "checkpoints": {"count": len(refs), "median_s": median(refs),
                        "min_s": min(refs), "max_s": max(refs)},
        "import_wall_s": scenarios.wall(import_region),
        "start_s": start_s,
        "setup_work_s": outcome.setup_work_s,
        "errors": ledger.errors,
        "check_problems": ledger.problems[:20],
    }
    if tracer is None:
        metrics = dict(outcome.metrics)
        metrics["setup_s"] = (start_s + outcome.setup_work_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        detail.update(outcome.detail)
    else:
        metrics = layer_metrics(tracer, outcome.detail)
        trace_dir = os.path.join(scratch, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        tracer.chrome_trace(path)
        detail["chrome_trace"] = os.path.relpath(path, ROOT)
        detail["spans"] = len(tracer.spans)
        detail["traced_round_wall_s"] = outcome.detail["traced_s"]
        detail["untraced_round_wall_s"] = outcome.detail["untraced_s"]
    print(json.dumps(detail, default=str))
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
