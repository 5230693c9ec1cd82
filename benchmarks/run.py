#!/usr/bin/env python3
"""Run one lipnet benchmark workload, check its outputs, print its metrics.

Run from the repository root (the program is imported from ./src):

    python3 benchmarks/run.py --workload train_regularized --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1

--trace 0 reports the end-to-end metrics, timed with only a step clock
installed (aggregated_loss, SGD.step, train, sweep, audit_empirical_k).
--trace 1 wraps every public function of the program's modules and reports
the per-layer metrics, alternating traced and clock-only tasks to measure
the tracing overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every output check passed. A host fingerprint line precedes it, and the
full result plus the recorded spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import host
import metrics
import spec
import tracing

N_SETUPS = 5
MIN_TASKS = 2
WORKLOAD_NAMES = tuple(name for name, _ in spec.WORKLOADS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_tasks(wl, state, work, checks, seconds, min_tasks,
              context=lambda i: contextlib.nullcontext()) -> list:
    """Repeat the workload's task until ``seconds`` have passed and at least
    ``min_tasks`` ran, task i inside ``context(i)``. Returns each task's
    wall seconds."""
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < min_tasks or time.perf_counter() < deadline:
        with context(len(walls)):
            t0 = time.perf_counter()
            checks.op(f"task {len(walls) + 1}", wl.task, state, work, checks)
            walls.append(time.perf_counter() - t0)
    return walls


def run_end_to_end(wl, seed, seconds, work, checks):
    clock = tracing.Tracer(tracing.CLOCK_NAMES)
    setup_s = []
    with clock:
        for i in range(N_SETUPS):
            t0 = time.perf_counter()
            state = checks.op(f"setup {i + 1}", wl.setup, seed, work, checks)
            setup_s.append(time.perf_counter() - t0)
            if state is None:
                return None, {}
        clock.phase = "task"
        walls = run_tasks(wl, state, work, checks, seconds, MIN_TASKS)
        clock.phase = "post"
        quality = checks.op("post", wl.post, state, work, checks)
    if quality is None:
        return None, {}
    values, notes = metrics.end_to_end(clock.spans, setup_s, walls, quality, peak_rss_mb())
    return values, {"notes": notes, "spans": clock}


def run_traced(wl, seed, seconds, work, checks):
    full = tracing.Tracer()
    clock = tracing.Tracer(tracing.CLOCK_NAMES)
    with full:
        state = checks.op("setup", wl.setup, seed, work, checks)
    if state is None:
        return None, {}
    full.phase = clock.phase = "task"
    bounds = []

    def alternate(i):
        # Traced tasks are the even ones, so the first task is traced.
        if i % 2:
            return clock
        bounds.append(len(full.spans))
        return full

    # two traced tasks at least, so that their counts can be compared
    walls = run_tasks(wl, state, work, checks, seconds, 2 * MIN_TASKS, alternate)
    traced, untraced = walls[0::2], walls[1::2]
    starts = bounds + [len(full.spans)]
    per_task = [full.spans[a:b] for a, b in zip(starts, starts[1:])]
    counts = [metrics.deterministic_counts(s) for s in per_task]
    checks.op("post", wl.post, state, work, checks)

    def counts_repeat():
        for c in counts[1:]:
            checks.expect(c == counts[0], f"deterministic counts differ: {c} vs {counts[0]}")

    checks.op("deterministic counts", counts_repeat)
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    mismatch = state.get("mismatch") or [0]
    values = metrics.per_layer(full.spans, len(traced), overhead,
                               statistics.fmean(mismatch))
    return values, {"notes": {"traced_tasks": len(traced), "untraced_tasks": len(untraced),
                              "deterministic_counts": counts[0]},
                    "spans": full}


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        print(f"== {name}: exit {proc.returncode}, correct={result.get('correct')}, "
              f"attempted={result.get('attempted')}, failed={result.get('failed')}")
        for metric, v in result.get("metrics", {}).items():
            print(f"  {metric:40s} {v['value']:>16.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "lipnet" / "__init__.py").is_file():
        print(f"error: {src / 'lipnet'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, Checks  # imports lipnet from ./src

    wl = WORKLOADS[args.workload]
    work = root / ".bench_run" / f"{args.workload}-trace{args.trace}"
    out_dir = root / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    checks = Checks()
    runner = run_traced if args.trace else run_end_to_end
    wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
    try:
        values, extra = runner(wl, args.seed, args.seconds, work, checks)
    except Exception:  # a metric could not be computed: report, fail
        checks.errors.append(f"metrics: {traceback.format_exc()}")
        checks.attempted += 1
        checks.failed += 1
        values, extra = None, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result_metrics = {}
    if values is not None:
        differ = {m[0] for m in wanted} ^ set(values)
        if differ:
            raise RuntimeError(f"metrics out of step with spec.py: {sorted(differ)}")
        result_metrics = {m[0]: {"value": float(values[m[0]]), "unit": m[1]} for m in wanted}
    correct = checks.failed == 0 and values is not None
    result = {"correct": correct, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": result_metrics}

    fingerprint = host.fingerprint()
    stem = out_dir / f"{args.workload}-trace{args.trace}"
    if "spans" in extra:
        extra["spans"].dump_csv(stem.with_name(stem.name + "-spans.csv"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": fingerprint, "notes": extra.get("notes"),
              "errors": checks.errors, "result": result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for err in checks.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print("host: " + json.dumps(fingerprint))
    if extra.get("notes"):
        print("notes: " + json.dumps(extra["notes"]))
    for name, v in result_metrics.items():
        print(f"{name:40s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
