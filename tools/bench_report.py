#!/usr/bin/env python
"""Benchmark snapshot and regression gates.

Four subcommands:

``run``
    Executes the housekeeping throughput benchmarks
    (``benchmarks/test_simulator_throughput.py``, one
    ``pytest --benchmark-only`` farm job per benchmark) and writes a
    dated snapshot, ``BENCH_<YYYY-MM-DD>.json``, recording the
    mean/stddev wall time of the simulator, compiler, and kernel-boot
    benchmarks.

``compare``
    Runs the same benchmarks and compares the fresh numbers against the
    most recent committed ``BENCH_*.json`` snapshot (or an explicit
    ``--against FILE``).  Exits non-zero if any benchmark's mean time
    regressed by more than the threshold (default 20%); the failure
    message names the worst-regressing benchmark.

``cycles``
    The deterministic gate.  Simulates the quick corpus under counters
    and compares the per-workload cycle/stall/memory counters against
    the committed ``PERF_BASELINE.json``; any counter growing more than
    2% fails, naming the worst-offending workload and counter.  Cycle
    counts are exact, so this gate is **blocking** in CI while the
    wall-clock ``compare`` gate above is a nightly backstop.

``update-baseline``
    Rewrites ``PERF_BASELINE.json`` from a fresh collection.  Run after
    an intended cycle-count change and commit the diff -- the diff *is*
    the reviewable record of the regression/improvement.

``dispatch`` / ``update-dispatch-baseline``
    The machine-independent throughput floor.  Simulates the quick
    corpus on the fast engine and gates the per-workload *dispatch
    counts* (per-word handler entries + reference steps, from the
    engine's deterministic accounting) against the
    committed ``DISPATCH_BASELINE.json``; any workload growing more
    than 2% fails, naming the worst offender.  This is what lets CI
    block on throughput without ever reading a clock -- wall-clock
    benchmarks stay nightly-only.

Benchmark execution goes through :mod:`repro.farm`: each benchmark is
one job with a wall-clock budget and transient-failure retries, and
``--jobs N`` shards them over worker processes (keep the default of 1
for timing fidelity on small machines -- concurrent benchmarks steal
each other's cycles).  The deterministic gates (``cycles``,
``dispatch``) additionally accept ``--cache DIR``: counters are exact
per content-addressed job key, so a repeat gate run against a warm
cache (e.g. one populated by ``mips-serve``) re-simulates nothing.
They also accept ``--host SPEC`` (repeatable): the collection then runs
on the distributed farm's shard hosts, and because the counters are
exact per job key the gate verdict is identical wherever the workloads
simulated.

Usage::

    PYTHONPATH=src python tools/bench_report.py run
    PYTHONPATH=src python tools/bench_report.py compare
    PYTHONPATH=src python tools/bench_report.py compare --against BENCH_2026-08-06.json
    PYTHONPATH=src python tools/bench_report.py cycles
    PYTHONPATH=src python tools/bench_report.py update-baseline
"""

from __future__ import annotations

import argparse
import datetime as _dt
import glob
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILE = os.path.join("benchmarks", "test_simulator_throughput.py")
DEFAULT_THRESHOLD = 0.20
#: generous per-benchmark wall budget; a wedged benchmark is killed,
#: retried once, and reported instead of hanging CI
BENCH_TIMEOUT_S = 900.0

sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def _collect_benchmark_names() -> list:
    """The benchmark test names, in file order (via pytest collection)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        # -o addopts= neutralizes the project's default -q so the node
        # ids (not just a per-file count) are printed
        [sys.executable, "-m", "pytest", BENCH_FILE, "--collect-only", "-q", "-o", "addopts="],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        raise SystemExit(
            f"benchmark collection failed (exit {result.returncode}):\n{result.stdout}{result.stderr}"
        )
    names = []
    for line in result.stdout.splitlines():
        if "::" in line:
            names.append(line.split("::", 1)[1].strip())
    if not names:
        raise SystemExit(f"no benchmarks collected from {BENCH_FILE}")
    return names


def _run_benchmarks(jobs: int = 1) -> dict:
    """Run the throughput benchmarks; return {name: {mean, stddev, rounds}}.

    Each benchmark is submitted as a farm job: isolated interpreter,
    per-job timeout, transient failures retried with backoff.
    """
    from repro.farm import Job, Scheduler

    names = _collect_benchmark_names()
    job_list = [
        Job(
            kind="bench",
            name=name,
            spec={
                "file": BENCH_FILE,
                "cwd": REPO_ROOT,
                "pythonpath": [os.path.join(REPO_ROOT, "src")],
            },
            timeout_s=BENCH_TIMEOUT_S,
        )
        for name in names
    ]
    records = Scheduler(jobs=jobs, max_attempts=2).run(job_list)
    benchmarks = {}
    failed = []
    for record in records:
        if record["status"] != "ok":
            error = record.get("error") or {}
            failed.append(f"{record['name']} [{record['status']}] {error.get('message', '')}")
            continue
        benchmarks[record["name"]] = dict(record["extra"]["bench"])
    if failed:
        raise SystemExit("benchmark run failed:\n" + "\n".join(failed))
    return benchmarks


def _snapshot_paths() -> list:
    return sorted(glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")))


def format_gate_failure(failures: list, threshold: float) -> str:
    """The regression-gate failure message.

    Names the worst-regressing benchmark explicitly (not just a mean
    delta) so a red CI run says what to look at; the rest follow.
    """
    worst_name, worst_ratio = max(failures, key=lambda item: item[1])
    lines = [
        f"FAIL: worst regression: {worst_name} at {worst_ratio:.0%} of baseline "
        f"(+{(worst_ratio - 1):.0%}, threshold +{threshold:.0%})"
    ]
    others = [(n, r) for n, r in sorted(failures, key=lambda item: -item[1]) if n != worst_name]
    if others:
        lines.append(
            "also regressed: " + ", ".join(f"{name} ({ratio:.2f}x)" for name, ratio in others)
        )
    return "\n".join(lines)


def cmd_run(args: argparse.Namespace) -> int:
    benchmarks = _run_benchmarks(jobs=args.jobs)
    date = args.date or _dt.date.today().isoformat()
    snapshot = {
        "date": date,
        "python": sys.version.split()[0],
        "benchmarks": benchmarks,
    }
    out_path = os.path.join(REPO_ROOT, f"BENCH_{date}.json")
    with open(out_path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(out_path, REPO_ROOT)}")
    for name, stats in sorted(benchmarks.items()):
        print(f"  {name}: {stats['mean_s'] * 1e3:.1f} ms")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if args.against:
        base_path = args.against
        if not os.path.exists(base_path):
            raise SystemExit(f"baseline snapshot not found: {base_path}")
    else:
        snapshots = _snapshot_paths()
        if not snapshots:
            print("no BENCH_*.json snapshot to compare against; skipping gate")
            return 0
        base_path = snapshots[-1]
    with open(base_path) as fh:
        baseline = json.load(fh)["benchmarks"]
    print(f"baseline: {os.path.relpath(base_path, REPO_ROOT)}")
    current = _run_benchmarks(jobs=args.jobs)

    failures = []
    for name, stats in sorted(current.items()):
        base = baseline.get(name)
        if base is None:
            print(f"  {name}: {stats['mean_s'] * 1e3:.1f} ms (new, no baseline)")
            continue
        ratio = stats["mean_s"] / base["mean_s"] if base["mean_s"] else float("inf")
        verdict = "ok"
        if ratio > 1.0 + args.threshold:
            verdict = "REGRESSION"
            failures.append((name, ratio))
        print(
            f"  {name}: {stats['mean_s'] * 1e3:.1f} ms vs "
            f"{base['mean_s'] * 1e3:.1f} ms ({ratio:.0%} of baseline) {verdict}"
        )
    if failures:
        print(format_gate_failure(failures, args.threshold))
        return 1
    print("benchmark gate passed")
    return 0


def _gate_cache(args):
    """The persistent result cache for the deterministic gates, if asked.

    Counters and dispatch counts are exact per job key, so a warm cache
    serves a repeated gate run without re-simulating a single workload
    -- CI and local pre-commit loops share the directory.
    """
    if not getattr(args, "cache", None):
        return None
    from repro.service.cache import ResultCache

    return ResultCache(args.cache)


PERF_BASELINE = os.path.join(REPO_ROOT, "PERF_BASELINE.json")


def cmd_cycles(args: argparse.Namespace) -> int:
    from repro.perf import baseline as perf_baseline

    current = perf_baseline.collect_cycles(
        jobs=args.jobs, cache=_gate_cache(args), hosts=args.host
    )
    for name, counters in current.items():
        print(f"  {name}: {counters['cycles']} cycles, {counters['load_stalls']} stalls")
    gate_path = args.gate or PERF_BASELINE
    if not os.path.exists(gate_path):
        print(f"no baseline at {os.path.relpath(gate_path, REPO_ROOT)}; skipping gate")
        return 0
    baseline = perf_baseline.load_baseline(gate_path)
    threshold = args.threshold if args.threshold is not None else baseline.get(
        "threshold", perf_baseline.DEFAULT_THRESHOLD
    )
    regressions = perf_baseline.compare(baseline, current, threshold)
    print(perf_baseline.render_gate(regressions, threshold), end="")
    return 1 if regressions else 0


def cmd_update_baseline(args: argparse.Namespace) -> int:
    from repro.perf import baseline as perf_baseline

    current = perf_baseline.collect_cycles(jobs=args.jobs)
    perf_baseline.write_baseline(PERF_BASELINE, current)
    print(f"wrote {os.path.relpath(PERF_BASELINE, REPO_ROOT)}")
    for name, counters in current.items():
        print(f"  {name}: {counters['cycles']} cycles")
    return 0


DISPATCH_BASELINE = os.path.join(REPO_ROOT, "DISPATCH_BASELINE.json")


def cmd_dispatch(args: argparse.Namespace) -> int:
    """The machine-independent throughput floor.

    Wall-clock throughput is proportional to how many dispatches the
    engine pays per workload, and -- unlike wall clock -- the dispatch
    count under the fast engine is exactly reproducible on any machine.
    Any workload whose count grows past the threshold fails, naming the
    worst offender.
    """
    from repro.perf import baseline as perf_baseline

    current = perf_baseline.collect_dispatch(
        jobs=args.jobs, cache=_gate_cache(args), hosts=args.host
    )
    for name, counters in current.items():
        print(f"  {name}: {counters['dispatches']} dispatches, {counters['ref_steps']} ref steps")
    gate_path = args.gate or DISPATCH_BASELINE
    if not os.path.exists(gate_path):
        print(f"no baseline at {os.path.relpath(gate_path, REPO_ROOT)}; skipping gate")
        return 0
    baseline = perf_baseline.load_baseline(gate_path)
    threshold = args.threshold if args.threshold is not None else baseline.get(
        "threshold", perf_baseline.DEFAULT_THRESHOLD
    )
    regressions = perf_baseline.compare(baseline, current, threshold)
    print(
        perf_baseline.render_gate(
            regressions,
            threshold,
            gate_name="dispatch gate",
            refresh_command="python tools/bench_report.py update-dispatch-baseline",
        ),
        end="",
    )
    return 1 if regressions else 0


def cmd_update_dispatch_baseline(args: argparse.Namespace) -> int:
    from repro.perf import baseline as perf_baseline

    current = perf_baseline.collect_dispatch(jobs=args.jobs)
    perf_baseline.write_baseline(
        DISPATCH_BASELINE, current, counters=perf_baseline.DISPATCH_COUNTERS
    )
    print(f"wrote {os.path.relpath(DISPATCH_BASELINE, REPO_ROOT)}")
    for name, counters in current.items():
        print(f"  {name}: {counters['dispatches']} dispatches")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run benchmarks, write BENCH_<date>.json")
    run_p.add_argument("--date", help="override the snapshot date stamp")
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="farm workers (default 1; parallel benchmarks perturb timings)",
    )
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run benchmarks, gate vs last snapshot")
    cmp_p.add_argument("--against", help="explicit baseline snapshot path")
    cmp_p.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="max tolerated slowdown fraction (default 0.20)",
    )
    cmp_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="farm workers (default 1; parallel benchmarks perturb timings)",
    )
    cmp_p.set_defaults(func=cmd_compare)

    cyc_p = sub.add_parser("cycles", help="deterministic counter gate vs PERF_BASELINE.json")
    cyc_p.add_argument("--gate", help="explicit baseline path (default PERF_BASELINE.json)")
    cyc_p.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="max tolerated counter growth fraction (default: baseline's, 0.02)",
    )
    cyc_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="farm workers (counters are deterministic; parallelism is free here)",
    )
    cyc_p.add_argument(
        "--cache",
        metavar="DIR",
        help="persistent result cache: repeat gate runs are served without "
        "re-simulating (counters are content-addressed by job key)",
    )
    cyc_p.add_argument(
        "--host",
        action="append",
        default=[],
        metavar="SPEC",
        help="collect on the distributed farm shard host at HOST:PORT "
        "(repeatable; counters and gate verdict are identical either way)",
    )
    cyc_p.set_defaults(func=cmd_cycles)

    upd_p = sub.add_parser("update-baseline", help="rewrite PERF_BASELINE.json from a fresh run")
    upd_p.add_argument("--jobs", type=int, default=1)
    upd_p.set_defaults(func=cmd_update_baseline)

    dis_p = sub.add_parser(
        "dispatch", help="deterministic dispatch-count gate vs DISPATCH_BASELINE.json"
    )
    dis_p.add_argument("--gate", help="explicit baseline path (default DISPATCH_BASELINE.json)")
    dis_p.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="max tolerated dispatch growth fraction (default: baseline's, 0.02)",
    )
    dis_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="farm workers (dispatch counts are deterministic; parallelism is free here)",
    )
    dis_p.add_argument(
        "--cache",
        metavar="DIR",
        help="persistent result cache: repeat gate runs are served without "
        "re-simulating (dispatch counts are content-addressed by job key)",
    )
    dis_p.add_argument(
        "--host",
        action="append",
        default=[],
        metavar="SPEC",
        help="collect on the distributed farm shard host at HOST:PORT "
        "(repeatable; dispatch counts and gate verdict are identical either way)",
    )
    dis_p.set_defaults(func=cmd_dispatch)

    dup_p = sub.add_parser(
        "update-dispatch-baseline",
        help="rewrite DISPATCH_BASELINE.json from a fresh run",
    )
    dup_p.add_argument("--jobs", type=int, default=1)
    dup_p.set_defaults(func=cmd_update_dispatch_baseline)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
