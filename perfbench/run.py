"""The repository benchmark: seeded workloads through the public API.

    python3 perfbench/run.py --workload toolchain --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each invocation is one fresh process
running one workload (``toolchain``, ``multiprog``, ``serve``, ``fuzz``;
see ``BENCHMARK.json`` for why each exists).  It sets up
:data:`common.SETUP_REPEATS` times, measures for ``--seconds``, checks
every output against its oracle, prints every metric it measured by
name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed.  With ``--trace 1`` the run measures the workload
untraced for half the time, then replays the same requests with a
timing span around every layer's entry point, and reports the per-layer
metrics of the traced half plus the tracing overhead between the two.
Exact counts must match between the halves.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_benchmark() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _workloads():
    from fuzzload import Fuzz
    from multiprog import Multiprog
    from serve import Serve
    from toolchain import Toolchain

    return {w.name: w for w in (Toolchain, Multiprog, Serve, Fuzz)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = _load_benchmark()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        _fail(f"no program under test: {os.path.join(ROOT, 'src', 'repro')} is missing")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workloads = _workloads()
    if args.workload not in workloads:
        _fail(f"unknown workload {args.workload!r} (have {', '.join(workloads)})")

    from report import run_traced, run_untraced

    workload = workloads[args.workload](ROOT, args.seed, bench)
    if args.trace:
        result = run_traced(workload, args.seconds, bench)
    else:
        result = run_untraced(workload, args.seconds, bench)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
