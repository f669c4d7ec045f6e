"""Turn measured phases into printed metrics and the result line."""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

from common import Phase, beyond, compare_exact, peak_rss_mb, percentile
from spans import Tracer, layer_metrics

#: units of the figures a workload adds beside the shared metrics
EXTRA_UNITS = {
    "passes": "count",
    "rounds": "count",
    "compile_s": "s",
    "sim_words_per_s": "words/s",
    "sim_cycles": "cycles",
    "code_words": "words",
    "offered_rps": "req/s",
    "misses": "count",
}

#: per-layer metrics measured by the load generator, not by spans; a
#: workload that does not serve over HTTP reports them as zero
CLIENT_LAYERS = (
    "service.hit_latency_p50_ms",
    "service.hit_latency_p99_ms",
    "service.hit_ratio",
    "service.miss_latency_p50_ms",
    "service.coalesced",
    "service.rejected",
    "loadgen.lag_p99_ms",
    "loadgen.backlog_max",
)


def _print_failures(name: str, phase: Phase) -> None:
    for request in phase.failures:
        print(f"{name}: FAILED {request.label}: {request.error}")
    for reason in phase.invalid:
        print(f"{name}: INVALID RUN: {reason}")


def _latency_lines(name: str, lat: List[float]) -> None:
    for q in (50, 90, 99):
        print(
            f"{name} latency_p{q}_ms = {percentile(lat, q):.3f} ms "
            f"(n={len(lat)}, {beyond(len(lat), q)} beyond)"
        )


def run_untraced(workload, seconds: float, bench: Dict[str, Any]) -> Dict[str, Any]:
    try:
        setup_s = workload.setup()
        phase = workload.measure(seconds)
    finally:
        workload.close()
    lat = phase.latencies_ms()
    limit = workload.latency_limit_ms
    good = [
        r for r in phase.requests
        if r.ok and (limit is None or r.latency_s * 1000.0 <= limit)
    ]
    rss = phase.peak_rss_mb if phase.peak_rss_mb is not None else peak_rss_mb()
    metrics = {
        "setup_s": setup_s,
        "requests_per_s": len(good) / phase.elapsed_s,
        "latency_p50_ms": percentile(lat, 50),
        "peak_rss_mb": rss,
    }
    name = workload.name
    _print_failures(name, phase)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
    if limit is not None:
        print(f"{name} goodput_rps = {metrics['requests_per_s']:.6g} req/s "
              f"(correct within {limit:g} ms: the requests_per_s of an open loop)")
    _latency_lines(name, lat)
    attempted = len(phase.requests)
    print(f"{name} error_ratio = {len(phase.failures) / max(attempted, 1):.6g} "
          f"({len(phase.failures)} of {attempted} failed or wrong)")
    for key, value in phase.extra.items():
        print(f"{name} {key} = {value:.6g} {EXTRA_UNITS[key]}")
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for key, value in phase.layers.items():
        print(f"{name} {key} = {value:.6g} {layer_units[key]}")
    return _result(phase, metrics, bench["end_to_end"])


def run_traced(workload, seconds: float, bench: Dict[str, Any]) -> Dict[str, Any]:
    tracer = Tracer()
    try:
        workload.setup()
        plain = workload.measure(seconds / 2)
        if workload.in_process:
            tracer.install()
        try:
            traced = workload.measure(seconds / 2, count=len(plain.requests), tracer=tracer)
        finally:
            tracer.uninstall()
    finally:
        workload.close()
    name = workload.name
    _print_failures(name, plain)
    _print_failures(name, traced)
    mismatches = compare_exact(plain, traced)
    for line in mismatches:
        print(f"{name}: TRACED RUN DIFFERS: {line}")
    ratios = [
        b.latency_s / a.latency_s
        for a, b in zip(plain.requests, traced.requests)
        if a.label == b.label and a.latency_s > 0
    ]
    metrics = layer_metrics(tracer.imported or tracer.export(), len(traced.requests))
    metrics.update(dict.fromkeys(CLIENT_LAYERS, 0.0))
    metrics.update(traced.layers)
    metrics["trace.overhead_pct"] = (statistics.median(ratios) - 1.0) * 100.0
    print(
        f"{name} tracing overhead: median traced/untraced latency of the same request "
        f"{metrics['trace.overhead_pct']:+.2f}% over {len(ratios)} requests"
    )
    declared = [m["name"] for m in bench["per_layer"]]
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {', '.join(missing)}")
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for key in declared:
        print(f"{name} {key} = {metrics[key]:.6g} {units[key]}")
    merged = Phase(plain.requests + traced.requests, invalid=plain.invalid + traced.invalid)
    merged.invalid += [f"exact counts differ: {m}" for m in mismatches]
    return _result(merged, {k: metrics[k] for k in declared}, bench["per_layer"])


def _result(phase: Phase, metrics: Dict[str, float], declared) -> Dict[str, Any]:
    units = {m["name"]: m["unit"] for m in declared}
    return {
        "correct": not phase.failures and not phase.invalid,
        "attempted": len(phase.requests),
        "failed": len(phase.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
