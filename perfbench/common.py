"""Shared pieces of the benchmark: statistics, timing, memory, records."""

from __future__ import annotations

import importlib
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

clock = time.perf_counter

#: each workload sets up this many times per run and reports the median
SETUP_REPEATS = 3


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return int(n * (100.0 - q) / 100.0)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """High-water resident set size (``VmHWM``) of a process, in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def timed_setup(step: Callable[[], Any]) -> float:
    """Run a set-up step :data:`SETUP_REPEATS` times; the median seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        step()
        times.append(clock() - start)
    return statistics.median(times)


def timed_import(root: str, modules: Sequence[str]) -> float:
    """Median seconds for a fresh interpreter to import ``modules`` (a cold
    start of the layers a workload uses); then imports them here, so the
    first request is not charged with lazy imports."""
    code = "import " + ", ".join(modules)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    setup_s = timed_setup(
        lambda: subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=root)
    )
    for name in modules:
        importlib.import_module(name)
    return setup_s


@dataclass
class Request:
    """One served request: its latency, verdict and exact counts."""

    label: str
    latency_s: float
    ok: bool
    error: Optional[str] = None
    #: deterministic counts that must repeat exactly for the same input
    exact: Any = None


@dataclass
class Phase:
    """Everything one measured phase of a workload produced."""

    requests: List[Request] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: workload-specific figures printed beside the shared metrics
    extra: Dict[str, Any] = field(default_factory=dict)
    #: per-layer metrics this phase measured outside the tracer
    layers: Dict[str, float] = field(default_factory=dict)
    #: reasons the phase cannot be trusted (checked after it ran)
    invalid: List[str] = field(default_factory=list)
    #: high-water RSS of the serving process, when it is not this one
    peak_rss_mb: Optional[float] = None

    @property
    def failures(self) -> List[Request]:
        return [r for r in self.requests if not r.ok]

    def latencies_ms(self) -> List[float]:
        return [r.latency_s * 1000.0 for r in self.requests]


def closed_loop(rounds, serve, seconds: float, count: int = 0, tracer=None):
    """One client serving whole rounds of requests; returns (phase, rounds).

    Rounds are served until ``seconds`` have passed, so every seed
    measures whole rounds; with ``count``, exactly that many requests of
    the same sequence are served.  ``tracer.rid`` names the
    request each span belongs to.
    """
    phase = Phase()
    start = clock()
    done = 0
    for batch in rounds:
        for item in batch:
            if count and len(phase.requests) == count:
                break
            if tracer is not None:
                tracer.rid = len(phase.requests)
            phase.requests.append(serve(item))
        done += 1
        if len(phase.requests) == count or (not count and clock() - start >= seconds):
            break
    phase.elapsed_s = clock() - start
    return phase, done


def compare_exact(first: Phase, second: Phase) -> List[str]:
    """Requests whose exact counts differ between two runs of one input."""
    return [
        f"{a.label}: {a.exact} != {b.exact}"
        for a, b in zip(first.requests, second.requests)
        if a.label == b.label and a.exact != b.exact
    ]
