"""The ``serve`` workload: the gateway, cache and farm service path.

An open loop.  The gateway runs as its own ``mips-serve serve`` process
(default ``--jobs 1``) over a fresh cache directory, with a hot set of
corpus jobs warmed through ``/warm`` in set-up.  Requests arrive as a
Poisson process at the offered rate, each one ``/submit`` of one job:

- about 85% repeat a hot job: cache reads;
- about 10% are fresh jobs, drawn without replacement from
  :func:`_fresh_jobs`: each compiles, simulates and writes the cache;
- about 5% duplicate a fresh job at the same instant, so the gateway
  coalesces it with the in-flight miss.

Every seed sends the same number of each kind and the same fresh jobs;
the seed sets the arrival times, the order and which hot job repeats.

The generator is one thread with at most :data:`CONNECTIONS`
connections open.  A request's latency runs from when it was due, so a
stall also charges the requests queued behind it.  Every record's
output must match the corpus oracle, and after the run every fresh job
is fetched again, now a cache hit, and must read byte-identical to the
line its miss returned.  The offered rate and the latency limit are
read from the workload's line in ``BENCHMARK.json``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

from common import Phase, Request, peak_rss_mb, percentile, timed_setup

HERE = os.path.dirname(os.path.abspath(__file__))

#: concurrent connections of the load generator (the host's core count)
CONNECTIONS = 2
#: the hot set: warmed in set-up, then repeated as cache hits
HOT = (
    "scanner", "vlsi_rects", "strings", "sort", "sieve", "logic",
    "fib_recursive", "fib_iterative", "mj_list",
)
#: shares of the arrivals: fresh misses, and duplicates per miss
MISS_SHARE = 0.10 / 0.95
DUPLICATE_PER_MISS = 0.5
LEVELS = ("none", "reorganize", "pack", "branch-delay")
HAZARDS = ("bare", "checked", "interlocked")
#: a generator more than this late at its 99th percentile invalidates
#: the run: the offered load was not the load the benchmark claims
LAG_LIMIT_MS = 50.0
REQUEST_TIMEOUT_S = 60.0
#: how the gateway served a one-job request, by its reply header
REPLY_KINDS = (("hit", "x-cache-hits"), ("miss", "x-cache-misses"), ("coalesced", "x-coalesced"))
TENANT = "perfbench"


def _offered_load(bench: Dict[str, Any]):
    why = next(w["why"] for w in bench["workloads"] if w["name"] == "serve")
    rate = re.search(r"(\d+(?:\.\d+)?) req/s", why)
    limit = re.search(r"limit (\d+) ms", why)
    if not rate or not limit:
        raise ValueError(f"serve workload in BENCHMARK.json names no rate or limit: {why!r}")
    return float(rate.group(1)), float(limit.group(1))


def _job(name: str, hazard: str, level: str, regalloc: bool) -> Dict[str, Any]:
    return {
        "kind": "workload",
        "name": name,
        "spec": {"register_allocation": regalloc},
        "hazard_mode": hazard,
        "opt_level": level,
    }


def _fresh_jobs() -> List[Dict[str, Any]]:
    """The fresh jobs: every corpus program once.

    Hazard mode, opt level and register allocation rotate across the
    programs, so each value of every job dimension is drawn and no fresh
    job is a hot one.  Interlocked hardware runs only naively ordered
    code: the reorganizer's delay-slot schedules assume the bare pipeline.
    """
    from repro.workloads import MINIJAVA_PROGRAMS, QUICK_PROGRAMS

    jobs = []
    for i, name in enumerate(tuple(QUICK_PROGRAMS) + tuple(MINIJAVA_PROGRAMS)):
        hazard = HAZARDS[(i + 1) % len(HAZARDS)]
        level = "none" if hazard == "interlocked" else LEVELS[(i + 1) % len(LEVELS)]
        jobs.append(_job(name, hazard, level, i % 2 == 1))
    return jobs


class _Gateway:
    """One ``mips-serve serve`` process over its own cache directory."""

    def __init__(self, root: str, scratch: str, spans_path: Optional[str] = None):
        self.cache = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        self.spans_path = spans_path
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        serve = ["serve", "--port", "0", "--cache", self.cache]
        if spans_path:
            argv = [sys.executable, os.path.join(HERE, "serve_launcher.py"), spans_path] + serve
        else:
            argv = [sys.executable, "-c",
                    "import sys; from repro.cli import serve_main; sys.exit(serve_main())"] + serve
        self.proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        banner = self.proc.stdout.readline()
        found = re.search(r"listening on http://[^:]+:(\d+)", banner)
        if not found:
            self.stop()
            raise RuntimeError(f"gateway did not start: {banner!r}")
        self.port = int(found.group(1))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.cache, ignore_errors=True)


async def _submit(port: int, jobs: List[Dict[str, Any]]):
    """POST /submit; returns (status, headers, body lines)."""
    body = json.dumps({"jobs": jobs}).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            (f"POST /submit HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Tenant: {TENANT}\r\n"
             f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n").encode()
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, payload.decode().splitlines()


class Serve:
    name = "serve"
    in_process = False

    def __init__(self, root: str, seed: int, bench: dict):
        self.root = root
        self.seed = seed
        self.rate, self.latency_limit_ms = _offered_load(bench)
        self.gateway: Optional[_Gateway] = None
        os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="serve-", dir=os.path.join(root, ".perfbench"))

    # -- set-up ----------------------------------------------------------------

    def _start(self, traced: bool = False) -> None:
        """A fresh gateway over an empty cache, its hot set warmed."""
        from repro.service import ServiceClient

        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None
        spans = os.path.join(self.scratch, "spans.json") if traced else None
        self.gateway = _Gateway(self.root, self.scratch, spans)
        summary = ServiceClient(port=self.gateway.port, tenant=TENANT).warm(list(HOT))
        if summary["by_status"] != {"ok": len(HOT)}:
            raise RuntimeError(f"warming the hot set failed: {summary}")

    def setup(self) -> float:
        from repro.workloads import EXPECTED_OUTPUT, MINIJAVA_EXPECTED

        self.expected = {**EXPECTED_OUTPUT, **MINIJAVA_EXPECTED}
        self.fresh = _fresh_jobs()
        return timed_setup(self._start)

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- the load ----------------------------------------------------------------

    def _schedule(self, seconds: float):
        """(due time, label, job) arrivals: a seeded Poisson process with
        exactly ``rate * seconds`` base arrivals in ``seconds``."""
        rng = random.Random(self.seed)
        base = sorted(rng.uniform(0.0, seconds) for _ in range(round(self.rate * seconds)))
        fresh = list(self.fresh)
        rng.shuffle(fresh)
        misses = rng.sample(range(len(base)), min(len(fresh), round(len(base) * MISS_SHARE)))
        duplicated = set(rng.sample(misses, round(len(misses) * DUPLICATE_PER_MISS)))
        misses = set(misses)
        schedule = []
        for i, due in enumerate(base):
            if i not in misses:
                schedule.append((due, "hit", _job(rng.choice(HOT), "bare", "branch-delay", True)))
                continue
            job = fresh.pop()
            schedule.append((due, "miss", job))
            if i in duplicated:
                schedule.append((due, "dup", job))
        return [
            (due, f"{i}:{kind}:{job['name']}@{job['hazard_mode']}/{job['opt_level']}"
                  f"/ra{int(job['spec']['register_allocation'])}", job)
            for i, (due, kind, job) in enumerate(schedule)
        ]

    def _check(self, job, status: int, lines: List[str]) -> Optional[str]:
        if status != 200:
            return f"HTTP {status}: {' '.join(lines)[:200]}"
        if len(lines) != 1:
            return f"{len(lines)} result lines for one job"
        try:
            record = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            return f"unreadable result line: {exc}"
        if record["status"] != "ok":
            return f"status {record['status']}: {record.get('error')}"
        expected = self.expected[job["name"]]
        if record["output"] != expected:
            return f"output {record['output']} != oracle {expected}"
        return None

    async def _drive(self, schedule, port: int):
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        lags: List[float] = []
        backlog = [0]
        results: List[Any] = [None] * len(schedule)
        t0 = loop.time() + 0.05

        async def dispatcher():
            for index, (due, _label, _job) in enumerate(schedule):
                delay = t0 + due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                lags.append(loop.time() - (t0 + due))
                queue.put_nowait(index)
                backlog[0] = max(backlog[0], queue.qsize())
            for _ in range(CONNECTIONS):
                queue.put_nowait(None)

        async def connection():
            while True:
                index = await queue.get()
                if index is None:
                    return
                due, _label, job = schedule[index]
                try:
                    reply = await asyncio.wait_for(_submit(port, [job]), REQUEST_TIMEOUT_S)
                except (asyncio.TimeoutError, OSError, ValueError, IndexError) as exc:
                    reply = (0, {}, [f"{type(exc).__name__}: {exc}"])
                results[index] = (loop.time() - (t0 + due), reply)

        await asyncio.gather(dispatcher(), *(connection() for _ in range(CONNECTIONS)))
        return results, lags, backlog[0], loop.time() - t0

    def measure(self, seconds: float, count: int = 0, tracer=None) -> Phase:
        """The open loop for ``seconds``; ``count`` does not apply (the
        same schedule is replayed), and ``tracer`` receives the spans a
        traced gateway records."""
        if tracer is not None or self.gateway is None:
            self._start(traced=tracer is not None)
        schedule = self._schedule(seconds)
        results, lags, backlog, elapsed = asyncio.run(self._drive(schedule, self.gateway.port))
        phase = Phase(elapsed_s=elapsed)
        first_line: Dict[str, str] = {}
        by_kind: Dict[str, List[float]] = {"hit": [], "miss": [], "coalesced": []}
        rejected = 0
        for (due, label, job), (latency, (status, headers, lines)) in zip(schedule, results):
            error = self._check(job, status, lines)
            key = json.dumps(job, sort_keys=True)
            if error is None:
                line = lines[0]
                if first_line.setdefault(key, line) != line:
                    error = "stable view differs from an earlier reply for the same job"
            rejected += status == 429
            kind = next((k for k, header in REPLY_KINDS if headers.get(header) == "1"), None)
            if kind is not None:
                by_kind[kind].append(latency * 1000.0)
            exact = hashlib.sha256(lines[0].encode()).hexdigest()[:16] if error is None else None
            phase.requests.append(Request(label, latency, error is None, error, exact))
        phase.invalid += self._recheck_hits(schedule, first_line)
        lag_p99 = percentile(lags, 99) * 1000.0
        if lag_p99 > LAG_LIMIT_MS:
            phase.invalid.append(
                f"load generator ran {lag_p99:.1f} ms late at p99 (limit {LAG_LIMIT_MS} ms)"
            )
        served = sum(len(v) for v in by_kind.values())
        phase.layers = {
            "service.hit_latency_p50_ms": percentile(by_kind["hit"], 50),
            "service.hit_latency_p99_ms": percentile(by_kind["hit"], 99),
            "service.hit_ratio": len(by_kind["hit"]) / max(served, 1),
            "service.miss_latency_p50_ms": percentile(by_kind["miss"], 50),
            "service.coalesced": len(by_kind["coalesced"]),
            "service.rejected": rejected,
            "loadgen.lag_p99_ms": lag_p99,
            "loadgen.backlog_max": backlog,
        }
        phase.extra = {"offered_rps": len(schedule) / seconds, "misses": len(by_kind["miss"])}
        phase.peak_rss_mb = self.gateway.peak_rss_mb()
        self.gateway.stop()
        if tracer is not None:
            with open(self.gateway.spans_path) as handle:
                tracer.imported = json.load(handle)
        self.gateway = None
        return phase

    def _recheck_hits(self, schedule, first_line: Dict[str, str]) -> List[str]:
        """Fetch every fresh job again, now a hit: it must read the same."""
        fresh = {json.dumps(job, sort_keys=True): job for _d, label, job in schedule
                 if ":miss:" in label}
        keys = [k for k in fresh if k in first_line]
        if not keys:
            return []
        status, headers, lines = asyncio.run(_submit(self.gateway.port, [fresh[k] for k in keys]))
        if status != 200 or headers.get("x-cache-hits") != str(len(keys)):
            return [f"re-fetching {len(keys)} fresh jobs: HTTP {status}, headers {headers}"]
        return [
            f"hit for {fresh[k]['name']} differs from its miss"
            for k, line in zip(keys, lines) if line != first_line[k]
        ]
