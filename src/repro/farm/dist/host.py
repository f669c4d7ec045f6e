"""The shard host: one box's worth of the distributed farm.

``mips-farm host`` runs this process next to the data -- it listens on
a TCP port, announces itself with the protocol banner, and then serves
one coordinator session at a time: jobs arrive as ``dispatch``
messages, run on the **same forked worker pool the single-box farm
uses** (:func:`repro.farm.scheduler._worker_main`, byte-identical
records by construction), and stream back as ``result`` messages in
completion order.

The host is deliberately passive about policy: it answers ``ping``
with its queue depths, gives back *unstarted* jobs when the
coordinator asks to ``steal``, and enforces each job's wall budget
locally (kill the worker, return a retryable timeout record) -- but
retries, backoff, placement, and reclamation all live in the
coordinator, so a host that dies loses nothing that cannot be
recomputed elsewhere.

Where forking is unavailable the pool degrades to in-process threads:
results are identical (same executor), only isolation is weaker -- a
hung job can then only be *recorded* as timed out, not killed.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..scheduler import _pick_context, _worker_main
from ..worker import execute_job, wall_timeout_record
from .protocol import (
    ConnectionLost,
    HandshakeError,
    JsonlConnection,
    hello_banner,
)

#: how long the host waits for the coordinator's hello_ack
ACK_TIMEOUT_S = 5.0
#: readiness-loop tick when nothing else bounds it
POLL_S = 0.25


@dataclass
class _QueuedJob:
    seq: int
    index: int
    attempt: int
    job: Dict[str, Any]
    budget_s: float


@dataclass
class _PoolWorker:
    process: Any
    conn: Any
    current: Optional[_QueuedJob] = None
    deadline: float = 0.0

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
                self.process.join(1.0)


def _worker_entry(conn, close_fds: Tuple[int, ...]) -> None:
    # forked children inherit the host's listener and session sockets,
    # and the host's end of every worker pipe; close them so a SIGKILLed
    # host produces an immediate EOF at the coordinator instead of
    # waiting out the heartbeat timeout, and at each worker, which then
    # exits instead of outliving the host
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    _worker_main(conn)


class ForkPool:
    """N forked workers over duplex pipes (the single-box pool, reused)."""

    def __init__(self, size: int, close_fds: Tuple[int, ...] = ()):
        self.size = size
        self.close_fds = close_fds
        self._ctx = _pick_context()
        self._idle: List[_PoolWorker] = []
        self._busy: List[_PoolWorker] = []

    def idle_slots(self) -> int:
        return self.size - len(self._busy)

    def running(self) -> int:
        return len(self._busy)

    def wait_objects(self) -> List[Any]:
        return [w.conn for w in self._busy]

    def next_deadline(self) -> Optional[float]:
        return min((w.deadline for w in self._busy), default=None)

    def dispatch(self, item: _QueuedJob) -> None:
        if self._idle:
            worker = self._idle.pop()
        else:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            host_ends = tuple(w.conn.fileno() for w in self._busy) + (parent_conn.fileno(),)
            process = self._ctx.Process(
                target=_worker_entry, args=(child_conn, self.close_fds + host_ends), daemon=True
            )
            process.start()
            child_conn.close()
            worker = _PoolWorker(process=process, conn=parent_conn)
        worker.current = item
        worker.deadline = time.monotonic() + item.budget_s
        worker.conn.send(("job", item.seq, item.attempt, item.job))
        self._busy.append(worker)

    def collect(self, now: float) -> List[Tuple[_QueuedJob, Dict[str, Any]]]:
        """Completed and deadline-blown jobs, as (item, record) pairs."""
        from multiprocessing.connection import wait as conn_wait

        finished: List[Tuple[_QueuedJob, Dict[str, Any]]] = []
        readable = conn_wait([w.conn for w in self._busy], timeout=0) if self._busy else []
        for worker in [w for w in self._busy if w.conn in readable]:
            item = worker.current
            try:
                _seq, _attempt, record = worker.conn.recv()
            except (EOFError, OSError):
                # the worker died mid-job: report a crash-shaped record
                # (retryable) and respawn lazily on the next dispatch
                from ..worker import crash_record

                worker.kill()
                self._busy.remove(worker)
                finished.append(
                    (item, crash_record(item.job, item.attempt,
                                        f"worker exited with code {worker.process.exitcode}"))
                )
                continue
            worker.current = None
            self._busy.remove(worker)
            self._idle.append(worker)
            finished.append((item, record))
        for worker in [w for w in self._busy if w.deadline <= now]:
            item = worker.current
            worker.kill()
            self._busy.remove(worker)
            finished.append((item, wall_timeout_record(item.job, item.attempt, item.budget_s)))
        return finished

    def stop(self) -> None:
        for worker in self._idle:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._idle + self._busy:
            worker.kill()
        self._idle, self._busy = [], []


class ThreadPool:
    """In-process fallback when the sandbox forbids forking.

    Same executor (:func:`repro.farm.worker.execute_job`), weaker
    isolation: a job past its budget is *recorded* as timed out and its
    thread abandoned (threads cannot be killed), so only use this where
    fork genuinely is unavailable.
    """

    def __init__(self, size: int):
        from concurrent.futures import ThreadPoolExecutor

        self.size = size
        self._executor = ThreadPoolExecutor(max_workers=size, thread_name_prefix="shard-job")
        self._running: List[Tuple[_QueuedJob, Any, float]] = []

    def idle_slots(self) -> int:
        return self.size - len(self._running)

    def running(self) -> int:
        return len(self._running)

    def wait_objects(self) -> List[Any]:
        return []

    def next_deadline(self) -> Optional[float]:
        return min((deadline for _i, _f, deadline in self._running), default=None)

    def dispatch(self, item: _QueuedJob) -> None:
        future = self._executor.submit(execute_job, item.job, item.attempt, True)
        self._running.append((item, future, time.monotonic() + item.budget_s))

    def collect(self, now: float) -> List[Tuple[_QueuedJob, Dict[str, Any]]]:
        finished = []
        still = []
        for item, future, deadline in self._running:
            if future.done():
                finished.append((item, future.result()))
            elif deadline <= now:
                finished.append((item, wall_timeout_record(item.job, item.attempt, item.budget_s)))
            else:
                still.append((item, future, deadline))
        self._running = still
        return finished

    def stop(self) -> None:
        self._executor.shutdown(wait=False)
        self._running = []


def _make_pool(workers: int, close_fds: Tuple[int, ...] = ()):
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods() and not os.environ.get(
        "REPRO_FARM_SERIAL"
    ):
        try:
            return ForkPool(workers, close_fds=close_fds)
        except OSError:  # pragma: no cover - environment forbids processes
            pass
    return ThreadPool(workers)


@dataclass
class HostStats:
    """What one host session did (reported in every pong)."""

    jobs_run: int = 0
    stolen_away: int = 0
    timeouts: int = 0


class ShardHost:
    """One listening shard host; serves coordinator sessions in turn."""

    def __init__(self, port: int = 0, bind: str = "127.0.0.1", workers: int = 1,
                 host_id: Optional[str] = None):
        self.workers = max(1, workers)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((bind, port))
        self._listener.listen(4)
        self.bind, self.port = self._listener.getsockname()[:2]
        self.host_id = host_id or f"{self.bind}:{self.port}"
        self.stats = HostStats()
        self._stop = False

    # -- lifecycle ---------------------------------------------------------

    def announce(self) -> str:
        return (
            f"mips-farm host: listening on {self.bind}:{self.port} "
            f"(workers={self.workers}, pid={os.getpid()})"
        )

    def serve_forever(self) -> None:
        while not self._stop:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            conn = JsonlConnection(sock)
            try:
                self._session(conn)
            except (ConnectionLost, HandshakeError):
                pass  # the coordinator went away; keep listening
            finally:
                conn.close()

    def close(self) -> None:
        self._stop = True
        try:
            self._listener.close()
        except OSError:
            pass

    # -- one coordinator session -------------------------------------------

    def _session(self, conn: JsonlConnection) -> None:
        conn.send(hello_banner(self.workers, self.host_id))
        ack = conn.receive(ACK_TIMEOUT_S)
        if ack.get("type") == "error":
            # the coordinator rejected our banner; its reason is
            # authoritative -- log and go back to listening
            print(f"mips-farm host: rejected by coordinator: {ack.get('reason')}",
                  file=sys.stderr)
            return
        if ack.get("type") != "hello_ack":
            raise HandshakeError(f"expected hello_ack, got {ack.get('type')!r}")
        pool = _make_pool(
            self.workers, close_fds=(self._listener.fileno(), conn.sock.fileno())
        )
        queue: deque = deque()
        try:
            self._serve_session(conn, pool, queue)
        finally:
            pool.stop()

    def _serve_session(self, conn: JsonlConnection, pool, queue: deque) -> None:
        from multiprocessing.connection import wait as conn_wait

        while True:
            while queue and pool.idle_slots() > 0:
                pool.dispatch(queue.popleft())

            now = time.monotonic()
            deadline = pool.next_deadline()
            timeout = POLL_S if deadline is None else max(0.0, min(deadline - now, POLL_S))
            readable = conn_wait([conn.sock] + pool.wait_objects(), timeout=timeout)

            if conn.sock in readable:
                for message in conn.drain():  # raises ConnectionLost on EOF
                    if not self._handle(conn, pool, queue, message):
                        return

            for item, record in pool.collect(time.monotonic()):
                self.stats.jobs_run += 1
                if record.get("status") == "timeout" and record.get("retryable"):
                    self.stats.timeouts += 1
                conn.send(
                    {
                        "type": "result",
                        "seq": item.seq,
                        "index": item.index,
                        "attempt": item.attempt,
                        "record": record,
                    }
                )

    def _handle(self, conn, pool, queue: deque, message: Dict[str, Any]) -> bool:
        kind = message.get("type")
        if kind == "dispatch":
            queue.append(
                _QueuedJob(
                    seq=int(message["seq"]),
                    index=int(message["index"]),
                    attempt=int(message["attempt"]),
                    job=dict(message["job"]),
                    budget_s=float(message["budget_s"]),
                )
            )
        elif kind == "steal":
            # give back *unstarted* work only, newest-queued first: the
            # jobs least likely to start here soonest travel best
            wanted = max(0, int(message.get("count", 0)))
            stolen: List[int] = []
            while queue and len(stolen) < wanted:
                stolen.append(queue.pop().seq)
            self.stats.stolen_away += len(stolen)
            conn.send({"type": "stolen", "seqs": stolen})
        elif kind == "ping":
            conn.send(
                {
                    "type": "pong",
                    "queued": len(queue),
                    "running": pool.running(),
                    "jobs_run": self.stats.jobs_run,
                    "stolen_away": self.stats.stolen_away,
                }
            )
        elif kind == "stop":
            return False
        # unknown message types are ignored: additive protocol growth
        return True


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    """``mips-farm host`` / ``python -m repro.farm.dist.host``."""
    import argparse

    parser = argparse.ArgumentParser(description="distributed-farm shard host")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port to listen on (default: OS-assigned, announced on stdout)")
    parser.add_argument("--bind", default="127.0.0.1", help="address to bind (default localhost)")
    parser.add_argument("--workers", type=int, default=max(1, (os.cpu_count() or 1)),
                        help="local forked worker processes (default: cpu count)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the session's pool stops its workers
    signal.signal(signal.SIGTERM, _exit_on_signal)
    host = ShardHost(port=args.port, bind=args.bind, workers=args.workers)
    print(host.announce(), flush=True)
    try:
        host.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        host.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
