"""The distributed farm: sharding, stealing, reclamation, degradation.

The contract under test is the one CI's dist-smoke job enforces from
the outside: ``mips-farm run --hosts N`` produces the byte-identical
order-independent aggregate digest for any N -- including runs where a
shard host is SIGKILLed mid-batch (its jobs are reclaimed and re-run,
none lost, none duplicated) and runs where *every* host is gone (serial
in-process degradation).  Around that sit the protocol-level pieces:
the version/digest handshake rejects mismatched hosts with a structured
error instead of a hang, and the heartbeat monitor's dead-host policy
is exercised against a fake clock.
"""

import json
import os
import socket
import sys
import threading
import time

import pytest

from repro.farm import Job, Scheduler, aggregate, workload_jobs
from repro.farm.dist import (
    DistScheduler,
    HeartbeatMonitor,
    JsonlConnection,
    LocalShardPool,
    ShardHost,
    hello_banner,
    parse_host_spec,
    validate_banner,
)
from repro.farm.dist.protocol import DIGEST_ALGORITHM, PROTO_VERSION
from repro.farm.store import stable_view

#: cheap corpus members (tens of thousands of cycles, not millions)
FAST_WORKLOADS = ("scanner", "logic")


def spin_job(name: str, iters: int) -> Job:
    """An inline job whose simulation cost is tunable by loop count."""
    source = (
        f"program {name}; var i, s: integer; "
        f"begin s := 0; for i := 1 to {iters} do s := s + i; writeln(s) end."
    )
    return Job(kind="source", name=name, spec={"source": source})


def fast_dist(hosts, **kwargs):
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("backoff_cap_s", 0.05)
    return DistScheduler(hosts=hosts, **kwargs)


def serial_digest(jobs):
    return aggregate(Scheduler(jobs=1).run(jobs))["digest"]


# -- protocol ---------------------------------------------------------------


class TestHostSpec:
    def test_host_and_port(self):
        assert parse_host_spec("10.0.0.7:9000") == ("10.0.0.7", 9000)

    def test_bare_port_means_localhost(self):
        assert parse_host_spec(":9000") == ("127.0.0.1", 9000)

    @pytest.mark.parametrize("bad", ["nohost", "host:", "host:abc", ""])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_host_spec(bad)


class TestBannerValidation:
    def test_own_banner_is_accepted(self):
        assert validate_banner(hello_banner(4, "h1")) is None

    def test_proto_mismatch_names_both_versions(self):
        banner = dict(hello_banner(1, "h1"), proto=PROTO_VERSION + 1)
        reason = validate_banner(banner)
        assert "protocol version" in reason
        assert str(PROTO_VERSION) in reason

    def test_repo_version_mismatch_is_rejected(self):
        banner = dict(hello_banner(1, "h1"), repo="0.0.0-elsewhere")
        assert "repo version" in validate_banner(banner)

    def test_digest_algorithm_mismatch_is_rejected(self):
        banner = dict(hello_banner(1, "h1"), digest="md5/i-made-this-up")
        reason = validate_banner(banner)
        assert "digest algorithm" in reason
        assert DIGEST_ALGORITHM in reason

    def test_non_hello_is_rejected(self):
        assert validate_banner({"type": "dispatch"}) is not None


class TestJsonlConnection:
    def test_receive_keeps_extra_lines_for_the_session(self):
        a, b = socket.socketpair()
        try:
            conn = JsonlConnection(a)
            b.sendall(b'{"type": "hello"}\n{"type": "dispatch", "seq": 1}\n')
            first = conn.receive(1.0)
            assert first["type"] == "hello"
            # the second complete line must not be lost to the handshake
            b.sendall(b"\n")
            rest = conn.drain()
            assert [m["type"] for m in rest] == ["dispatch"]
        finally:
            a.close()
            b.close()


# -- heartbeat policy (fake clock) ------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestHeartbeatMonitor:
    def test_ping_becomes_due_after_the_interval(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor(interval_s=1.0, timeout_s=10.0, clock=clock)
        monitor.register("h1")
        assert monitor.due() == []
        clock.advance(1.5)
        assert monitor.due() == ["h1"]
        monitor.pinged("h1")
        assert monitor.due() == []

    def test_silent_host_expires_after_the_timeout(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor(interval_s=1.0, timeout_s=5.0, clock=clock)
        monitor.register("h1")
        clock.advance(4.9)
        assert monitor.expired() == []
        clock.advance(0.2)
        assert monitor.expired() == ["h1"]
        assert monitor.silent_for("h1") == pytest.approx(5.1)

    def test_any_traffic_resets_the_expiry(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor(interval_s=1.0, timeout_s=5.0, clock=clock)
        monitor.register("h1")
        clock.advance(4.0)
        monitor.heard("h1")
        clock.advance(4.0)
        assert monitor.expired() == []
        clock.advance(1.5)
        assert monitor.expired() == ["h1"]

    def test_forgotten_hosts_stop_being_tracked(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor(interval_s=1.0, timeout_s=5.0, clock=clock)
        monitor.register("h1")
        monitor.forget("h1")
        clock.advance(100.0)
        assert monitor.due() == []
        assert monitor.expired() == []


# -- handshake rejection (the no-hang fix) -----------------------------------


def _fake_host(banner_overrides):
    """A listening socket that sends one (possibly wrong) banner."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    replies = []

    def serve():
        sock, _addr = listener.accept()
        banner = dict(hello_banner(1, "imposter"), **banner_overrides)
        sock.sendall(json.dumps(banner).encode() + b"\n")
        sock.settimeout(2.0)
        try:
            replies.append(sock.recv(65536))
        except (OSError, socket.timeout):
            replies.append(b"")
        sock.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, port, replies, thread


class TestHandshakeRejection:
    def test_mismatched_banner_is_refused_with_a_structured_error(self, capsys):
        listener, port, replies, thread = _fake_host({"proto": PROTO_VERSION + 7})
        try:
            scheduler = fast_dist([f"127.0.0.1:{port}"])
            link = scheduler._connect_one(f"127.0.0.1:{port}")
            assert link is None
            thread.join(5.0)
            # the host was told why, machine-readably, instead of left hanging
            refusal = json.loads(replies[0])
            assert refusal["type"] == "error"
            assert "protocol version" in refusal["reason"]
            warning = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert warning["warning"] == "shard-host-rejected"
            assert "protocol version" in warning["reason"]
        finally:
            listener.close()

    def test_unreachable_host_is_skipped_not_fatal(self, capsys):
        # a port nothing listens on: connection refused, warned, skipped
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        scheduler = fast_dist([f"127.0.0.1:{dead_port}"])
        assert scheduler._connect_one(f"127.0.0.1:{dead_port}") is None
        warning = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert warning["warning"] == "shard-host-unreachable"

    def test_rejected_host_returns_to_listening(self):
        """An error ack must not wedge the host: next session still served."""
        host = ShardHost(workers=1)
        thread = threading.Thread(target=host.serve_forever, daemon=True)
        thread.start()
        spec = f"127.0.0.1:{host.port}"
        try:
            # session 1: a coordinator that rejects the banner
            sock = socket.create_connection(parse_host_spec(spec), timeout=5.0)
            conn = JsonlConnection(sock)
            assert conn.receive(5.0)["type"] == "hello"
            conn.send({"type": "error", "reason": "testing rejection"})
            conn.close()
            # session 2: a real run against the same host succeeds
            jobs = list(workload_jobs(list(FAST_WORKLOADS)))
            report = fast_dist([spec]).run_report(jobs)
            assert [r["status"] for r in report.records] == ["ok", "ok"]
        finally:
            host.close()


# -- end-to-end distributed runs ---------------------------------------------


class TestDistributedDigest:
    def test_two_hosts_match_serial_and_tag_hosts(self):
        jobs = list(workload_jobs(list(FAST_WORKLOADS) + ["wordcount"]))
        want = serial_digest(jobs)
        with LocalShardPool(2, workers_per_host=1) as pool:
            report = fast_dist(pool.specs).run_report(jobs)
        summary = aggregate(report.records)
        assert summary["digest"] == want
        assert summary["duplicates"] == []
        # every record names the shard host it ran on...
        assert all(r["host"] in report.hosts for r in report.records)
        # ...and the volatile tag never reaches the stable view
        assert all("host" not in stable_view(r) for r in report.records)
        assert sum(summary["by_host"].values()) == len(jobs)
        assert sum(acct["jobs"] for acct in report.hosts.values()) == len(jobs)

    def test_empty_host_list_degrades_to_serial(self):
        jobs = list(workload_jobs(list(FAST_WORKLOADS)))
        want = serial_digest(jobs)
        report = fast_dist([]).run_report(jobs)
        assert report.degraded_serial
        assert aggregate(report.records)["digest"] == want
        assert all(r["host"] == "local" for r in report.records)

    def test_all_hosts_unreachable_degrades_to_serial(self, capsys):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        jobs = list(workload_jobs(list(FAST_WORKLOADS)))
        want = serial_digest(jobs)
        report = fast_dist([f"127.0.0.1:{dead_port}"]).run_report(jobs)
        assert report.degraded_serial
        assert aggregate(report.records)["digest"] == want
        err = capsys.readouterr().err
        assert "shard-host-unreachable" in err
        assert "all-shard-hosts-lost" in err


class TestWorkStealing:
    def _skewed_jobs(self):
        """Round-robin lands every heavy job on host 0, light on host 1.

        The skew is deliberately extreme (seconds vs milliseconds): host
        1 must reliably drain its shard and go idle while host 0 is
        still inside its first heavy job, whatever else the CI box is
        doing, so the queued heavy job is there to steal.
        """
        jobs = []
        for i in range(4):
            if i % 2 == 0:
                jobs.append(spin_job(f"heavy{i}", 600_000 + i))
            else:
                jobs.append(spin_job(f"light{i}", 200 + i))
        return jobs

    def test_idle_host_steals_from_the_loaded_one(self):
        jobs = self._skewed_jobs()
        want = serial_digest(jobs)
        with LocalShardPool(2, workers_per_host=1) as pool:
            report = fast_dist(pool.specs).run_report(jobs)
        assert aggregate(report.records)["digest"] == want
        # host 1 drained its light shard and stole from host 0's backlog
        assert report.stolen >= 1
        assert sum(acct["stolen"] for acct in report.hosts.values()) == report.stolen

    def test_no_steal_disables_migration_but_not_correctness(self):
        jobs = self._skewed_jobs()
        want = serial_digest(jobs)
        with LocalShardPool(2, workers_per_host=1) as pool:
            report = fast_dist(pool.specs, steal=False).run_report(jobs)
        assert report.stolen == 0
        assert aggregate(report.records)["digest"] == want


class TestDeadHostReclamation:
    def test_killed_host_jobs_are_reclaimed_and_digest_survives(self, capsys):
        # index 0 (host 0) spins long enough to still be running when the
        # first light result (host 1) triggers the kill
        jobs = [spin_job("victim0", 600_000)] + [
            spin_job(f"light{i}", 1_000 + i) for i in range(1, 6)
        ]
        want = serial_digest(jobs)
        with LocalShardPool(2, workers_per_host=1) as pool:
            killed = []

            def killer(done):
                if done >= 1 and not killed:
                    killed.append(True)
                    pool.kill(0)

            report = fast_dist(
                pool.specs,
                heartbeat_s=0.2,
                heartbeat_timeout_s=2.0,
                on_progress=killer,
            ).run_report(jobs)
        assert killed, "the kill hook never fired"
        summary = aggregate(report.records)
        assert summary["digest"] == want
        assert summary["duplicates"] == []
        assert [r["status"] for r in report.records] == ["ok"] * len(jobs)
        # the dead host's in-flight work was reclaimed, not lost
        assert report.reclaimed >= 1
        assert report.retries >= 1
        dead = [h for h, acct in report.hosts.items() if not acct["alive"]]
        assert len(dead) == 1
        assert report.hosts[dead[0]]["reclaimed"] == report.reclaimed
        assert "shard-host-lost" in capsys.readouterr().err

    def test_losing_every_host_midway_finishes_serially(self):
        jobs = [spin_job("tail0", 400_000)] + [
            spin_job(f"tail{i}", 1_000 + i) for i in range(1, 4)
        ]
        want = serial_digest(jobs)
        with LocalShardPool(1, workers_per_host=1) as pool:
            killed = []

            def killer(done):
                if done >= 1 and not killed:
                    killed.append(True)
                    pool.kill(0)

            report = fast_dist(
                pool.specs,
                heartbeat_s=0.2,
                heartbeat_timeout_s=2.0,
                on_progress=killer,
            ).run_report(jobs)
        assert report.degraded_serial
        assert report.reclaimed >= 1
        assert aggregate(report.records)["digest"] == want
        # the serial tail tags its records with the local pseudo-host
        assert any(r["host"] == "local" for r in report.records)


def _children(parents):
    """Pids of the live processes whose parent is one of ``parents``."""
    found = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and int(stat[1]) in parents:
                found.add(int(entry))
    return found


def _proc_stat(pid):
    """(state, ppid) from /proc/<pid>/stat, or None once the pid is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()[:2]


def _alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
class TestHostShutdown:
    def test_no_worker_outlives_its_host(self):
        """A SIGKILLed host's workers exit on pipe EOF; a SIGTERMed
        host stops its pool -- neither leaves orphans behind."""
        jobs = [spin_job(f"tiny{i}", 1_000 + i) for i in range(8)]
        workers = set()
        with LocalShardPool(2, workers_per_host=1) as pool:
            hosts = {process.pid for process in pool.processes}

            def stop_hosts(done):
                if done >= 2 and not workers:
                    workers.update(_children(hosts))
                    pool.kill(0)
                    workers.update(_children(hosts))
                    pool.close()

            fast_dist(
                pool.specs, heartbeat_s=0.2, heartbeat_timeout_s=2.0, on_progress=stop_hosts
            ).run_report(jobs)
        assert workers, "no forked worker was alive to check"
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(_alive(pid) for pid in workers):
            time.sleep(0.1)
        assert [pid for pid in workers if _alive(pid)] == []


# -- the gateway front ------------------------------------------------------


class TestGatewayDistFront:
    def test_shard_hosts_select_the_distributed_scheduler(self, tmp_path):
        from repro.service.cache import ResultCache
        from repro.service.gateway import Gateway

        gateway = Gateway(
            cache=ResultCache(str(tmp_path)), shard_hosts=["127.0.0.1:9999"]
        )
        assert isinstance(gateway._default_scheduler(), DistScheduler)

    def test_stats_absorb_per_host_accounting(self, tmp_path):
        from repro.farm.scheduler import FarmReport
        from repro.service.cache import ResultCache
        from repro.service.gateway import Gateway

        gateway = Gateway(cache=ResultCache(str(tmp_path)))
        report = FarmReport(
            records=[],
            stolen=2,
            reclaimed=1,
            retries=3,
            hosts={
                "h1": {"workers": 2, "alive": True, "jobs": 5, "stolen": 0,
                       "reclaimed": 0, "retries": 0},
                "h2": {"workers": 2, "alive": False, "jobs": 1, "stolen": 2,
                       "reclaimed": 1, "retries": 3},
            },
        )
        gateway._absorb_report(report)
        gateway._absorb_report(report)
        farm = gateway._stats_payload()["farm"]
        assert farm["stolen"] == 4
        assert farm["reclaimed"] == 2
        assert farm["hosts"]["h1"]["jobs"] == 10
        assert farm["hosts"]["h2"]["alive"] is False

    def test_gateway_batch_runs_on_shard_hosts(self, tmp_path):
        import asyncio

        from repro.service.cache import ResultCache
        from repro.service.gateway import Gateway

        jobs = list(workload_jobs(list(FAST_WORKLOADS)))
        want = serial_digest(jobs)

        async def drive(gateway):
            loop = asyncio.get_running_loop()
            owned = [(job, loop.create_future()) for job in jobs]
            await gateway._run_batch("t1", list(owned))
            return [future.result() for _job, future in owned]

        with LocalShardPool(1, workers_per_host=1) as pool:
            gateway = Gateway(
                cache=ResultCache(str(tmp_path)), shard_hosts=pool.specs
            )
            views = asyncio.run(drive(gateway))
        assert aggregate(views)["digest"] == want
        farm = gateway._stats_payload()["farm"]
        assert sum(acct["jobs"] for acct in farm["hosts"].values()) == len(jobs)


# -- the CLI surface --------------------------------------------------------


class TestDistCli:
    def test_hosts_flag_matches_in_process_run_byte_for_byte(self, tmp_path):
        from repro.cli import farm_main

        local = tmp_path / "local.jsonl"
        dist = tmp_path / "dist.jsonl"
        base = ["run", "--workload", "scanner", "--workload", "logic"]
        assert farm_main(base + ["--jobs", "1", "--stable-results", str(local)]) == 0
        assert (
            farm_main(
                base
                + [
                    "--hosts", "2", "--host-workers", "1",
                    "--stable-results", str(dist),
                ]
            )
            == 0
        )
        assert local.read_bytes() == dist.read_bytes()

    def test_kill_host_after_requires_hosts(self, capsys):
        from repro.cli import farm_main

        with pytest.raises(SystemExit):
            farm_main(["run", "--workload", "scanner", "--kill-host-after", "1"])

    def test_host_subcommand_announces_and_serves(self):
        import subprocess
        import sys

        process = subprocess.Popen(
            [sys.executable, "-m", "repro.farm.dist.host", "--port", "0",
             "--workers", "1"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            announce = process.stdout.readline()
            assert "listening on" in announce
            port = announce.split(":")[2].split()[0]
            jobs = list(workload_jobs(["scanner"]))
            report = fast_dist([f"127.0.0.1:{port}"]).run_report(jobs)
            assert report.records[0]["status"] == "ok"
        finally:
            process.kill()
            process.wait(5.0)
            process.stdout.close()
