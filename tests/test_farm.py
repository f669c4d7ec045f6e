"""The simulation farm: determinism, fault tolerance, degradation.

The invariants under test are the subsystem's contract:

- serial and sharded execution produce identical records (minus
  wall-clock noise), so ``--jobs N`` never changes results;
- injected worker crashes and timeouts are retried and recorded
  without losing or duplicating any job's result;
- guest failures (page faults, step-budget exhaustion) become
  structured failure records and do not poison the worker;
- the JSON-lines store aggregates deterministically regardless of
  completion order.
"""

import json
import random

import pytest

from repro.farm import (
    Job,
    ResultStore,
    Scheduler,
    aggregate,
    experiment_jobs,
    run_jobs,
    workload_jobs,
)
from repro.farm.store import stable_view
from repro.workloads import EXPECTED_OUTPUT

#: cheap corpus members (tens of thousands of cycles, not millions)
FAST_WORKLOADS = ("scanner", "logic")

#: an assembly program that dereferences the dead middle of the
#: address space; with mapping enabled this is a page fault
PAGE_FAULT_ASM = """
start:  lim 524288, r1      ; 2^19
        sll r1, #4, r1      ; 0x800000 -- between the two valid regions
        ld 0(r1), r2
        nop
        trap #0
        nop
"""

#: a program that never halts (the --max-steps guard must catch it)
RUNAWAY_ASM = """
start:  jmp start
        nop
"""


def fast_scheduler(**kwargs):
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("backoff_cap_s", 0.05)
    return Scheduler(**kwargs)


class TestJobSpec:
    def test_key_is_stable_and_content_addressed(self):
        a = Job(kind="workload", name="scanner")
        b = Job(kind="workload", name="scanner")
        c = Job(kind="workload", name="scanner", max_steps=999)
        assert a.key == b.key
        assert a.key != c.key

    def test_key_ignores_wall_clock_knobs(self):
        a = Job(kind="workload", name="scanner", timeout_s=1.0, max_attempts=7)
        b = Job(kind="workload", name="scanner")
        assert a.key == b.key

    def test_wire_roundtrip_preserves_key(self):
        job = Job(
            kind="source",
            name="inline",
            spec={"source": "program p; begin end.", "register_allocation": False},
            hazard_mode="checked",
            inputs=(1, 2, 3),
        )
        assert Job.from_dict(job.to_dict()).key == job.key

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Job(kind="nonsense", name="x")


class TestSerialExecution:
    def test_workload_record_matches_oracle(self):
        (record,) = fast_scheduler(jobs=1).run(workload_jobs(["scanner"]))
        assert record["status"] == "ok"
        assert record["output"] == EXPECTED_OUTPUT["scanner"]
        assert record["cycles"] > 0
        assert record["stats"]["words"] == record["words"]
        assert record["fingerprint"]
        assert record["attempts"] == 1

    def test_runaway_job_times_out_with_structured_record(self):
        job = Job(kind="asm", name="runaway", spec={"source": RUNAWAY_ASM}, max_steps=5_000)
        (record,) = fast_scheduler(jobs=1).run([job])
        assert record["status"] == "timeout"
        assert record["error"]["type"] == "TimeoutError"
        assert "did not halt" in record["error"]["message"]

    def test_page_fault_produces_structured_failure(self):
        job = Job(
            kind="asm",
            name="pagefault",
            spec={"source": PAGE_FAULT_ASM, "mapped": True},
            max_steps=1_000,
        )
        (record,) = fast_scheduler(jobs=1).run([job])
        assert record["status"] == "fault"
        assert record["error"]["type"] == "PageFault"
        assert record["error"]["cause"] == "PAGE_FAULT"
        assert record["error"]["address"] == 0x800000

    @pytest.mark.parametrize("engine", ["jit", "turbo"])
    def test_unknown_engine_becomes_error_record(self, engine):
        """A job naming an engine outside repro.sim.ENGINES fails as a
        structured record instead of running some other engine."""
        job = Job(kind="workload", name="scanner", spec={"engine": engine})
        (record,) = fast_scheduler(jobs=1).run([job])
        assert record["status"] == "error"
        assert record["error"]["type"] == "ValueError"
        assert f"unknown engine '{engine}'" in record["error"]["message"]

    def test_compile_error_becomes_error_record(self):
        job = Job(kind="source", name="broken", spec={"source": "this is not pascal"})
        (record,) = fast_scheduler(jobs=1).run([job])
        assert record["status"] == "error"
        assert record["error"]["type"]

    def test_env_forces_serial_degradation(self, monkeypatch):
        monkeypatch.setenv("REPRO_FARM_SERIAL", "1")
        scheduler = Scheduler(jobs=4)
        assert scheduler.serial
        report = scheduler.run_report(workload_jobs(["scanner"]))
        assert report.degraded_serial
        assert report.records[0]["status"] == "ok"


class TestShardedExecution:
    def test_parallel_matches_serial_bit_for_bit(self):
        jobs = workload_jobs(FAST_WORKLOADS)
        serial = fast_scheduler(jobs=1).run(jobs)
        sharded = fast_scheduler(jobs=2).run(jobs)
        assert [stable_view(r) for r in serial] == [stable_view(r) for r in sharded]
        assert aggregate(serial)["digest"] == aggregate(sharded)["digest"]

    def test_results_come_back_in_submission_order(self):
        names = ["logic", "scanner", "logic", "scanner"]
        jobs = [
            Job(kind="workload", name=name, spec={"shard": i})
            for i, name in enumerate(names)
        ]
        records = fast_scheduler(jobs=2).run(jobs)
        assert [r["name"] for r in records] == names
        assert [r["index"] for r in records] == [0, 1, 2, 3]

    def test_worker_crash_is_retried_without_loss_or_duplication(self):
        chaos = Job(
            kind="chaos",
            name="crashy",
            spec={"fail_attempts": 1, "mode": "crash"},
            max_attempts=3,
        )
        jobs = [chaos, *workload_jobs(FAST_WORKLOADS)]
        report = fast_scheduler(jobs=2).run_report(jobs)
        assert report.crashes == 1
        assert report.retries == 1
        by_name = {r["name"]: r for r in report.records}
        assert by_name["crashy"]["status"] == "ok"
        assert by_name["crashy"]["attempts"] == 2
        for name in FAST_WORKLOADS:
            assert by_name[name]["status"] == "ok"
        summary = aggregate(report.records)
        assert summary["jobs"] == len(jobs)
        assert summary["duplicates"] == []

    def test_crash_exhausting_attempts_is_recorded_not_raised(self):
        chaos = Job(
            kind="chaos",
            name="hopeless",
            spec={"fail_attempts": 99, "mode": "crash"},
            max_attempts=2,
        )
        (record,) = fast_scheduler(jobs=2).run([chaos])
        assert record["status"] == "crash"
        assert record["attempts"] == 2
        assert record["error"]["type"] == "WorkerCrash"

    def test_hung_worker_is_killed_and_recorded_as_timeout(self):
        chaos = Job(
            kind="chaos",
            name="hangy",
            spec={"fail_attempts": 99, "mode": "hang", "hang_s": 60.0},
            timeout_s=0.3,
            max_attempts=2,
        )
        report = fast_scheduler(jobs=2).run_report([chaos])
        (record,) = report.records
        assert record["status"] == "timeout"
        assert record["error"]["type"] == "WallTimeout"
        assert record["attempts"] == 2
        assert report.timeouts == 2  # both attempts hit the wall deadline

    def test_faulting_job_does_not_poison_its_worker(self):
        # one worker, pool mode: the page-faulting job runs first, then
        # a healthy job must still succeed on the same worker process
        fault = Job(
            kind="asm",
            name="pagefault",
            spec={"source": PAGE_FAULT_ASM, "mapped": True},
            max_steps=1_000,
        )
        jobs = [fault, *workload_jobs(["scanner"])]
        records = fast_scheduler(jobs=1, serial=False).run(jobs)
        assert records[0]["status"] == "fault"
        assert records[1]["status"] == "ok"
        assert records[1]["output"] == EXPECTED_OUTPUT["scanner"]

    def test_transient_worker_error_retried_with_backoff(self):
        chaos = Job(
            kind="chaos",
            name="flaky",
            spec={"fail_attempts": 2, "mode": "error"},
            max_attempts=4,
        )
        report = fast_scheduler(jobs=2).run_report([chaos])
        (record,) = report.records
        assert record["status"] == "ok"
        assert record["attempts"] == 3
        assert report.retries == 2


class TestResultStore:
    def test_streaming_roundtrip_and_digest(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        with ResultStore(path) as store:
            records = fast_scheduler(jobs=2, store=store).run(workload_jobs(FAST_WORKLOADS))
        loaded = ResultStore.load(path)
        assert len(loaded) == len(records)
        assert aggregate(loaded)["digest"] == aggregate(records)["digest"]

    def test_aggregate_is_order_independent(self):
        records = fast_scheduler(jobs=1).run(workload_jobs(FAST_WORKLOADS))
        shuffled = list(records)
        random.Random(7).shuffle(shuffled)
        assert aggregate(shuffled)["digest"] == aggregate(records)["digest"]

    def test_store_lines_are_json_without_payload(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        with ResultStore(path) as store:
            fast_scheduler(jobs=1, store=store).run(experiment_jobs(["table5"]))
        with open(path) as handle:
            (line,) = [l for l in handle if l.strip()]
        record = json.loads(line)
        assert "payload" not in record
        assert record["rendered"].startswith("== Table 5")

    def test_duplicate_keys_flagged(self):
        records = fast_scheduler(jobs=1).run(workload_jobs(["scanner"]))
        summary = aggregate(records + records)
        assert summary["duplicates"]

    def test_load_tolerates_truncated_trailing_line(self, tmp_path, capsys):
        # a crashed farm run leaves a partial final line; load must keep
        # every complete record and warn, not raise
        path = str(tmp_path / "results.jsonl")
        with ResultStore(path) as store:
            records = fast_scheduler(jobs=1, store=store).run(workload_jobs(FAST_WORKLOADS))
        with open(path, "a") as handle:
            handle.write('{"status": "ok", "name": "half-writ')  # no newline, cut mid-string
        loaded = ResultStore.load(path)
        assert len(loaded) == len(records)
        assert aggregate(loaded)["digest"] == aggregate(records)["digest"]
        warning = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert warning["warning"] == "truncated-result-record"
        assert warning["path"] == path

    def test_load_still_rejects_midstream_corruption(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        with ResultStore(path) as store:
            fast_scheduler(jobs=1, store=store).run(workload_jobs(FAST_WORKLOADS))
        with open(path) as handle:
            lines = handle.readlines()
        lines[0] = lines[0][: len(lines[0]) // 2] + "\n"  # damage a non-final record
        with open(path, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(ValueError, match="corrupt result record mid-stream"):
            ResultStore.load(path)


class TestExperimentsThroughFarm:
    CHEAP = ["table5", "figure2", "figure3"]

    def test_farm_render_matches_direct_render(self):
        from repro.experiments import REGISTRY, run_named

        direct = [REGISTRY[name]().render() for name in self.CHEAP]
        for jobs in (1, 2):
            results = run_named(self.CHEAP, jobs=jobs)
            assert [r.render() for r in results] == direct

    def test_failed_experiment_raises_with_context(self):
        from repro.experiments import run_named

        with pytest.raises(KeyError):
            run_named(["not_an_experiment"])


class TestDmaUnderFarm:
    def test_dma_job_moves_words_on_free_cycles(self):
        job = Job(
            kind="dma",
            name="scanner",
            spec={"transfer_words": 256},
        )
        (record,) = run_jobs([job], jobs=1)
        assert record["status"] == "ok"
        assert record["extra"]["dma_words_moved"] == 256
        assert 0.0 < record["extra"]["free_fraction"] <= 1.0
        assert record["words"] > 0

    def test_dma_results_identical_across_sharding(self):
        jobs = [
            Job(kind="dma", name=name, spec={"transfer_words": 128})
            for name in FAST_WORKLOADS
        ]
        serial = fast_scheduler(jobs=1).run(jobs)
        sharded = fast_scheduler(jobs=2).run(jobs)
        assert [stable_view(r) for r in serial] == [stable_view(r) for r in sharded]
