"""The fuzz subsystem: generators, oracle, farm batches, shrinking.

Determinism is the load-bearing property -- the same (seed, index,
mode) triple must render byte-identical programs and oracle digests on
any host at any parallelism -- so most tests here compare two
independent derivations of the same thing.  The planted-divergence
tests drive the full detect -> minimize -> artifact -> replay pipeline
through a test-only oracle hook, proving a real divergence would be
caught, shrunk, and reproducible from its seed alone.
"""

import json
import os

import pytest

from repro.farm import Scheduler
from repro.farm.job import fuzz_jobs
from repro.fuzz import (
    MODE_AST,
    MODE_BOTH,
    MODE_WORDS,
    batch_ranges,
    check_case,
    make_case,
    minimize_case,
    run_batch,
)
from repro.fuzz import oracle
from repro.fuzz.artifacts import dump_artifact, load_artifact
from repro.fuzz.case import case_mode
from repro.shrink import shortest_failing_prefix_items, shortest_failing_prefix_length


@pytest.fixture(autouse=True)
def _no_hook():
    """Every test starts and ends with the divergence hook unset."""
    oracle.DIVERGENCE_HOOK = None
    yield
    oracle.DIVERGENCE_HOOK = None


# -- generators --------------------------------------------------------------


def test_case_generation_is_deterministic():
    for index in range(4):
        a = make_case(11, index, MODE_BOTH)
        b = make_case(11, index, MODE_BOTH)
        assert a.source == b.source
        assert a.name == b.name
        assert len(a.units) == len(b.units)


def test_distinct_seeds_generate_distinct_programs():
    sources = {make_case(seed, 0, MODE_AST).source for seed in range(6)}
    assert len(sources) == 6


def test_both_mode_interleaves_ast_and_words():
    assert case_mode(MODE_BOTH, 0) == MODE_AST
    assert case_mode(MODE_BOTH, 1) == MODE_WORDS
    assert case_mode(MODE_AST, 17) == MODE_AST
    with pytest.raises(ValueError):
        case_mode("bogus", 0)


def test_case_mode_is_independent_of_batch_split():
    """The concrete mode keys on the global index, never the batch."""
    modes_whole = [make_case(5, i, MODE_BOTH).mode for i in range(6)]
    modes_split = [make_case(5, i, MODE_BOTH).mode for i in range(3)] + [
        make_case(5, i, MODE_BOTH).mode for i in range(3, 6)
    ]
    assert modes_whole == modes_split


# -- the oracle --------------------------------------------------------------


def test_word_cases_pass_the_oracle():
    for index in (1, 3, 5, 7):
        result = check_case(make_case(23, index, MODE_BOTH))
        assert result.mode == "words"
        assert not result.failed, result.divergences


def test_ast_case_passes_the_oracle():
    # index 2 avoids the chaos-sampled slot, keeping this test quick
    result = check_case(make_case(23, 2, MODE_BOTH))
    assert result.mode == "ast"
    assert not result.failed, result.divergences
    assert set(oracle.OPT_LEVELS) <= set(result.observations)
    assert "cc" in result.observations


def test_oracle_digest_is_deterministic():
    case = make_case(23, 3, MODE_BOTH)
    assert check_case(case).digest == check_case(case).digest


def test_planted_divergence_is_caught():
    case = make_case(23, 1, MODE_BOTH)
    oracle.DIVERGENCE_HOOK = lambda source, engine: engine == "fast"
    result = check_case(case)
    assert result.failed
    checks = {d["check"] for d in result.divergences}
    assert "engine" in checks


# -- batches and farm jobs ---------------------------------------------------


def test_batch_ranges_cover_every_case_exactly_once():
    ranges = batch_ranges(17, 5)
    assert [r["count"] for r in ranges] == [5, 5, 5, 2]
    covered = [r["start"] + i for r in ranges for i in range(r["count"])]
    assert covered == list(range(17))


def test_run_batch_is_deterministic():
    a = run_batch(23, 1, 4, MODE_WORDS)
    b = run_batch(23, 1, 4, MODE_WORDS)
    assert a == b
    assert a["digest"] == b["digest"]
    assert len(a["cases"]) == 4
    assert a["divergences"] == []


def test_fuzz_job_keys_are_stable_and_parallelism_free():
    jobs = fuzz_jobs(23, 10, mode=MODE_WORDS, batch=4)
    again = fuzz_jobs(23, 10, mode=MODE_WORDS, batch=4)
    assert [j.key for j in jobs] == [j.key for j in again]
    assert sum(j.spec["count"] for j in jobs) == 10
    # retuning the wall budget must not re-key the batch
    relaxed = fuzz_jobs(23, 10, mode=MODE_WORDS, batch=4)[0]
    assert relaxed.key == jobs[0].key


def test_farm_records_are_identical_across_jobs_1_and_2():
    jobs = list(fuzz_jobs(23, 8, mode=MODE_WORDS, batch=2))
    serial = Scheduler(jobs=1).run(jobs)
    parallel = Scheduler(jobs=2).run(jobs)
    stable = lambda recs: [  # noqa: E731
        {k: v for k, v in r.items() if k in ("key", "name", "fingerprint", "extra")}
        for r in recs
    ]
    assert stable(serial) == stable(parallel)
    for record in serial:
        assert record["status"] == "ok"
        assert record["extra"]["fuzz"]["divergences"] == []


def test_divergent_batch_fails_the_farm_record():
    oracle.DIVERGENCE_HOOK = lambda source, engine: engine == "fast"
    job = fuzz_jobs(23, 2, mode=MODE_WORDS, batch=2, start=1)[0]
    record = Scheduler(jobs=1).run([job])[0]
    assert record["status"] == "error"
    assert record["error"]["type"] == "FuzzDivergence"
    assert record["retryable"] is False
    assert "mips-fuzz run" in record["error"]["message"]


# -- the shrinker ------------------------------------------------------------


def test_shortest_failing_prefix_length():
    assert shortest_failing_prefix_length(10, lambda n: n >= 4) == 4
    # the search space is 1..count: an always-failing predicate pins to 1
    assert shortest_failing_prefix_length(10, lambda n: True) == 1
    assert shortest_failing_prefix_length(1, lambda n: n >= 1) == 1
    # a never-failing predicate returns count unchanged (no false shrink)
    assert shortest_failing_prefix_length(6, lambda n: False) == 6


def test_shortest_failing_prefix_items():
    items = list("abcdefgh")
    kept = shortest_failing_prefix_items(items, lambda p: "e" in p)
    assert kept == list("abcde")


def test_planted_divergence_shrinks_to_minimal_prefix(tmp_path):
    """The acceptance fixture: a planted divergence is caught, shrunk to
    the smallest unit prefix that still triggers it, dumped as an
    artifact, and replayable from the seed triple alone."""
    case = make_case(23, 1, MODE_BOTH)
    assert case.mode == MODE_WORDS and len(case.units) >= 3
    # pick a line that only a late unit contributes, so the minimal
    # failing prefix is a strict, known subset of the case
    target = len(case.units) - 1
    marker = None
    earlier = "\n".join(case.render(case.units[:target]).splitlines())
    for line in case.units[target].lines:
        if line not in earlier:
            marker = line
            break
    assert marker is not None
    oracle.DIVERGENCE_HOOK = (
        lambda source, engine: engine == "fast" and marker in source
    )

    minimized = minimize_case(case)
    assert minimized is not None
    assert minimized["units"] == target + 1
    assert minimized["units_full"] == len(case.units)
    assert marker in minimized["source"]
    assert minimized["divergences"]

    path = dump_artifact(
        str(tmp_path), case, minimized["divergences"], minimized
    )
    record = load_artifact(path)
    assert record["seed"] == 23 and record["index"] == 1
    assert record["minimized"] == {
        "units": target + 1,
        "units_full": len(case.units),
    }
    source_path = os.path.join(str(tmp_path), record["source_file"])
    assert open(source_path).read() == minimized["source"]
    assert record["replay"].startswith("mips-fuzz run --seed 23 --start 1")

    # the replay path regenerates from (seed, index, mode) and re-fails
    replayed = make_case(record["seed"], record["index"], record["mode"])
    assert replayed.source == case.source
    assert check_case(replayed).failed
    # ... and passes again once the planted bug is "fixed"
    oracle.DIVERGENCE_HOOK = None
    assert not check_case(replayed).failed


def test_minimize_returns_none_for_passing_case():
    assert minimize_case(make_case(23, 3, MODE_BOTH)) is None


# -- the CLI -----------------------------------------------------------------


def test_cli_stable_results_byte_identical_across_jobs(tmp_path):
    from repro.cli import fuzz_main

    paths = []
    for jobs in (1, 2):
        path = tmp_path / f"stable-{jobs}.jsonl"
        rc = fuzz_main(
            [
                "run", "--cases", "8", "--seed", "23", "--fuzz-mode", "words",
                "--batch", "2", "--jobs", str(jobs),
                "--stable-results", str(path),
            ]
        )
        assert rc == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_divergence_dumps_artifact_and_replay_round_trips(
    tmp_path, capsys
):
    from repro.cli import fuzz_main

    oracle.DIVERGENCE_HOOK = lambda source, engine: engine == "fast"
    artifacts = tmp_path / "artifacts"
    rc = fuzz_main(
        [
            "run", "--cases", "1", "--seed", "23", "--start", "1",
            "--fuzz-mode", "words", "--jobs", "1",
            "--artifacts", str(artifacts),
        ]
    )
    assert rc == 1
    dumped = sorted(artifacts.iterdir())
    names = [p.name for p in dumped]
    assert "fuzz-words-s23-c1.json" in names
    assert "fuzz-words-s23-c1.s" in names
    json_path = artifacts / "fuzz-words-s23-c1.json"
    record = json.loads(json_path.read_text())
    assert record["divergences"]

    capsys.readouterr()
    assert fuzz_main(["replay", str(json_path)]) == 1
    assert "status=divergence" in capsys.readouterr().out

    oracle.DIVERGENCE_HOOK = None
    assert fuzz_main(["replay", str(json_path)]) == 0
