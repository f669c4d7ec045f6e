# The local loop, matched to CI job-for-job (see .github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test perf-gate jit-differential claims bench

## check: everything a push must survive -- lint + tier-1 tests + perf
## gate (cycles + dispatch floor) + the three-tier jit differential
check: lint test perf-gate jit-differential

lint:
	ruff check .

test:
	$(PYTHON) -m pytest -x -q

## perf-gate: the blocking deterministic gates -- cycle counts, the
## reorganizer's golden image digests and DAG edge count, the
## dispatch-count throughput floor, and the paper claims
perf-gate:
	$(PYTHON) tools/bench_report.py cycles
	$(PYTHON) tools/reorg_golden.py check
	$(PYTHON) -m pytest -q benchmarks/test_reorg_scaling.py
	$(PYTHON) tools/bench_report.py dispatch
	$(PYTHON) -m repro.perf claims

## jit-differential: corpus profiles byte-identical across all tiers,
## chaos green on every engine, and the hot-loop speedup floor
jit-differential:
	$(PYTHON) -m repro.perf corpus --engine fast > /tmp/profiles-fast.jsonl
	$(PYTHON) -m repro.perf corpus --engine jit > /tmp/profiles-jit.jsonl
	cmp /tmp/profiles-fast.jsonl /tmp/profiles-jit.jsonl
	$(PYTHON) -m repro.chaos run --seed 7 --engine all
	$(PYTHON) -m pytest -q benchmarks/test_jit_speedup.py

claims:
	$(PYTHON) -m repro.perf claims

## bench: the noisy wall-clock backstop (nightly in CI)
bench:
	$(PYTHON) tools/bench_report.py compare
