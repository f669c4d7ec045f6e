# The local loop, matched to CI job-for-job (see .github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test perf-gate engine-differential claims bench

## check: everything a push must survive -- lint + tier-1 tests + perf
## gate (cycles + dispatch floor) + the precise-vs-fast differential
check: lint test perf-gate engine-differential

lint:
	ruff check .

test:
	$(PYTHON) -m pytest -x -q

## perf-gate: the blocking deterministic gates -- cycle counts, the
## reorganizer's golden image digests and DAG edge count, mapped
## execution's handler share and translation count, the
## dispatch-count throughput floor, and the paper claims
perf-gate:
	$(PYTHON) tools/bench_report.py cycles
	$(PYTHON) tools/reorg_golden.py check
	$(PYTHON) -m pytest -q benchmarks/test_reorg_scaling.py
	$(PYTHON) -m pytest -q benchmarks/test_mapped_dispatch.py
	$(PYTHON) tools/bench_report.py dispatch
	$(PYTHON) -m repro.perf claims

## engine-differential: corpus profiles byte-identical on the precise
## and fast engines, and chaos green on both
engine-differential:
	$(PYTHON) -m repro.perf corpus --engine precise > /tmp/profiles-precise.jsonl
	$(PYTHON) -m repro.perf corpus --engine fast > /tmp/profiles-fast.jsonl
	cmp /tmp/profiles-precise.jsonl /tmp/profiles-fast.jsonl
	$(PYTHON) -m repro.chaos run --seed 7 --engine both

claims:
	$(PYTHON) -m repro.perf claims

## bench: the noisy wall-clock backstop (nightly in CI)
bench:
	$(PYTHON) tools/bench_report.py compare
