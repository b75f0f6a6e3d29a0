PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test bench bench-record bench-smoke perfbench-smoke examples-smoke overload-smoke warm-smoke lint ci

test:
	$(PYTHON) -m pytest -x -q

## Run every script in examples/ once (the public API surface in executable
## form); fails on the first example that exits non-zero.
examples-smoke:
	$(PYTHON) scripts/examples_smoke.py

## Stdlib-only lint: byte-compile every source tree with SyntaxWarning
## promoted to an error (catches invalid escapes, suspicious literals, and
## any syntax error before the test suite runs).  -f forces recompilation so
## warnings fire even when .pyc files are fresh.  The repro.policies check
## instantiates every registered control-plane bundle and asserts the
## registry invariants (well-typed policies, unique fingerprints); the
## repro.fabric check does the same for fabric profiles, including their
## golden JSON surfaces under tests/data/fabrics/ (regenerate with
## scripts/update_fabric_goldens.py after an intentional profile change).
## The last check keeps networkx and the unoptimized reference oracle
## (repro.baselines.unoptimized, the one module that imports networkx) out
## of the serving stack: only the tests may import them.
lint:
	$(PYTHON) -W error::SyntaxWarning -m compileall -q -f src tests benchmarks scripts examples
	$(PYTHON) -c "from repro.policies import validate_registry; validate_registry()"
	$(PYTHON) -c "from repro.fabric import validate_profiles; validate_profiles('tests/data/fabrics')"
	$(PYTHON) -c "import sys, repro, repro.service, repro.loadgen, repro.client; assert 'repro.baselines.unoptimized' not in sys.modules, 'the serving stack imports the reference oracle'; assert 'networkx' not in sys.modules, 'the serving stack imports networkx'"

## Run the micro-benchmarks, append BENCH_<n>.json to the perf trajectory,
## and fail if a gated hot-path metric regressed >20% vs the previous record.
bench:
	$(PYTHON) scripts/bench.py

## Record a new BENCH_<n>.json without gating (e.g. on a new machine).
bench-record:
	$(PYTHON) scripts/bench.py --no-gate

## Run each micro-benchmark once, untimed: no BENCH_<n>.json, no gate.
## Proves the perf code paths execute; this is what CI runs.
bench-smoke:
	$(PYTHON) scripts/bench.py --smoke

## The serving benchmark's own tests: tiny interactive, fidelity, steady and
## restart units (every replay source: grouped memo, multiplex windows, warm
## recordings) plus the output checks that reject a corrupted report.
perfbench-smoke:
	$(PYTHON) -m pytest perfbench/tests -q

## The overload gauntlet: 3x offered load with admission control on must
## shed (reject AND degrade) without a single deadline violation among
## admitted jobs, and the captured trace must replay byte-identically.
overload-smoke:
	$(PYTHON) scripts/overload_gauntlet.py

## Cold -> warm identity through the CLI: `repro loadtest --report-json`
## twice on a fresh temporary --warm-cache directory, single-engine and with
## --shards 2; fails unless the rerun replayed its recording (warm_trace) and
## matches the cold report in aggregates, latency samples and job summaries.
warm-smoke:
	$(PYTHON) scripts/warm_smoke.py

## The exact entrypoint .github/workflows/ci.yml calls — reproducible locally.
ci: lint test examples-smoke bench-smoke perfbench-smoke overload-smoke warm-smoke
