PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test bench bench-record bench-smoke perfbench-smoke perfbench-ab examples-smoke overload-smoke warm-smoke replay-smoke lint ci

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
## The networkx check keeps networkx and the unoptimized reference oracle
## (repro.baselines.unoptimized, the one module that imports networkx, and
## home of the per-event trace-serving reference) out of the serving stack,
## sharding, shard workers, capture and the CLI: only the tests may import
## them.  The last check
## resolves every name in repro.__all__ and repro.workflows.__all__, so an
## export cannot outlive the definition it names.
lint:
	$(PYTHON) -W error::SyntaxWarning -m compileall -q -f src tests benchmarks scripts examples
	$(PYTHON) -c "from repro.policies import validate_registry; validate_registry()"
	$(PYTHON) -c "from repro.fabric import validate_profiles; validate_profiles('tests/data/fabrics')"
	$(PYTHON) -c "import sys, repro, repro.service, repro.loadgen, repro.client, repro.sharding, repro.shardworker, repro.capture, repro.cli; assert 'repro.baselines.unoptimized' not in sys.modules, 'the serving stack imports the reference oracle'; assert 'networkx' not in sys.modules, 'the serving stack imports networkx'"
	$(PYTHON) -c "import repro, repro.workflows; missing = [f'{m.__name__}.{n}' for m in (repro, repro.workflows) for n in m.__all__ if not hasattr(m, n)]; assert not missing, f'__all__ names what does not exist: {missing}'"

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

## A/B one perfbench metric between a parent revision (exported with git
## archive into a temporary directory) and the working tree: alternating
## pairs, one seed per pair, no bytecode cache; prints medians, quartiles,
## wins and the verdict, then one traced run per side with every per-layer
## metric side by side, and fails if a sim_* metric or served_frac differs
## within a seed.  Slow (two full perfbench runs per pair), so not part of
## ci.  Override AB_ARGS, e.g.
## make perfbench-ab AB_ARGS="--workload interactive --parent HEAD~1".
AB_ARGS ?= --workload fidelity --pairs 10 --seconds 25
perfbench-ab:
	$(PYTHON) scripts/perfbench_ab.py $(AB_ARGS)

## Cold -> warm identity through the CLI: `repro loadtest --report-json`
## twice on a fresh temporary --warm-cache directory, single-engine, through
## a one-shard sharded service and with --shards 2; fails unless each rerun
## replayed its recording (warm_trace) and matches the cold report in
## aggregates, latency samples and job summaries, and unless the one-shard
## reports equal the single-engine ones.
warm-smoke:
	$(PYTHON) scripts/warm_smoke.py

## Replayed single submissions against the reference oracle: one seeded
## 32-call session served three times on fresh keep-warm clients, by the
## production runtime and by unoptimized_runtime(); fails unless calls
## replayed and every call's summary, trace and outputs, and each session's
## final allocation log, are equal on both sides.
replay-smoke:
	$(PYTHON) scripts/replay_smoke.py

## The exact entrypoint .github/workflows/ci.yml calls — reproducible locally.
ci: lint test examples-smoke bench-smoke perfbench-smoke overload-smoke warm-smoke replay-smoke
