# Convenience targets for the reproduction workflow.

# Worker processes for the experiment executor (repro.exec); results are
# numerically identical at any job count.  e.g. `make bench JOBS=4`.
JOBS ?= 1

.PHONY: install test lint lint-graph bench quick-bench store-smoke service-smoke topo-smoke cca-smoke fabric-smoke chaos clean-cache loc

install:
	pip install -e .

test:
	pytest tests/

# Determinism/concurrency/contract static analysis (the CI gate): one
# serial pass of per-file rule packs plus the whole-program rules
# (lock-order cycles, held-lock blocking, determinism taint).  Only
# justified inline suppressions waive a finding; --stats counts them.
# Every run is one cold pass: each file is parsed and walked once.
lint:
	PYTHONPATH=src python -m repro lint --stats

# Whole-program graph dumps (imports / calls / locks), e.g. the
# interprocedural lock-order graph with its witness chains.
lint-graph:
	PYTHONPATH=src python -m repro lint --dump-graph locks

# Regenerates every table/figure; first run simulates (~25 min), later
# runs replay from the benches' warehouse, benchmarks/.quicbench_store.db.
bench:
	QUICBENCH_JOBS=$(JOBS) pytest benchmarks/ --benchmark-only

quick-bench:
	QUICBENCH_JOBS=$(JOBS) pytest benchmarks/test_bench_stack_tables.py benchmarks/test_bench_fig01_clustered_pe.py --benchmark-only

# Tiny end-to-end warehouse exercise: campaign -> query -> diff (the
# same flow CI runs).
store-smoke:
	PYTHONPATH=src python -m repro regression --stack xquic --cca cubic \
	  --duration 6 --trials 2 --jobs 2 --store /tmp/quicbench-smoke.db
	PYTHONPATH=src python -m repro store runs --db /tmp/quicbench-smoke.db
	PYTHONPATH=src python -m repro store diff --db /tmp/quicbench-smoke.db \
	  --run-a "regression:5.13-stock" --run-b "regression:pre-hystart"

# Campaign-service exercise over a real process boundary: boot `repro
# serve`, submit over HTTP, stream events, verify bit-identical metrics,
# SIGTERM (the same flow CI runs).
service-smoke:
	python examples/service_smoke.py

# Fairness matrix over every built-in topology shape: validates the
# specs, runs the campaign through the executor, and stores per-flow
# shares + Jain's index (the same flow CI's topo-smoke job runs).
topo-smoke:
	PYTHONPATH=src python -m repro topo matrix --ccas cubic \
	  --duration 3 --trials 1 --jobs 2 --store /tmp/quicbench-topo.db
	PYTHONPATH=src python -m repro store runs --db /tmp/quicbench-topo.db

# Reference-free peer-conformance smoke over the registry's built-in
# peer group (one model-based, one loss-based, one real-time CCA): runs
# the matrix campaign through the executor and checks the pairwise +
# aggregate rows landed in the warehouse (the same flow CI's cca-smoke
# job runs).
cca-smoke:
	PYTHONPATH=src python -m repro cca peer-matrix --peers bbr3 cubic gcc \
	  --duration 4 --trials 1 --jobs 2 \
	  --store /tmp/quicbench-cca.db --run cca-smoke
	PYTHONPATH=src python -m repro store query --db /tmp/quicbench-cca.db \
	  --metric peer_score --format csv

# Distributed fabric exercise over real process boundaries: boot the
# coordinator and two worker processes, run a campaign, assert the
# warehouse is bit-identical to the single-process scheduler and that an
# identical resubmission is fully cache-served (the same flow CI's
# fabric-smoke job runs).
fabric-smoke:
	python examples/fabric_smoke.py

# Deterministic fault injection against a real campaign: every trial
# must land bit-identical to the fault-free baseline or fail typed and
# resumable (the same invariant CI's chaos-smoke job asserts).
chaos:
	PYTHONPATH=src python -m repro chaos --matrix smoke

clean-cache:
	rm -rf benchmarks/.quicbench_store.db* benchmarks/output

loc:
	@find src tests benchmarks examples -name '*.py' | xargs wc -l | tail -1
