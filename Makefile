# Developer entry points.  Everything honours PYTHONPATH=src (pyproject
# sets pythonpath for pytest, the bench script inserts it itself).

PYTHON ?= python

.PHONY: test bench bench-smoke bench-graph bench-batch bench-batch-smoke bench-suites smoke-campaign topologies-campaign dist-smoke batch-diff faults-campaign chaos-smoke

## Tier-1 test suite (the CI gate).
test:
	$(PYTHON) -m pytest -x -q

## Full engine hot-path benchmark; rewrites BENCH_engine.json at the repo
## root — commit the refreshed file so the perf trajectory stays current.
bench:
	$(PYTHON) benchmarks/bench_engine_hotpath.py

## CI-sized benchmark (< 60 s) with the acceptance guard: fails if the
## worst-case-adversary headline drops below 5x over the reference path.
bench-smoke:
	@mkdir -p results
	$(PYTHON) benchmarks/bench_engine_hotpath.py --smoke \
		--out results/BENCH_engine_smoke.json --min-speedup 5

## Graph-topology (unified core) numbers, merged into BENCH_engine.json
## without disturbing the ring sections — commit the refreshed file.
bench-graph:
	$(PYTHON) benchmarks/bench_engine_hotpath.py --graph

## Batched-vs-scalar campaign throughput, merged into the batch section
## of BENCH_engine.json — commit the refreshed file.  The guard fails if
## the 256-cell k=32 headline chunk runs below 5x scalar throughput.
bench-batch:
	$(PYTHON) benchmarks/bench_batch.py --min-speedup 5

## CI-sized batch benchmark (headline + one row, single repeat) with a
## noise-tolerant 3x guard; writes next to the other smoke artifacts.
bench-batch-smoke:
	@mkdir -p results
	$(PYTHON) benchmarks/bench_batch.py --smoke \
		--out results/BENCH_batch_smoke.json --min-speedup 3

## The all-eligible smoke campaigns twice — vectorized and scalar — then
## a byte-for-byte store diff.  batch-smoke covers the NS/FSYNC corner;
## batch-wide covers the widened frontier (PT/ET transports, landmark
## kernels, SSYNC activation masks, the block-agent peek, lost-on-removal).
## --batch on: their groups are too narrow for auto to batch.
batch-diff:
	PYTHONPATH=src $(PYTHON) -m repro campaign run --spec batch-smoke \
		--workers 1 --batch on --store results/batch-on.jsonl
	PYTHONPATH=src $(PYTHON) -m repro campaign run --spec batch-smoke \
		--workers 1 --batch off --store results/batch-off.jsonl
	PYTHONPATH=src $(PYTHON) scripts/diff_stores.py \
		results/batch-on.jsonl results/batch-off.jsonl
	PYTHONPATH=src $(PYTHON) -m repro campaign run --spec batch-wide \
		--workers 1 --batch on --store results/batch-wide-on.jsonl
	PYTHONPATH=src $(PYTHON) -m repro campaign run --spec batch-wide \
		--workers 1 --batch off --store results/batch-wide-off.jsonl
	PYTHONPATH=src $(PYTHON) scripts/diff_stores.py \
		results/batch-wide-on.jsonl results/batch-wide-off.jsonl

## The pytest-benchmark suites (paper-table reproductions).
bench-suites:
	$(PYTHON) -m pytest benchmarks -q

## The CI smoke campaign, serially, against the default JSONL store.
smoke-campaign:
	PYTHONPATH=src $(PYTHON) -m repro campaign run --spec smoke --workers 2

## The unified-core scheduler x topology smoke campaign (needs networkx).
topologies-campaign:
	PYTHONPATH=src $(PYTHON) -m repro campaign run --spec topologies-smoke --workers 2

## The distributed path end to end: enqueue into the lease queue, drain it
## with two local worker processes (more hosts can join the same store).
dist-smoke:
	PYTHONPATH=src $(PYTHON) -m repro campaign run --spec topologies-smoke \
		--distributed --workers 2 --store sqlite:results/topo-dist.db

## The fault-injection sweep: crashed agents next to their
## fault-free twins, then the error and complexity-fit reports over the
## resulting store, then an integrity check.
faults-campaign:
	PYTHONPATH=src $(PYTHON) -m repro campaign run --spec faults-smoke \
		--workers 2 --store results/faults-smoke.jsonl
	PYTHONPATH=src $(PYTHON) -m repro campaign report --spec faults-smoke \
		--store results/faults-smoke.jsonl --errors
	PYTHONPATH=src $(PYTHON) -m repro campaign report --spec faults-smoke \
		--store results/faults-smoke.jsonl --fit
	PYTHONPATH=src $(PYTHON) -m repro campaign fsck --spec faults-smoke \
		--store results/faults-smoke.jsonl

## The chaos lane locally: a clean baseline run, then the same campaign
## driven through the lease queue under REPRO_CHAOS (one worker crashes
## mid-completion, the survivor finishes), then fsck + a byte diff
## against the undisturbed store.  Mirrors the CI chaos step.
chaos-smoke:
	@mkdir -p results
	rm -f results/chaos-clean.jsonl results/chaos.db
	PYTHONPATH=src $(PYTHON) -m repro campaign run --spec batch-smoke \
		--workers 1 --store results/chaos-clean.jsonl
	PYTHONPATH=src $(PYTHON) -m repro campaign enqueue --spec batch-smoke \
		--store sqlite:results/chaos.db --chunk-size 4
	-PYTHONPATH=src REPRO_CHAOS="seed=7,busy=0.2,crash=before-commit:2" \
		$(PYTHON) -m repro campaign worker --campaign batch-smoke \
		--store sqlite:results/chaos.db --worker-id doomed --lease-ttl 2
	PYTHONPATH=src REPRO_CHAOS="seed=11,busy=0.2" \
		$(PYTHON) -m repro campaign worker --campaign batch-smoke \
		--store sqlite:results/chaos.db --worker-id survivor \
		--lease-ttl 2 --poll 0.5
	PYTHONPATH=src $(PYTHON) -m repro campaign fsck --spec batch-smoke \
		--store sqlite:results/chaos.db
	PYTHONPATH=src $(PYTHON) scripts/diff_stores.py \
		sqlite:results/chaos.db results/chaos-clean.jsonl
