PY := PYTHONPATH=src python
# Scratch root for every gate's temporary artifacts.  CI points this at
# the runner's temp dir; locally it defaults to /tmp.  Nothing below
# hardcodes /tmp directly.
RESULTS_TMP ?= /tmp
BENCH_BASELINE := $(RESULTS_TMP)/BENCH_engine.baseline.json
GOLDEN_TMP := $(RESULTS_TMP)/repro-golden-check
# One golden per registered scenario (a test pins the one-to-one match),
# so the golden directory itself is the list.
GOLDEN_SCENARIOS := $(basename $(notdir $(wildcard benchmarks/results/golden/*.json)))
# The results the committed v0 atlas fixture holds (atlas-smoke migration).
ATLAS_FIXTURE_SCENARIOS := verify-small gathering-line-k3 thm31-sweep \
        atlas-programs rendezvous-relabel-line gathering-crash-k3
FAULT_TMP := $(RESULTS_TMP)/repro-fault-smoke
# Every delay_sweep / gathering_sweep scenario, faulted or not, read off
# the kind column of the registry listing (so a new sweep scenario cannot
# skip fault-smoke); expanded only by the targets that use it.
SWEEP_SCENARIOS = $(shell $(PY) -m repro scenarios list | \
        awk '$$2 == "delay_sweep" || $$2 == "gathering_sweep" { print $$1 }')
TELEMETRY_TMP := $(RESULTS_TMP)/repro-telemetry-smoke
ATLAS_TMP := $(RESULTS_TMP)/repro-atlas-smoke
ATLAS_FIXTURE := tests/scenarios/fixtures/atlas-v0.sqlite
KERNEL_CHECK_TMP := $(RESULTS_TMP)/repro-kernel-cache-check
IMPORT_TIME_CACHE := $(RESULTS_TMP)/repro-import-time-pycache
REPORT_TMP := $(RESULTS_TMP)/repro-report.md

.PHONY: test lint lint-invariants bench-smoke bench-engine scenarios-smoke \
        bench-scenarios check-regression golden-diff fault-smoke \
        telemetry-smoke atlas-smoke kernel-cache-check import-time

test:
	$(PY) -m pytest -x -q

# Ruff over everything CI lints; same invocation as the CI lint job
# (install the pinned toolchain with: pip install -r requirements-ci.txt).
lint:
	ruff check src tests benchmarks

# The cross-layer invariant gate (RPR001-RPR006), exactly as CI runs it.
# Pure stdlib: needs nothing beyond the interpreter.
lint-invariants:
	$(PY) -m repro.lint src --format json

# Quick benchmark smokes: refresh BENCH_engine.json (engine + lowering
# sections) and the first gathering grid's JSON result in seconds.
bench-smoke:
	$(PY) benchmarks/bench_engine.py --quick
	$(PY) benchmarks/bench_gathering.py --quick
	$(PY) benchmarks/bench_lowering.py --quick
	$(PY) benchmarks/bench_kernel.py --quick

# Full-size engine-backend benchmark (the numbers quoted in the README).
bench-engine:
	$(PY) benchmarks/bench_engine.py

# Bench regression gate, exactly as CI runs it: snapshot the committed
# BENCH_engine.json, refresh it via bench-smoke, compare timings with
# tolerance, and the solo replay's drive.* counters and the traced
# tier's stored rounds, merge keys and intern entries for equality.
check-regression:
	cp BENCH_engine.json $(BENCH_BASELINE)
	$(MAKE) bench-smoke
	$(PY) benchmarks/check_regression.py \
	    --baseline $(BENCH_BASELINE) --current BENCH_engine.json \
	    --require throughput --require delay_sweep \
	    --require lowering --require kernel \
	    --require telemetry_overhead --require solo_replay \
	    --require traced_memory

# Golden row-level drift gate, exactly as CI runs it: re-run the golden
# scenarios and `scenarios diff` them against the checked-in goldens.
golden-diff:
	mkdir -p $(GOLDEN_TMP)
	@for name in $(GOLDEN_SCENARIOS); do \
	    echo "== $$name"; \
	    $(PY) -m repro scenarios run $$name --save --out $(GOLDEN_TMP) \
	        > /dev/null || exit 1; \
	    $(PY) -m repro scenarios diff $(GOLDEN_TMP)/$$name.json \
	        benchmarks/results/golden/$$name.json || exit 1; \
	done

# Sweep parity smoke: run every delay_sweep / gathering_sweep scenario
# (the fault-injected ones included) on the reference, compiled AND
# auto backends, require identical verdict rows against the reference
# oracle (the sweep parity contract), then exercise the fault-model and
# supervised-pool suites and the fault-parity properties (reference vs
# compiled under random plans; empty and late plans leave the
# fault-free outcome).
fault-smoke:
	mkdir -p $(FAULT_TMP)/reference $(FAULT_TMP)/compiled $(FAULT_TMP)/auto
	@for name in $(SWEEP_SCENARIOS); do \
	    echo "== $$name"; \
	    for backend in reference compiled auto; do \
	        $(PY) -m repro scenarios run $$name --backend $$backend \
	            --save --out $(FAULT_TMP)/$$backend > /dev/null || exit 1; \
	    done; \
	    for backend in compiled auto; do \
	        $(PY) -m repro scenarios diff $(FAULT_TMP)/reference/$$name.json \
	            $(FAULT_TMP)/$$backend/$$name.json || exit 1; \
	    done; \
	done
	$(PY) -m pytest tests/sim/test_faults.py tests/sim/test_supervised.py \
	    tests/properties/test_fault_parity.py -q

# Observability smoke: run a kernel-eligible scenario instrumented
# (delays-line-long: the auto backend sends grids below its kernel lane
# gate to the dict solver, and delays-line is one of those),
# cold then warm against an on-disk table cache, and check the full
# telemetry contract (dispatch tiers reported, phase durations account
# for elapsed time, warm run sees cache hits, event stream parses, the
# offline report renders).  The warm run is a NEW process, so its hits
# prove the cache crosses process boundaries.
telemetry-smoke:
	rm -rf $(TELEMETRY_TMP) && mkdir -p $(TELEMETRY_TMP)/cache
	@echo "== cold (empty kernel cache)"
	REPRO_KERNEL_CACHE=$(TELEMETRY_TMP)/cache $(PY) -m repro scenarios run \
	    delays-line-long --backend auto --telemetry=$(TELEMETRY_TMP)/cold.jsonl \
	    --save --out $(TELEMETRY_TMP)/cold > /dev/null
	$(PY) benchmarks/check_telemetry.py $(TELEMETRY_TMP)/cold/delays-line-long.json \
	    --expect-events $(TELEMETRY_TMP)/cold.jsonl
	@echo "== warm (cache populated, fresh process)"
	REPRO_KERNEL_CACHE=$(TELEMETRY_TMP)/cache $(PY) -m repro scenarios run \
	    delays-line-long --backend auto --telemetry=$(TELEMETRY_TMP)/warm.jsonl \
	    --save --out $(TELEMETRY_TMP)/warm > /dev/null
	$(PY) benchmarks/check_telemetry.py $(TELEMETRY_TMP)/warm/delays-line-long.json \
	    --expect-cache-hits --expect-events $(TELEMETRY_TMP)/warm.jsonl
	@echo "== offline report"
	$(PY) -m repro telemetry report $(TELEMETRY_TMP)/warm.jsonl
	$(PY) -m pytest tests/telemetry -q

# Atlas memoization gate, exactly as CI runs it: init a fresh database,
# run the same scenario twice against it — the cold leg must record an
# atlas.miss and really dispatch, the warm leg must be an atlas.hit with
# ZERO backend dispatch (verified from the live event stream) and save a
# byte-identical payload, and so must the export.  Then bulk-import the
# checked-in results (incl. golden/, which pins delays-line too — hence
# the runs come first), migrate the committed v0 fixture database
# forward and require its exported JSON to match the goldens byte for
# byte.
atlas-smoke:
	rm -rf $(ATLAS_TMP) && mkdir -p $(ATLAS_TMP)
	@echo "== init"
	$(PY) -m repro atlas init --db $(ATLAS_TMP)/atlas.sqlite
	@echo "== cold run (atlas miss, real dispatch)"
	$(PY) -m repro scenarios run delays-line --atlas=$(ATLAS_TMP)/atlas.sqlite \
	    --telemetry=$(ATLAS_TMP)/cold.jsonl --save --out $(ATLAS_TMP)/cold \
	    > /dev/null
	$(PY) benchmarks/check_telemetry.py $(ATLAS_TMP)/cold/delays-line.json \
	    --expect-atlas=miss --expect-events $(ATLAS_TMP)/cold.jsonl
	@echo "== warm run (atlas hit, zero dispatch)"
	$(PY) -m repro scenarios run delays-line --atlas=$(ATLAS_TMP)/atlas.sqlite \
	    --telemetry=$(ATLAS_TMP)/warm.jsonl --save --out $(ATLAS_TMP)/warm \
	    > /dev/null
	$(PY) benchmarks/check_telemetry.py $(ATLAS_TMP)/warm/delays-line.json \
	    --expect-atlas=hit --expect-events $(ATLAS_TMP)/warm.jsonl
	cmp $(ATLAS_TMP)/cold/delays-line.json $(ATLAS_TMP)/warm/delays-line.json
	@echo "== export round-trip"
	$(PY) -m repro atlas export delays-line --db $(ATLAS_TMP)/atlas.sqlite \
	    --out $(ATLAS_TMP)/exported
	cmp $(ATLAS_TMP)/exported/delays-line.json $(ATLAS_TMP)/cold/delays-line.json
	@echo "== bulk import"
	$(PY) -m repro atlas import benchmarks/results --db $(ATLAS_TMP)/atlas.sqlite
	$(PY) -m repro atlas stats --db $(ATLAS_TMP)/atlas.sqlite
	@echo "== v0 schema migration"
	cp $(ATLAS_FIXTURE) $(ATLAS_TMP)/v0.sqlite
	$(PY) -m repro atlas init --db $(ATLAS_TMP)/v0.sqlite
	$(PY) -m repro atlas export --all --db $(ATLAS_TMP)/v0.sqlite \
	    --out $(ATLAS_TMP)/migrated
	@for name in $(ATLAS_FIXTURE_SCENARIOS); do \
	    echo "== migrated $$name"; \
	    $(PY) -m repro scenarios diff $(ATLAS_TMP)/migrated/$$name.json \
	        benchmarks/results/golden/$$name.json || exit 1; \
	    cmp $(ATLAS_TMP)/migrated/$$name.json \
	        benchmarks/results/golden/$$name.json || exit 1; \
	done
	$(PY) -m pytest tests/scenarios/test_atlas_store.py \
	    tests/scenarios/test_atlas_runner.py tests/scenarios/test_atlas_cli.py -q

# CI kernel-cache gate: with REPRO_KERNEL_CACHE pointing at a persisted
# cache directory (actions/cache keeps it across runs), populate it once,
# then require a FRESH process to report kernel.table.disk_hit > 0 — the
# only hit kind an empty in-process memo can produce.  It runs
# delays-line-long, a sweep above the auto backend's kernel lane gate.
kernel-cache-check:
ifndef REPRO_KERNEL_CACHE
	$(error REPRO_KERNEL_CACHE must point at the persisted kernel cache directory)
endif
	@echo "== populate $(REPRO_KERNEL_CACHE)"
	$(PY) -m repro scenarios run delays-line-long --backend auto > /dev/null
	@echo "== fresh process must hit the on-disk table cache"
	rm -rf $(KERNEL_CHECK_TMP) && mkdir -p $(KERNEL_CHECK_TMP)
	$(PY) -m repro scenarios run delays-line-long --backend auto \
	    --telemetry=$(KERNEL_CHECK_TMP)/warm.jsonl --save \
	    --out $(KERNEL_CHECK_TMP) > /dev/null
	$(PY) benchmarks/check_telemetry.py $(KERNEL_CHECK_TMP)/delays-line-long.json \
	    --expect-disk-hits --expect-events $(KERNEL_CHECK_TMP)/warm.jsonl

# Import cost of a fresh scenario process: the perfbench worker's setup
# imports under `python -X importtime`, the 20 costliest modules by self
# time.  Informational (gates nothing); the bytecode cache under
# $(IMPORT_TIME_CACHE) is warmed first, whatever PYTHONDONTWRITEBYTECODE says.
import-time:
	python benchmarks/import_time.py --cache $(IMPORT_TIME_CACHE)

# Quick pass over the scenario registry (the experiment tables, small grids),
# then the same plan rendered as the markdown report.
scenarios-smoke:
	$(PY) -m repro experiments --quick
	$(PY) -m repro report -o $(REPORT_TMP)

# Regenerate every benchmark's JSON result under benchmarks/results/.
bench-scenarios:
	$(PY) -m pytest benchmarks/ -q
