# Convenience targets for the Terra reproduction.

PYTHON ?= python3
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test check env-doc verify-ir fuzz-smoke autovec-smoke schedule-smoke frontend-smoke tier-smoke trace-demo parallel-smoke serve-smoke bench bench-ledger bench-compile bench-serve bench-autovec bench-schedule report examples clean

TRACE_DEMO_OUT ?= $(or $(TMPDIR),/tmp)/repro-trace-demo.json
PARALLEL_TRACE_OUT ?= $(or $(TMPDIR),/tmp)/repro-parallel-trace.json
SERVE_TRACE_OUT ?= $(or $(TMPDIR),/tmp)/repro-serve-trace.json
TIER_TRACE_OUT ?= $(or $(TMPDIR),/tmp)/repro-tier-trace.json

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/ -q

check:  # the tier-1 gate: full test suite + a buildd CLI smoke
	$(PYTHON) -m pytest tests/ -x -q
	$(PYTHON) -m repro.buildd --stats
	$(PYTHON) -m repro.buildd --gc
	@echo "src lines: $$(find src -name '*.py' | xargs cat | wc -l)"
	@echo "REPRO_* knobs: $$(grep -c '^| `REPRO_' docs/ENVIRONMENT.md)"
	@echo "src files touching os.environ: $$(grep -rl 'os\.environ' src --include='*.py' | wc -l) (config.py, fuzz/child.py, fuzz/runner.py)"

env-doc:  # docs/ENVIRONMENT.md is generated from the table in src/repro/config.py
	$(PYTHON) -m repro.config > docs/ENVIRONMENT.md

test-verbose:
	$(PYTHON) -m pytest tests/ -v

verify-ir:  # full suite with the IR verifier re-checking after every pass
	REPRO_TERRA_VERIFY_IR=1 $(PYTHON) -m pytest tests/ -x -q

fuzz-smoke:  # fixed-seed differential fuzz: interp/c/tiered x levels 0/1/2
	REPRO_TERRA_VERIFY_IR=1 $(PYTHON) -m repro.fuzz --seed 20260806 --count 300 --tiered

autovec-smoke:  # the vectorizer gate: unit tests, corpus replay + fixed-seed
	# fuzz with level 3 in the matrix (verifier on), then the speedup benchmark
	$(PYTHON) -m pytest tests/passes/test_vectorize.py -q
	REPRO_TERRA_VERIFY_IR=1 $(PYTHON) -m repro.fuzz --replay tests/fuzz/corpus --autovec
	REPRO_TERRA_VERIFY_IR=1 $(PYTHON) -m repro.fuzz --seed 20260806 --count 300 --autovec
	$(PYTHON) -m pytest benchmarks/test_autovec.py -p no:benchmark -q -s

bench-autovec:  # auto-vectorizer speedup vs scalar C (writes BENCH_autovec.json)
	$(PYTHON) -m pytest benchmarks/test_autovec.py -p no:benchmark -q -s

schedule-smoke:  # the tile-schedule gate: directive/lowering/workload tests
	# (every point bit-identical to naive across backends x levels),
	# fixed-seed fuzz with the lenient sched configs in the matrix
	# (verifier on), then the ablation benchmark
	$(PYTHON) -m pytest tests/schedule -q
	REPRO_TERRA_VERIFY_IR=1 $(PYTHON) -m repro.fuzz --seed 20260806 --count 300 --schedule
	$(PYTHON) -m pytest benchmarks/test_schedule.py -p no:benchmark -q -s

bench-schedule:  # tile-schedule ablation sweep (writes BENCH_schedule.json)
	$(PYTHON) -m pytest benchmarks/test_schedule.py -p no:benchmark -q -s

frontend-smoke:  # the @terra frontend gate: parity suite (typed-IR equality,
	# bit-identical results, byte-identical C), doc snippets, the runnable
	# example, and the cache-hit/overhead benchmark
	$(PYTHON) -m pytest tests/frontend -q
	$(PYTHON) -m pytest tests/examples/test_docs_snippets.py -q
	$(PYTHON) examples/pyast_frontend.py
	$(PYTHON) -m pytest benchmarks/test_frontend.py -p no:benchmark -q -s

tier-smoke:  # exec-layer tests, then a traced tiered demo (tier-up + deopt events)
	$(PYTHON) -m pytest tests/exec -q
	REPRO_TERRA_TRACE=1 REPRO_TERRA_TRACE_OUT=$(TIER_TRACE_OUT) \
		$(PYTHON) -m repro.exec --threshold 4 --calls 12 --sync
	$(PYTHON) -m repro.trace validate $(TIER_TRACE_OUT)
	@echo "tier trace written to $(TIER_TRACE_OUT) — open in ui.perfetto.dev"

fuzz:  # open-ended fuzzing; pick a seed, minimize + save any findings
	$(PYTHON) -m repro.fuzz --seed $$RANDOM --count 1000 --minimize --save findings/

trace-demo:  # record a full-lifecycle trace of quickstart.py, validate, summarize
	REPRO_TERRA_TRACE=1 REPRO_TERRA_TRACE_OUT=$(TRACE_DEMO_OUT) \
		$(PYTHON) examples/quickstart.py
	$(PYTHON) -m repro.trace validate $(TRACE_DEMO_OUT)
	$(PYTHON) -m repro.trace view $(TRACE_DEMO_OUT)
	@echo "trace written to $(TRACE_DEMO_OUT) — open in ui.perfetto.dev"

parallel-smoke:  # parallel == serial at tiny size, then a traced demo (worker lanes)
	$(PYTHON) -m pytest tests/parallel benchmarks/test_parallel_scaling.py -p no:benchmark -q
	REPRO_TERRA_TRACE=1 REPRO_TERRA_TRACE_OUT=$(PARALLEL_TRACE_OUT) \
		$(PYTHON) -m repro.parallel --n 2048 --threads 4
	$(PYTHON) -m repro.trace validate $(PARALLEL_TRACE_OUT)
	@echo "worker-lane trace written to $(PARALLEL_TRACE_OUT) — open in ui.perfetto.dev"

serve-smoke:  # protocol tests, then a self-checking multi-tenant load with a trace
	$(PYTHON) -m pytest tests/serve -q
	$(PYTHON) -m repro.serve --smoke --smoke-tenants 4 --trace $(SERVE_TRACE_OUT)
	$(PYTHON) -m repro.trace validate $(SERVE_TRACE_OUT)
	@echo "serve trace written to $(SERVE_TRACE_OUT) — open in ui.perfetto.dev"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

OUT ?= benchmarks/ledger/out
WORKLOADS ?=

bench-ledger:  # the performance ledger, 3 runs, compared to the committed baseline
	# (WORKLOADS=stage_cached,stage_cold runs a subset: two minutes, not twenty-five)
	$(PYTHON) benchmarks/ledger/run.py --out $(OUT) --runs 3 $(if $(WORKLOADS),--workloads $(WORKLOADS))
	$(PYTHON) benchmarks/ledger/run.py compare benchmarks/ledger/baseline/a.json $(OUT)/ledger.json

bench-compile:  # serial vs. parallel tuner compile wall-clock (buildd)
	$(PYTHON) -m pytest benchmarks/test_compile_throughput.py -p no:benchmark -q -s

bench-serve:  # multi-tenant serving throughput + tail latency (writes BENCH_serve.json)
	$(PYTHON) -m pytest benchmarks/test_serve_throughput.py -p no:benchmark -q -s

bench-shapes:  # the paper-shape assertions (who wins, by how much)
	$(PYTHON) -m pytest benchmarks/ -p no:benchmark -q -k "shape or correctness or results or identical or agree"

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

report:
	$(PYTHON) benchmarks/report.py

report-full:
	$(PYTHON) benchmarks/report.py --full

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		$(PYTHON) $$ex || exit 1; \
	done

clean:
	rm -rf /tmp/repro-terra-$$(id -u) .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
