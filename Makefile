# Convenience targets for the Terra reproduction.

PYTHON ?= python3
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test check env-doc verify-ir fuzz-smoke fuzz bench-shapes bench-ledger report examples clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/ -q

check:  # the tier-1 gate: full test suite + buildd CLI and serve smokes
	$(PYTHON) -m pytest tests/ -x -q
	$(PYTHON) -c "import repro, sys; assert 'numpy' not in sys.modules"
	$(PYTHON) -m repro.buildd --stats
	$(PYTHON) -m repro.buildd --gc
	@$(PYTHON) -m repro.buildd --stats | grep '^spec\.memo'
	@$(PYTHON) -m repro.serve --smoke | grep '^serve\.exec: inline=[1-9][0-9]* .* demoted=0$$'
	@$(PYTHON) -m tests.exec.callpath
	@echo "src: $$(find src -name '*.py' | xargs cat | wc -l) lines," \
		"$$($(PYTHON) -c 'from repro import config; print(len(config.VARS))') REPRO_* variables"
	@echo "src files touching os.environ:" $$(grep -rl 'os\.environ' src --include='*.py')

env-doc:  # docs/ENVIRONMENT.md is generated from the table in src/repro/config.py
	$(PYTHON) -m repro.config > docs/ENVIRONMENT.md

verify-ir:  # full suite with the IR verifier re-checking after every pass
	REPRO_TERRA_VERIFY_IR=1 $(PYTHON) -m pytest tests/ -x -q

fuzz-smoke:  # the differential gate, verifier on: corpus replay, then 300
	# fixed-seed programs, over interp/c/tiered x levels 0/1 plus the
	# vectorizing level 2 and the lenient tile-schedule configs
	REPRO_TERRA_VERIFY_IR=1 $(PYTHON) -m repro.fuzz --replay tests/fuzz/corpus --tiered --autovec --schedule
	REPRO_TERRA_VERIFY_IR=1 $(PYTHON) -m repro.fuzz --seed 20260806 --count 300 --tiered --autovec --schedule

fuzz:  # open-ended fuzzing; pick a seed, minimize + save any findings
	$(PYTHON) -m repro.fuzz --seed $$RANDOM --count 1000 --minimize --save findings/

bench-shapes:  # the paper-shape assertions (who wins, by how much)
	$(PYTHON) -m pytest benchmarks/test_shapes.py -q

OUT ?= benchmarks/ledger/out
WORKLOADS ?=

bench-ledger:  # the performance ledger, 3 runs, compared to the committed baseline
	# (WORKLOADS=stage_cached,stage_cold runs a subset: two minutes, not twenty-five)
	$(PYTHON) benchmarks/ledger/run.py --out $(OUT) --runs 3 $(if $(WORKLOADS),--workloads $(WORKLOADS))
	$(PYTHON) benchmarks/ledger/run.py compare benchmarks/ledger/baseline/a.json $(OUT)/ledger.json

report:  # every table of EXPERIMENTS.md in one run (benchmarks/report.py --full: paper scale)
	$(PYTHON) benchmarks/report.py

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		$(PYTHON) $$ex || exit 1; \
	done

clean:  # the artifact cache the code uses (REPRO_TERRA_CACHE or $$TMPDIR), then droppings
	$(PYTHON) -m repro.buildd --clear
	rm -rf .pytest_cache .hypothesis $(OUT)
	find . -name __pycache__ -type d -exec rm -rf {} +
