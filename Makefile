# Convenience targets for the DynaMast reproduction.

.PHONY: install test test-output lint bench bench-output examples quick chaos chaos-gray explain-smoke masters-smoke slo-smoke perf perf-check perf-sweep scale scale-smoke bench-smoke figures-smoke clean

# Worker processes for parallel-capable targets (perf, test with
# pytest-xdist installed). 1 = classic serial behavior.
JOBS ?= 1

# Top jobs level for the perf-sweep target (sweep runs {1, 2, CORES}).
CORES ?= 2

install:
	pip install -e . || python setup.py develop

# Uses pytest-xdist when installed (and JOBS != 1); falls back to the
# plain serial run otherwise so the tier-1 command works everywhere.
test:
	@if [ "$(JOBS)" != "1" ] && python -c "import xdist" 2>/dev/null; then \
		python -m pytest tests/ -n $(JOBS); \
	else \
		python -m pytest tests/; \
	fi

lint:
	ruff check src tests

test-output:
	python -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	python -m pytest benchmarks/ --benchmark-only -s

bench-output:
	python -m pytest benchmarks/ --benchmark-only -s 2>&1 | tee bench_output.txt

examples:
	python examples/quickstart.py
	python examples/protocol_walkthrough.py
	python examples/recovery_demo.py
	python examples/adaptivity_demo.py

quick:
	python -m repro compare --clients 16 --duration 500

# One short fault scenario per system: exercises crash/restart rejoin,
# partition routing, and lossy-link retries end to end.
chaos:
	python -m repro chaos --system dynamast --scenario crash-restart --duration 3000 --clients 8
	python -m repro chaos --system single-master --scenario crash --duration 2000 --clients 8
	python -m repro chaos --system multi-master --scenario partition --duration 2000 --clients 8
	python -m repro chaos --system partition-store --scenario lossy --duration 2000 --clients 8
	python -m repro chaos --system leap --scenario crash-restart --duration 2000 --clients 8

# Gray-failure sweep: every system through every gray scenario
# (fail-slow master, degraded WAN link, flapping site, gray storm)
# with the adaptive defenses armed — phi-accrual detection, adaptive
# deadlines, hedged reads, health-aware remastering — at two seeds,
# plus the headline fixed-vs-adaptive comparison on the fail-slow
# master (EXPERIMENTS.md, Gray failures). --masters attaches the
# decision ledger so the matrix reports whether mastership
# re-converged after the fault. Leaves chaos_gray_seed*.csv timelines
# for CI to upload.
chaos-gray:
	for seed in 0 1; do \
		python -m repro chaos \
			--systems dynamast,single-master,multi-master,partition-store,leap \
			--scenarios fail_slow_master,degraded_wan_link,flapping_site,gray_storm \
			--defenses adaptive --masters --duration 5000 --clients 8 --jobs 2 \
			--seed $$seed --out chaos_gray_seed$$seed.csv || exit 1; \
	done
	python -m repro chaos --system dynamast --scenario fail_slow_master \
		--defenses fixed --duration 5000 --clients 8
	python -m repro chaos --system dynamast --scenario fail_slow_master \
		--defenses adaptive --masters --duration 5000 --clients 8

# Tiny observed run asserting the attribution invariant: the budget
# categories must sum to ~100% of measured commit latency (DESIGN.md
# §6.5). Leaves explain_report.json for CI to upload as an artifact.
explain-smoke:
	python -m repro explain --system dynamast --clients 4 --duration 300 --sites 2 --seed 7 --export explain_report.json
	python -c "import json; r = json.load(open('explain_report.json')); \
	  assert abs(r['coverage'] - 1.0) < 1e-6, r['coverage']; \
	  total = sum(r['aggregate']['categories'].values()); \
	  assert abs(total - r['total_latency_ms']) < 1e-6, (total, r['total_latency_ms']); \
	  print('explain-smoke OK:', r['txn_count'], 'txns, coverage %.6f' % r['coverage'])"

# Ledger round-trip gate: a short skewed run must record decisions,
# export them (repro-masters/1 JSONL), and the export must reconstruct
# the run — loadable header, offline-recomputable decisions, and a
# final placement consistent with the recorded ownership changes
# (DESIGN.md §6.6). Leaves masters_ledger.jsonl for CI to upload.
masters-smoke:
	python -m repro masters --system dynamast --skew 0.9 --clients 8 --duration 400 --seed 7 --export-jsonl masters_ledger.jsonl --export-csv masters_rate.csv
	python -c "from repro.obs.mastery import load_jsonl, recompute_decision; \
	  data = load_jsonl('masters_ledger.jsonl'); \
	  header, decisions = data['header'], data['decisions']; \
	  assert decisions, 'no decisions recorded'; \
	  assert all(recompute_decision(d)[1] for d in decisions), 'offline recompute mismatch'; \
	  assert header['partitions_moved'] == len(data['changes']), 'totals disagree'; \
	  print('masters-smoke OK:', len(decisions), 'decisions,', len(data['changes']), 'ownership changes round-tripped')"

# SLO gate (DESIGN.md §6.7): a fail-slow gray run with the streaming
# monitors attached must detect the injected fault window (>= 1
# true-positive incident, no missed spans), hold all four runtime
# invariants, and leave a repro-slo/1 ledger plus a self-contained
# HTML dashboard for CI to upload. The second step re-runs the same
# spec with and without the engine and pins the fingerprints
# bit-identical: monitoring never changes a run.
# (6000 ms, not shorter: with the adaptive defenses armed — the
# default, and the config the tests pin — a briefer fail-slow window
# is masked so well by hedging/health-aware remastering that the
# burn-rate gate rightly stays quiet.)
slo-smoke:
	python -m repro slo --system dynamast --scenario fail_slow_master \
		--duration 6000 --clients 8 --quick \
		--html slo_dashboard.html --export-jsonl slo_incidents.jsonl
	python -c "from repro.obs.slo import load_jsonl; import os; \
	  data = load_jsonl('slo_incidents.jsonl'); header = data['header']; \
	  assert header['true_positives'] >= 1, header; \
	  assert header['violations'] == 0, header; \
	  assert header['missed_faults'] == 0, header; \
	  assert data['spans'] and all(s['detected'] for s in data['spans']), data['spans']; \
	  assert os.path.getsize('slo_dashboard.html') > 0; \
	  print('slo-smoke OK: %d true positive(s), MTTD %.0f ms' \
	        % (header['true_positives'], header['mttd_mean_ms']))"
	python -c "from repro.bench.parallel import run_fingerprint; \
	  from repro.faults.chaos import run_chaos; \
	  from repro.obs import quick_slos; \
	  kw = dict(num_clients=8, duration_ms=2000.0); \
	  off = run_chaos('dynamast', 'fail_slow_master', **kw).result; \
	  on = run_chaos('dynamast', 'fail_slow_master', slo=quick_slos(), **kw).result; \
	  a, b = run_fingerprint(off), run_fingerprint(on); \
	  assert a == b, (a, b); \
	  print('slo-smoke OK: slo-ON fingerprint == slo-OFF (%s)' % a)"

# Full perf matrix; refreshes BENCH_perf.json (see DESIGN.md §8).
# JOBS=n fans the cases over worker processes; simulated results are
# bit-identical to serial, and per-case walls are measured inside each
# worker so the report stays comparable.
perf:
	python -m repro perf --jobs $(JOBS)

# Quick regression gate against the committed BENCH_perf.json: the
# three-case subset, nonzero exit if any case is >15% slower after
# calibration-normalizing for host speed.
perf-check:
	python -m repro perf --check --quick

# Multi-core sweep: the full matrix at jobs levels {1, 2, CORES} with
# fingerprint parity enforced between levels; refreshes BENCH_perf.json
# including the machine.parallel.sweep block (EXPERIMENTS.md, Parallel
# execution). CORES=n picks the top level.
perf-sweep:
	python -m repro perf --cores $(CORES)

# Full open-loop saturation matrix; refreshes BENCH_scale.json with
# every system's knee ladder plus the flagship 16-site / 100k-client /
# 1M-key diurnal case (docs/SCALE.md).
scale:
	python -m repro perf --scale --jobs $(JOBS)

# Capacity-determinism gate against the committed BENCH_scale.json:
# the five cheap per-system ladders at --jobs 2 must fingerprint
# bit-identically to the committed report (simulated results are
# machine-independent) and each rung must fit its peak-RSS budget.
scale-smoke:
	python -m repro perf --scale --smoke --check --jobs 2

# The repository benchmark (perfbench/, declared in BENCHMARK.json):
# its own unit tests, then every workload for one second. The run's
# exit status is the benchmark's correctness gate (no failed
# transactions, metrics present).
bench-smoke:
	python3 -m pytest perfbench -q
	python3 perfbench/run.py --workload all --seconds 1

# Two paper-figure benches that consume run_suite results (Figure 4b
# YCSB write-heavy, Figure 8a SmallBank): proves the figure files still
# read everything they need off the suite summaries (~70-90 s).
figures-smoke:
	python -m pytest benchmarks/test_fig4b_ycsb_write_heavy.py benchmarks/test_fig8a_smallbank_throughput.py --benchmark-only -q

clean:
	rm -rf .pytest_cache build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
