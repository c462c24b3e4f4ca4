"""Serial-vs-parallel bit-identity, pinned for every driver.

The non-negotiable contract of :mod:`repro.bench.parallel`: a parallel
sweep produces fingerprints bit-identical to the serial sweep — for
``run_suite``, ``run_repeated``, the perf matrix, and the chaos
fan-out — and the ``jobs=1`` path is itself bit-identical to calling
:func:`~repro.bench.harness.run_benchmark` directly (the pre-engine
code path). Scales are tiny; what matters is that every driver's
parallel plumbing funnels through the same simulation.
"""

import pytest

from repro.bench.harness import run_benchmark
from repro.bench.parallel import RunSummary, WorkloadSpec, run_fingerprint
from repro.bench.perf import PerfCase, run_matrix
from repro.bench.repeat import run_repeated
from repro.bench.experiments import run_suite
from repro.faults.chaos import run_chaos, run_chaos_matrix
from repro.obs.mastery import DecisionLedger
from repro.sim.config import ClusterConfig

SYSTEMS = ("dynamast", "single-master")
TINY = dict(num_clients=4, duration_ms=200.0, warmup_ms=40.0)
CLUSTER = dict(num_sites=2, cores_per_site=2)


def tiny_workload_spec():
    return WorkloadSpec.of("ycsb", num_partitions=16, rmw_fraction=0.5)


class TestRunSuiteParity:
    def test_parallel_matches_serial(self):
        spec = tiny_workload_spec()
        serial = run_suite(spec, systems=SYSTEMS, cluster=CLUSTER,
                           seed=3, jobs=1, **TINY)
        parallel = run_suite(spec, systems=SYSTEMS, cluster=CLUSTER,
                             seed=3, jobs=2, **TINY)
        assert list(parallel) == list(SYSTEMS)  # deterministic order
        for system in SYSTEMS:
            assert isinstance(parallel[system], RunSummary)
            assert parallel[system].fingerprint == run_fingerprint(serial[system])

    def test_jobs1_matches_direct_run_benchmark(self):
        """The serial path is the pre-engine path, bit for bit."""
        spec = tiny_workload_spec()
        suite = run_suite(spec, systems=("dynamast",), cluster=CLUSTER,
                          seed=3, jobs=1, **TINY)
        direct = run_benchmark(
            "dynamast", spec.build(),
            cluster_config=ClusterConfig(**CLUSTER), seed=3, **TINY,
        )
        assert run_fingerprint(suite["dynamast"]) == run_fingerprint(direct)

    def test_observed_runs_fold_identical_attribution(self):
        spec = tiny_workload_spec()
        serial = run_suite(spec, systems=("dynamast",), cluster=CLUSTER,
                           seed=3, jobs=1, observed=True, **TINY)
        parallel = run_suite(spec, systems=("dynamast",), cluster=CLUSTER,
                             seed=3, jobs=2, observed=True, **TINY)
        live, summary = serial["dynamast"], parallel["dynamast"]
        assert summary.fingerprint == run_fingerprint(live)
        assert summary.attribution_shares  # folded worker-side
        assert summary.attribution_shares == live.portable().attribution_shares

    def test_mastery_runs_fold_identical_summaries(self):
        """--jobs N mastering runs carry the same scalars as serial,
        and attaching the ledger never perturbs the simulation."""
        spec = tiny_workload_spec()
        kwargs = dict(systems=SYSTEMS, cluster=CLUSTER, seed=3, **TINY)
        plain = run_suite(spec, jobs=1, **kwargs)
        serial = run_suite(spec, jobs=1, mastery=True, **kwargs)
        parallel = run_suite(spec, jobs=2, mastery=True, **kwargs)
        for system in SYSTEMS:
            live = run_benchmark(
                system, spec.build(), cluster_config=ClusterConfig(**CLUSTER),
                seed=3, ledger=DecisionLedger(), **TINY,
            )
            summary = parallel[system]
            # Passive recorder: mastering-observed == unobserved.
            assert summary.fingerprint == run_fingerprint(plain[system])
            assert summary.fingerprint == run_fingerprint(live)
            assert serial[system].fingerprint == summary.fingerprint
            # The folded scalars match the live ledger's summary.
            assert summary.mastery == live.ledger.summary()
            assert serial[system].mastery == summary.mastery
            assert summary.mastery["updates_routed"] > 0

    def test_faulted_suite_parity(self):
        spec = tiny_workload_spec()
        kwargs = dict(systems=("dynamast",), cluster=CLUSTER, seed=3,
                      fault_scenario="crash", **TINY)
        serial = run_suite(spec, jobs=1, **kwargs)
        parallel = run_suite(spec, jobs=2, **kwargs)
        assert parallel["dynamast"].fingerprint == \
            run_fingerprint(serial["dynamast"])
        assert parallel["dynamast"].fault_events  # the crash happened

    def test_unknown_option_is_rejected_by_the_spec(self):
        with pytest.raises(TypeError, match="obs"):
            run_suite(tiny_workload_spec(), systems=("dynamast",), obs=object())


class TestRunRepeatedParity:
    def test_parallel_matches_serial_across_seeds(self):
        spec = tiny_workload_spec()
        kwargs = dict(seeds=(1, 2), cluster=ClusterConfig(**CLUSTER), **TINY)
        serial = run_repeated("dynamast", spec, jobs=1, **kwargs)
        parallel = run_repeated("dynamast", spec, jobs=2, **kwargs)
        for live, summary in zip(serial.runs, parallel.runs):
            assert summary.fingerprint == run_fingerprint(live)
        assert parallel.throughput == serial.throughput
        assert parallel.mean_latency == serial.mean_latency
        assert parallel.p99_latency == serial.p99_latency

    @pytest.mark.parametrize("option", [
        dict(fault_scenario="crash"), dict(observed=True), dict(mastery=True),
    ], ids=["fault_scenario", "observed", "mastery"])
    def test_spec_options_run_identically_at_every_jobs(self, option):
        spec = tiny_workload_spec()
        kwargs = dict(seeds=(1, 2), cluster=ClusterConfig(**CLUSTER),
                      **TINY, **option)
        serial = run_repeated("dynamast", spec, jobs=1, **kwargs)
        parallel = run_repeated("dynamast", spec, jobs=2, **kwargs)
        def folded(result):
            return [(run.fingerprint, run.attribution_shares, run.mastery)
                    for run in result.runs]

        assert folded(serial) == folded(parallel)
        for run in serial.runs:
            if "fault_scenario" in option:
                assert run.fault_events  # the crash happened
            if "observed" in option:
                assert run.attribution_shares
            if "mastery" in option:
                assert run.mastery["updates_routed"] > 0


class TestPerfMatrixParity:
    CASES = (
        PerfCase("tiny-dynamast", "dynamast", "ycsb", 4, 150.0, 2, seed=5),
        PerfCase("tiny-leap", "leap", "ycsb", 4, 150.0, 2, seed=5),
    )

    def test_parallel_matrix_simulated_quantities_match_serial(self):
        serial = run_matrix(self.CASES, repeats=1, jobs=1)
        parallel = run_matrix(self.CASES, repeats=1, jobs=2)
        assert list(parallel["cases"]) == [case.name for case in self.CASES]
        for name, fresh in parallel["cases"].items():
            base = serial["cases"][name]
            # Simulated quantities are bit-identical; host-side walls and
            # RSS legitimately differ between processes.
            assert fresh["fingerprint"] == base["fingerprint"]
            assert fresh["sim_events"] == base["sim_events"]
            assert fresh["commits"] == base["commits"]
        block = parallel["machine"]["parallel"]
        assert block["jobs"] == 2
        assert block["serial_equivalent_s"] > 0
        assert block["peak_rss_kb_max_worker"] > 0
        assert parallel["settings"]["jobs"] == 2


class TestChaosMatrixParity:
    def test_matrix_cell_matches_run_chaos(self):
        kwargs = dict(num_sites=2, num_clients=4, duration_ms=1500.0,
                      bucket_ms=250.0, seed=4)
        single = run_chaos("dynamast", "crash", **kwargs)
        matrix = run_chaos_matrix(("dynamast",), ("crash",), jobs=2, **kwargs)
        cell = matrix[("dynamast", "crash")]
        assert cell.commits == single.commits
        assert cell.aborts_by_reason == single.aborts_by_reason
        assert cell.fault_events == single.fault_events
        assert cell.buckets == single.buckets
        assert cell.steady_rate() == single.steady_rate()

    def test_matrix_order_is_systems_outer_scenarios_inner(self):
        matrix = run_chaos_matrix(
            ("dynamast", "single-master"), ("crash", "partition"),
            jobs=1, num_sites=2, num_clients=2, duration_ms=400.0, seed=4,
        )
        assert list(matrix) == [
            ("dynamast", "crash"), ("dynamast", "partition"),
            ("single-master", "crash"), ("single-master", "partition"),
        ]
