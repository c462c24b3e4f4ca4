"""Experiment drivers: one per table/figure of the paper's evaluation.

Each driver assembles the workload and cluster configuration for one
experiment, runs the relevant systems, and returns plain data that the
``benchmarks/`` tree formats as paper-vs-measured tables and asserts
shape criteria on. The default scales are reduced relative to the
paper's 5-minute cluster runs (see DESIGN.md §1) but preserve the
contention structure each experiment depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import ALL_SYSTEMS, RunResult, run_benchmark
from repro.bench.parallel import RunSpec, RunSummary, WorkloadSpec, execute_specs
from repro.core.strategy import StrategyWeights
from repro.sim.config import ClusterConfig
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

#: Default scales for the YCSB experiments (4 sites as in the paper).
YCSB_CLUSTER = dict(num_sites=4, cores_per_site=4)
YCSB_CLIENTS = 48
#: Default scales for the TPC-C experiments (paper: 8 sites, 350
#: clients; scaled to keep bench runtimes tractable while preserving
#: the per-warehouse contention ratio).
TPCC_CLUSTER = dict(num_sites=4, cores_per_site=6)
TPCC_CLIENTS = 120
DURATION_MS = 1200.0
WARMUP_MS = 400.0


def run_suite(
    workload: WorkloadSpec,
    systems: Sequence[str] = ALL_SYSTEMS,
    cluster: Optional[dict] = None,
    num_clients: int = YCSB_CLIENTS,
    duration_ms: float = DURATION_MS,
    warmup_ms: float = WARMUP_MS,
    seed: int = 0,
    jobs: int = 1,
    **kwargs,
) -> Dict[str, RunSummary]:
    """Run one workload against several systems (fresh workload each).

    Builds one :class:`~repro.bench.parallel.RunSpec` per system and
    executes them with :func:`~repro.bench.parallel.execute_specs`:
    in-process and in order at ``jobs=1``, across worker processes
    otherwise, with bit-identical simulated results either way (pinned
    by ``tests/test_parallel_parity.py``). Extra kwargs are ``RunSpec``
    fields (``weights``, ``fault_scenario``, ``observed``, ...).
    Returns portable :class:`~repro.bench.parallel.RunSummary` objects
    keyed by system; a failing run raises
    :class:`~repro.bench.parallel.SpecExecutionError` once the others
    have finished.
    """
    specs = [
        RunSpec(
            system=system,
            workload=workload,
            num_clients=num_clients,
            duration_ms=duration_ms,
            warmup_ms=warmup_ms,
            cluster=ClusterConfig(**(cluster or YCSB_CLUSTER)),
            seed=seed,
            **kwargs,
        )
        for system in systems
    ]
    return dict(zip(systems, execute_specs(specs, jobs=jobs)))


# ---------------------------------------------------------------------------
# E1 / E2 — Figures 4a, 4b: YCSB throughput
# ---------------------------------------------------------------------------


def fig4a_ycsb_uniform(
    client_counts: Sequence[int] = (12, 24, 48),
    systems: Sequence[str] = ALL_SYSTEMS,
) -> Dict[str, Dict[int, RunSummary]]:
    """Figure 4a: uniform YCSB, 50/50 RMW/scan, throughput vs clients."""
    results: Dict[str, Dict[int, RunSummary]] = {s: {} for s in systems}
    for clients in client_counts:
        suite = run_suite(
            WorkloadSpec.of("ycsb", rmw_fraction=0.5),
            systems=systems,
            num_clients=clients,
        )
        for system, result in suite.items():
            results[system][clients] = result
    return results


def fig4b_ycsb_write_heavy(
    systems: Sequence[str] = ALL_SYSTEMS,
) -> Dict[str, RunSummary]:
    """Figure 4b: uniform YCSB, 90/10 RMW/scan."""
    return run_suite(WorkloadSpec.of("ycsb", rmw_fraction=0.9), systems=systems)


# ---------------------------------------------------------------------------
# E3 / E4 / E15 — Figures 4c, 4d, 8e-8g: TPC-C latency
# ---------------------------------------------------------------------------


def tpcc_default_suite(
    systems: Sequence[str] = ALL_SYSTEMS,
    neworder_remote: float = 0.10,
    payment_remote: float = 0.15,
    num_clients: int = TPCC_CLIENTS,
    duration_ms: float = DURATION_MS,
) -> Dict[str, RunSummary]:
    """The default-mix TPC-C run shared by figures 4c, 4d and 8e-8g."""
    return run_suite(
        WorkloadSpec.of(
            "tpcc",
            neworder_remote_fraction=neworder_remote,
            payment_remote_fraction=payment_remote,
        ),
        systems=systems,
        cluster=TPCC_CLUSTER,
        num_clients=num_clients,
        duration_ms=duration_ms,
    )


# ---------------------------------------------------------------------------
# E5 — Figure 4e: throughput vs % New-Order
# ---------------------------------------------------------------------------


def fig4e_neworder_mix(
    neworder_fractions: Sequence[float] = (0.45, 0.90),
    systems: Sequence[str] = ALL_SYSTEMS,
) -> Dict[str, Dict[float, RunSummary]]:
    """Figure 4e: shift the mix toward New-Order transactions."""
    results: Dict[str, Dict[float, RunSummary]] = {s: {} for s in systems}
    for fraction in neworder_fractions:
        remainder = 1.0 - fraction
        suite = run_suite(
            WorkloadSpec.of(
                "tpcc",
                neworder_weight=fraction,
                payment_weight=remainder / 2,
                stocklevel_weight=remainder / 2,
            ),
            systems=systems,
            cluster=TPCC_CLUSTER,
            num_clients=TPCC_CLIENTS,
            duration_ms=1000.0,
        )
        for system, result in suite.items():
            results[system][fraction] = result
    return results


# ---------------------------------------------------------------------------
# E6 — §VI-B3: New-Order latency vs % cross-warehouse
# ---------------------------------------------------------------------------


def cross_warehouse_sweep(
    remote_fractions: Sequence[float] = (0.0, 0.10, 0.33),
    systems: Sequence[str] = ("dynamast", "single-master", "multi-master", "partition-store"),
    transaction: str = "new_order",
) -> Dict[str, Dict[float, RunSummary]]:
    """New-Order (or Payment, figure 8g) latency as remote rate grows."""
    results: Dict[str, Dict[float, RunSummary]] = {s: {} for s in systems}
    for fraction in remote_fractions:
        if transaction == "new_order":
            workload = WorkloadSpec.of("tpcc", neworder_remote_fraction=fraction)
        else:
            workload = WorkloadSpec.of("tpcc", payment_remote_fraction=fraction)
        suite = run_suite(
            workload,
            systems=systems,
            cluster=TPCC_CLUSTER,
            num_clients=TPCC_CLIENTS,
            duration_ms=1000.0,
        )
        for system, result in suite.items():
            results[system][fraction] = result
    return results


# ---------------------------------------------------------------------------
# E7 — §VI-B4: skewed YCSB
# ---------------------------------------------------------------------------


def skew_suite(systems: Sequence[str] = ALL_SYSTEMS) -> Dict[str, RunSummary]:
    """Zipfian (theta = 0.75) 90/10 RMW/scan YCSB."""
    return run_suite(
        WorkloadSpec.of("ycsb", rmw_fraction=0.9, zipf_theta=0.75),
        systems=systems,
    )


# ---------------------------------------------------------------------------
# E8 — Figure 5b: adaptivity to workload change
# ---------------------------------------------------------------------------


@dataclass
class AdaptivityResult:
    """Timeline of DynaMast re-learning shuffled correlations."""

    timeline: List[Tuple[float, float]]
    early_throughput: float
    late_throughput: float
    improvement: float
    remaster_timeline: List[Tuple[float, float]]


def fig5b_adaptivity(
    num_clients: int = 30,
    duration_ms: float = 4000.0,
    bucket_ms: float = 500.0,
    seed: int = 7,
) -> AdaptivityResult:
    """Shuffled correlations against a manual range placement.

    The paper deploys 100 clients of 100% skewed RMWs whose partition
    correlations were randomized, with mastership manually
    range-allocated; DynaMast must learn the new correlations. We run
    below saturation so the latency saved by declining remastering is
    visible as throughput.
    """
    import random

    workload = YCSBWorkload(
        YCSBConfig(rmw_fraction=1.0, zipf_theta=0.75, affinity_txns=25)
    )
    workload.shuffle_correlations(random.Random(seed))
    placement = workload.scheme.range_placement(YCSB_CLUSTER["num_sites"])

    samples: List[Tuple[float, int, int]] = []

    def sample(system, _workload):
        selector = system.selector
        samples.append(
            (system.env.now, selector.updates_routed, selector.updates_remastered)
        )

    events = [
        (when, sample) for when in range(int(bucket_ms), int(duration_ms), int(bucket_ms))
    ]
    result = run_benchmark(
        "dynamast",
        workload,
        num_clients=num_clients,
        duration_ms=duration_ms,
        warmup_ms=0.0,
        cluster_config=ClusterConfig(**YCSB_CLUSTER),
        placement=placement,
        events=events,
    )
    timeline = result.metrics.timeline(bucket_ms, 0.0, duration_ms)
    # Drop the final (partial) bucket.
    timeline = timeline[:-1]
    remaster_timeline = []
    previous = (0.0, 0, 0)
    for when, routed, remastered in samples:
        routed_delta = routed - previous[1]
        remaster_delta = remastered - previous[2]
        rate = remaster_delta / max(1, routed_delta)
        remaster_timeline.append((when, rate))
        previous = (when, routed, remastered)
    early = timeline[0][1]
    late = sum(v for _, v in timeline[-2:]) / 2
    return AdaptivityResult(
        timeline=timeline,
        early_throughput=early,
        late_throughput=late,
        improvement=late / max(1.0, early),
        remaster_timeline=remaster_timeline,
    )


# ---------------------------------------------------------------------------
# E9 — Figure 5a + §VI-B6: hyperparameter sensitivity
# ---------------------------------------------------------------------------


@dataclass
class SensitivityResult:
    """Throughput and routing fractions per weight setting."""

    throughput: Dict[str, float]
    route_fractions: Dict[str, List[float]]
    remaster_rate: Dict[str, float]


def fig5a_sensitivity(
    scales: Sequence[float] = (0.0, 0.01, 1.0, 100.0),
    weight_names: Sequence[str] = ("balance", "intra_txn"),
    num_clients: int = 36,
    duration_ms: float = 1500.0,
) -> SensitivityResult:
    """Scale each strategy weight up/down/off on skewed YCSB.

    The paper varies each hyperparameter by two orders of magnitude in
    both directions and to zero, on a skewed workload.
    """
    throughput: Dict[str, float] = {}
    fractions: Dict[str, List[float]] = {}
    remaster: Dict[str, float] = {}
    base = StrategyWeights.for_ycsb()
    for name in weight_names:
        for scale in scales:
            weights = base.scaled(**{name: scale})
            label = f"{name} x{scale:g}"
            result = run_benchmark(
                "dynamast",
                YCSBWorkload(YCSBConfig(rmw_fraction=0.9, zipf_theta=0.75)),
                num_clients=num_clients,
                duration_ms=duration_ms,
                warmup_ms=WARMUP_MS,
                cluster_config=ClusterConfig(**YCSB_CLUSTER),
                weights=weights,
            )
            throughput[label] = result.throughput
            fractions[label] = result.route_fractions
            remaster[label] = result.remaster_rate
    return SensitivityResult(throughput, fractions, remaster)


# ---------------------------------------------------------------------------
# E10 — Figure 7 + §VI-B7 + Appendix D: overhead breakdown
# ---------------------------------------------------------------------------


@dataclass
class BreakdownResult:
    """Latency breakdown, remaster frequency, and traffic shares."""

    breakdown: Dict[str, float]
    remaster_txn_fraction: float
    selector_remaster_rate: float
    traffic_bytes: Dict[str, int]


def fig7_breakdown(
    num_clients: int = YCSB_CLIENTS, duration_ms: float = 2000.0
) -> BreakdownResult:
    """Uniform 50/50 YCSB breakdown of DynaMast transaction time."""
    result = run_benchmark(
        "dynamast",
        YCSBWorkload(YCSBConfig(rmw_fraction=0.5)),
        num_clients=num_clients,
        duration_ms=duration_ms,
        warmup_ms=WARMUP_MS,
        cluster_config=ClusterConfig(**YCSB_CLUSTER),
    )
    return BreakdownResult(
        breakdown=result.metrics.breakdown(),
        remaster_txn_fraction=result.metrics.remaster_fraction(),
        selector_remaster_rate=result.remaster_rate,
        traffic_bytes=result.traffic_bytes,
    )


# ---------------------------------------------------------------------------
# E11 — Figure 6b: database size scaling
# ---------------------------------------------------------------------------


def fig6b_database_size(
    partition_counts: Sequence[int] = (2000, 12000),
    mixes: Sequence[Tuple[str, float, float]] = (
        ("50-50U", 0.5, 0.0),
        ("90-10U", 0.9, 0.0),
        ("90-10S", 0.9, 0.75),
    ),
) -> Dict[str, Dict[int, RunResult]]:
    """DynaMast throughput for small vs large (6x) databases."""
    results: Dict[str, Dict[int, RunResult]] = {}
    for label, rmw, theta in mixes:
        results[label] = {}
        for partitions in partition_counts:
            result = run_benchmark(
                "dynamast",
                YCSBWorkload(
                    YCSBConfig(
                        num_partitions=partitions,
                        rmw_fraction=rmw,
                        zipf_theta=theta,
                    )
                ),
                num_clients=YCSB_CLIENTS,
                duration_ms=DURATION_MS,
                warmup_ms=WARMUP_MS,
                cluster_config=ClusterConfig(**YCSB_CLUSTER),
            )
            results[label][partitions] = result
    return results


# ---------------------------------------------------------------------------
# E12 — Figure 6c: site scalability
# ---------------------------------------------------------------------------


def fig6c_site_scaling(
    site_counts: Sequence[int] = (4, 8, 12, 16),
    clients_per_site: int = 12,
    duration_ms: float = 1000.0,
) -> Dict[int, RunResult]:
    """DynaMast 50/50 uniform YCSB throughput as sites scale 4 -> 16."""
    results = {}
    for sites in site_counts:
        results[sites] = run_benchmark(
            "dynamast",
            YCSBWorkload(YCSBConfig(rmw_fraction=0.5)),
            num_clients=clients_per_site * sites,
            duration_ms=duration_ms,
            warmup_ms=WARMUP_MS,
            cluster_config=ClusterConfig(
                num_sites=sites, cores_per_site=YCSB_CLUSTER["cores_per_site"]
            ),
        )
    return results


# ---------------------------------------------------------------------------
# E13 / E14 — Figures 8a-8d: SmallBank
# ---------------------------------------------------------------------------


def smallbank_suite(
    systems: Sequence[str] = ALL_SYSTEMS,
    hotspot_fraction: float = 0.0,
) -> Dict[str, RunSummary]:
    """SmallBank throughput and tail latencies."""
    return run_suite(
        WorkloadSpec.of("smallbank", hotspot_fraction=hotspot_fraction),
        systems=systems,
        num_clients=YCSB_CLIENTS,
        duration_ms=1500.0,
    )
