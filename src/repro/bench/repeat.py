"""Repeated runs with confidence intervals.

The paper reports averages of at least five runs with 95% confidence
intervals (§VI-A.2). A deterministic simulator gives identical results
for identical seeds, so the analogue here is repeating an experiment
across *different seeds* — which perturbs every stochastic choice
(workload draws, routing tie-breaks, read placement) — and summarizing
the spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.bench.parallel import RunSpec, RunSummary, WorkloadSpec, execute_specs

#: Two-sided 95% critical values of Student's t for df = 1..29.
_T95 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
]


def t_critical_95(samples: int) -> float:
    """Two-sided 95% t value for ``samples`` observations."""
    if samples < 2:
        raise ValueError("confidence intervals need at least 2 samples")
    df = samples - 1
    if df <= len(_T95):
        return _T95[df - 1]
    return 1.96  # normal approximation for large samples


@dataclass(frozen=True)
class Estimate:
    """A mean with its 95% confidence half-width."""

    mean: float
    half_width: float
    samples: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "Estimate":
        if not values:
            return cls(0.0, 0.0, 0)
        if len(values) == 1:
            return cls(values[0], 0.0, 1)
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        half = t_critical_95(len(values)) * math.sqrt(variance / len(values))
        return cls(mean, half, len(values))

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def overlaps(self, other: "Estimate") -> bool:
        """True if the two 95% intervals overlap."""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:
        return f"{self.mean:,.1f} ± {self.half_width:,.1f}"


@dataclass
class RepeatedResult:
    """Summaries across seeds for one system x workload."""

    throughput: Estimate
    mean_latency: Estimate
    p99_latency: Estimate
    runs: List[RunSummary]


def run_repeated(
    system_name: str,
    workload: WorkloadSpec,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    jobs: int = 1,
    **kwargs,
) -> RepeatedResult:
    """Run one configuration across several seeds and summarize.

    Builds one :class:`~repro.bench.parallel.RunSpec` per seed (each
    run builds a fresh workload from ``workload``) and executes them
    with :func:`~repro.bench.parallel.execute_specs`: in-process at
    ``jobs=1``, across worker processes otherwise, with bit-identical
    results and seed order preserved either way. Remaining kwargs are
    ``RunSpec`` fields (``num_clients``, ``cluster``,
    ``fault_scenario``, ``observed``, ...); ``runs`` holds the portable
    :class:`~repro.bench.parallel.RunSummary` of each seed.
    """
    specs = [
        RunSpec(system=system_name, workload=workload, seed=seed, **kwargs)
        for seed in seeds
    ]
    runs = execute_specs(specs, jobs=jobs)
    return RepeatedResult(
        throughput=Estimate.of([run.throughput for run in runs]),
        mean_latency=Estimate.of([run.latency().mean for run in runs]),
        p99_latency=Estimate.of([run.latency().p99 for run in runs]),
        runs=runs,
    )
