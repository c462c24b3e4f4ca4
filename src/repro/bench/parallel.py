"""Deterministic multi-process experiment engine.

The paper's evaluation is a large matrix of *independent* runs — five
systems x three workloads x seed repeats x fault scenarios — and every
run here is a sealed deterministic simulation: its observable outcome
is a pure function of the spec that describes it. That makes the
matrix embarrassingly parallel across worker *processes* (the GIL rules
out threads), and determinism makes the parallelism trivially safe to
verify: a parallel sweep must produce fingerprints bit-identical to the
serial sweep, and the tests in ``tests/test_parallel_parity.py`` pin
exactly that.

Three pieces:

* :class:`RunSpec` — a declarative, picklable description of one run
  (system, :class:`WorkloadSpec` naming a registered workload plus its
  config params, seed, durations, cluster config, fault plan or named
  scenario, obs/streaming flags). Everything a spec references must be
  module-level and picklable — no lambdas, no closures, no live
  handles (CONTRIBUTING.md, "Spawn safety").
* :class:`RunSummary` — the portable transport form of a
  :class:`~repro.bench.harness.RunResult`: all folded measurements plus
  a canonical :func:`run_fingerprint`, per-worker wall clock and peak
  RSS, with the live ``system`` / ``obs`` / ``injector`` handles
  deliberately dropped so results can cross a process boundary (and so
  long suite loops stop pinning entire clusters in memory).
* :class:`ParallelExecutor` — fans callables over a spawn-context
  ``ProcessPoolExecutor``, returns results in deterministic submission
  order regardless of completion order, surfaces worker crashes as
  :class:`SpecExecutionError` with the offending item attached (never a
  bare ``BrokenProcessPool``), and degrades to an identical in-process
  serial path at ``jobs=1``.

The executor is generic over (picklable) callables; the spec-level
entry points :func:`execute_spec` (in-process, live result) and
:func:`execute_specs` (the fan-out used by ``run_suite``,
``run_repeated``, ``repro compare``, ``repro perf --jobs`` and
``repro chaos --jobs``) are built on top of it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.metrics import LatencySummary, Metrics
from repro.core.strategy import StrategyWeights
from repro.faults.plan import FaultPlan
from repro.sim.config import ClusterConfig
from repro.workloads.openloop import OpenLoopSpec

__all__ = [
    "ParallelExecutor",
    "RunSpec",
    "RunSummary",
    "SpecExecutionError",
    "WorkloadSpec",
    "execute_spec",
    "execute_specs",
    "run_fingerprint",
    "summarize",
]


# ---------------------------------------------------------------------------
# Canonical run fingerprint
# ---------------------------------------------------------------------------


def run_fingerprint(result) -> str:
    """Digest the *simulated* outcome of a run (RunResult or RunSummary).

    Covers every observable simulated quantity — commit count and the
    sum of commit times, mean latency, per-category traffic bytes,
    aborts by reason, routing fractions, site utilization, and the
    fault timeline — while excluding host-side measurements
    (``wall_clock_s``, ``events_processed``, RSS), which legitimately
    vary across machines and process placement. Two runs of the same
    :class:`RunSpec` must produce the same fingerprint whether they ran
    serially, in another process, or on another host.
    """
    metrics = result.metrics
    payload = {
        "system": result.system_name,
        "workload": result.workload_name,
        "commits": metrics.commits,
        "commit_time_sum": round(sum(metrics.commit_times), 6),
        "latency_mean": round(result.latency().mean, 6),
        "traffic": sorted(result.traffic_bytes.items()),
        "aborts_by_reason": sorted(metrics.aborts_by_reason.items()),
        "remaster_rate": round(result.remaster_rate, 9),
        "route_fractions": [round(f, 9) for f in result.route_fractions],
        "site_utilization": [round(u, 9) for u in result.site_utilization],
        "fault_events": [
            (round(event.at_ms, 6), event.kind, event.site)
            for event in result.fault_events
        ],
    }
    # Open-loop observables join the digest only when present, so every
    # closed-loop fingerprint pinned before this subsystem existed is
    # unchanged (getattr: summaries pickled by older builds lack the
    # attribute entirely).
    open_loop = getattr(metrics, "open_loop_counters", None)
    if open_loop:
        payload["open_loop"] = sorted(
            (key, round(float(value), 6)) for key, value in open_loop.items()
        )
        payload["admission_wait_sum"] = round(metrics.admission_wait_total(), 6)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload by registry name plus config parameters.

    ``build()`` instantiates a *fresh* workload (generators hold
    mutable state, so every run needs its own). Validation is
    deliberately lazy — an unknown name fails at build time, inside
    the worker, so the executor's failure path can attribute it to the
    spec that caused it.
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, name: str, **params) -> "WorkloadSpec":
        return cls(name, tuple(sorted(params.items())))

    def build(self):
        from repro.workloads import build_workload

        return build_workload(self.name, **dict(self.params))


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one benchmark run, as pure data.

    Spawn-safety contract: every field must pickle, and anything it
    references (workload names, fault scenarios) must resolve through
    module-level registries in the worker process. Live objects —
    ``Observability`` handles, workload instances, lambdas — are
    excluded by construction; observation is requested with the
    ``observed`` flag and rebuilt worker-side.
    """

    system: str
    workload: WorkloadSpec
    num_clients: int = 50
    duration_ms: float = 2000.0
    warmup_ms: float = 500.0
    cluster: Optional[ClusterConfig] = None
    weights: Optional[StrategyWeights] = None
    placement: Optional[Tuple[Tuple[int, int], ...]] = None
    seed: int = 0
    load_data: bool = False
    streaming_metrics: bool = False
    #: Attach a fresh Observability in the worker (timelines and
    #: attribution shares come back on the summary; the handle does not).
    observed: bool = False
    #: Attach a fresh DecisionLedger in the worker (mastering metrics
    #: come back folded on ``RunSummary.mastery``; the ledger does not).
    mastery: bool = False
    #: Attach a fresh SloEngine in the worker (the scalar verdict comes
    #: back folded on ``RunSummary.slo``; the engine does not).
    slo: bool = False
    #: Named fault scenario, instantiated in the worker via
    #: :func:`repro.faults.plan.build_scenario` against this spec's
    #: cluster size and duration.
    fault_scenario: Optional[str] = None
    #: Explicit fault schedule; overrides ``fault_scenario``.
    fault_plan: Optional[FaultPlan] = None
    #: Open-loop traffic description; when set, the worker drives the
    #: run with an OpenLoopEngine instead of ``num_clients`` closed-loop
    #: clients (``num_clients`` is then ignored). Pure data like every
    #: other field — the curve resolves through CURVE_REGISTRY.
    open_loop: Optional[OpenLoopSpec] = None
    #: Display / bookkeeping label (defaults to system + workload).
    label: Optional[str] = None

    def describe(self) -> str:
        base = self.label or f"{self.system}/{self.workload.name}"
        return f"{base} seed={self.seed}"

    def placement_dict(self) -> Optional[Dict[int, int]]:
        if self.placement is None:
            return None
        return dict(self.placement)


def execute_spec(spec: RunSpec):
    """Run one spec in-process and return the live ``RunResult``.

    This is the single execution path shared by the ``jobs=1`` serial
    mode and the worker processes: both funnel through the same
    :func:`~repro.bench.harness.run_benchmark` call, which is what
    makes serial/parallel bit-identity hold by construction.
    """
    from repro.bench.harness import run_benchmark

    plan = spec.fault_plan
    if plan is None and spec.fault_scenario is not None:
        from repro.faults.plan import build_scenario

        cluster = spec.cluster or ClusterConfig()
        plan = build_scenario(
            spec.fault_scenario,
            num_sites=cluster.num_sites,
            duration_ms=spec.duration_ms,
        )
    obs = None
    if spec.observed:
        from repro.obs import Observability

        obs = Observability()
    ledger = None
    if spec.mastery:
        from repro.obs.mastery import DecisionLedger

        ledger = DecisionLedger()
    slo_engine = None
    if spec.slo:
        from repro.obs.slo import SloEngine

        slo_engine = SloEngine()
    return run_benchmark(
        spec.system,
        spec.workload.build(),
        num_clients=spec.num_clients,
        duration_ms=spec.duration_ms,
        warmup_ms=spec.warmup_ms,
        cluster_config=spec.cluster,
        weights=spec.weights,
        placement=spec.placement_dict(),
        seed=spec.seed,
        load_data=spec.load_data,
        obs=obs,
        streaming_metrics=spec.streaming_metrics,
        fault_plan=plan,
        ledger=ledger,
        open_loop=spec.open_loop,
        slo=slo_engine,
    )


# ---------------------------------------------------------------------------
# Portable results
# ---------------------------------------------------------------------------


@dataclass
class RunSummary:
    """The portable form of a :class:`~repro.bench.harness.RunResult`.

    Carries every folded measurement across a process boundary; the
    live ``system`` / ``obs`` / ``injector`` handles are deliberately
    dropped (the class attributes below are always ``None``), so a
    summary pickles cheaply and keeps no cluster alive. Observed runs
    fold their attribution budget into ``attribution_shares`` before
    the tracer is discarded.
    """

    system_name: str
    workload_name: str
    num_clients: int
    duration_ms: float
    warmup_ms: float
    metrics: Metrics
    throughput: float
    remaster_rate: float
    route_fractions: List[float]
    traffic_bytes: Dict[str, int]
    site_utilization: List[float]
    abort_rate: float = 0.0
    aborts_by_type: Dict[str, int] = field(default_factory=dict)
    aborts_by_reason: Dict[str, int] = field(default_factory=dict)
    fault_events: List = field(default_factory=list)
    timelines: Dict = field(default_factory=dict)
    #: Share of commit latency per causal category (observed runs only).
    attribution_shares: Dict[str, float] = field(default_factory=dict)
    #: Folded ledger scalars (mastery runs only): locality share,
    #: entropy, churn, convergence — see DecisionLedger.summary().
    mastery: Dict[str, float] = field(default_factory=dict)
    #: Folded SLO verdict (SLO-monitored runs only): incident /
    #: violation / true-positive counts, MTTD/MTTR — see
    #: SloEngine.summary().
    slo: Dict[str, float] = field(default_factory=dict)
    #: Recorded offered arrival rate (open-loop runs; 0.0 closed-loop).
    offered_rate: float = 0.0
    #: Canonical digest of the simulated outcome (:func:`run_fingerprint`).
    fingerprint: str = ""
    #: Host seconds the producing process spent inside ``run_benchmark``.
    wall_clock_s: float = 0.0
    events_processed: int = 0
    #: ``ru_maxrss`` of the producing process, in KB (0 if unknown).
    peak_rss_kb: int = 0

    # The live handles never survive transport; keeping the attribute
    # names (always None) preserves duck-typing with RunResult for
    # report/export/chaos consumers.
    system = None
    obs = None
    injector = None
    ledger = None

    def latency(self, txn_type: Optional[str] = None) -> LatencySummary:
        return self.metrics.latency(txn_type)

    def portable(self) -> "RunSummary":
        """Already portable; returns self (mirrors RunResult.portable)."""
        return self


def summarize(result) -> RunSummary:
    """Build the portable :class:`RunSummary` of a live run."""
    shares: Dict[str, float] = {}
    obs = getattr(result, "obs", None)
    if obs is not None and obs.enabled and result.metrics.commits:
        from repro.obs.attribution import AttributionReport

        report = AttributionReport.from_result(result, keep_segments=False)
        shares = {
            category: round(share, 9)
            for category, share in report.shares().items()
        }
    mastery: Dict[str, float] = {}
    ledger = getattr(result, "ledger", None)
    if ledger is not None and ledger.enabled:
        mastery = ledger.summary()
    slo_verdict: Dict[str, float] = {}
    slo = getattr(result, "slo", None)
    if slo is not None and slo.enabled:
        slo_verdict = slo.summary()
    return RunSummary(
        system_name=result.system_name,
        workload_name=result.workload_name,
        num_clients=result.num_clients,
        duration_ms=result.duration_ms,
        warmup_ms=result.warmup_ms,
        metrics=result.metrics,
        throughput=result.throughput,
        remaster_rate=result.remaster_rate,
        route_fractions=list(result.route_fractions),
        traffic_bytes=dict(result.traffic_bytes),
        site_utilization=list(result.site_utilization),
        abort_rate=result.abort_rate,
        aborts_by_type=dict(result.aborts_by_type),
        aborts_by_reason=dict(result.aborts_by_reason),
        fault_events=list(result.fault_events),
        timelines=dict(result.timelines),
        attribution_shares=shares,
        mastery=mastery,
        slo=slo_verdict,
        offered_rate=getattr(result, "offered_rate", 0.0),
        fingerprint=run_fingerprint(result),
        wall_clock_s=result.wall_clock_s,
        events_processed=result.events_processed,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class SpecExecutionError(RuntimeError):
    """One work item failed; carries the item and the worker traceback.

    Raised parent-side only (never pickled across the pool), so it can
    reference the original spec object directly.
    """

    def __init__(self, item, message: str, worker_traceback: str = ""):
        described = getattr(item, "describe", lambda: repr(item))()
        super().__init__(f"worker failed for {described}: {message}")
        self.item = item
        self.worker_traceback = worker_traceback


def _invoke(fn, item):
    """Worker-side wrapper: never lets an exception cross the pipe raw.

    Exceptions are folded to plain strings because arbitrary exception
    objects may not survive pickling (a failure to unpickle a failure
    would surface as an opaque ``BrokenProcessPool``).
    """
    try:
        return ("ok", fn(item))
    except BaseException as exc:  # noqa: BLE001 — reported, not swallowed
        return ("err", f"{type(exc).__name__}: {exc}", traceback.format_exc())


class ParallelExecutor:
    """Deterministic fan-out of picklable callables over processes.

    ``jobs=1`` never touches multiprocessing: items run in-process, in
    order, on exactly the code path the pre-parallel drivers used. With
    ``jobs>1`` a spawn-context pool executes items concurrently, and
    results are returned **in submission order** regardless of
    completion order — determinism of the output list is part of the
    contract, not a scheduling accident.

    ``on_error="raise"`` (default) raises :class:`SpecExecutionError`
    for the first failing item *after* letting every other item finish,
    so one bad spec cannot poison the rest of a matrix mid-flight;
    ``on_error="collect"`` returns the error objects in the failing
    items' slots instead of raising.
    """

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def map(
        self,
        fn: Callable,
        items: Sequence,
        on_error: str = "raise",
    ) -> List:
        if on_error not in ("raise", "collect"):
            raise ValueError(f"on_error must be 'raise' or 'collect', got {on_error!r}")
        if self.jobs == 1 or len(items) <= 1:
            outcomes = [self._run_serial(fn, item) for item in items]
        else:
            outcomes = self._run_pool(fn, items)
        if on_error == "raise":
            for outcome in outcomes:
                if isinstance(outcome, SpecExecutionError):
                    raise outcome
        return outcomes

    def _run_serial(self, fn, item):
        try:
            return fn(item)
        except Exception as exc:  # noqa: BLE001
            return SpecExecutionError(item, f"{type(exc).__name__}: {exc}",
                                      traceback.format_exc())

    def _run_pool(self, fn, items) -> List:
        # Spawn (not fork): workers import a pristine interpreter, so
        # results cannot depend on parent-process state — the same
        # isolation property the determinism contract relies on — and
        # the engine behaves identically on macOS/Windows.
        context = get_context("spawn")
        workers = min(self.jobs, len(items))
        outcomes: List = []
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = [pool.submit(_invoke, fn, item) for item in items]
            for item, future in zip(items, futures):
                try:
                    status = future.result()
                except BrokenProcessPool:
                    outcomes.append(SpecExecutionError(
                        item,
                        "worker process died abruptly (BrokenProcessPool); "
                        "the spec may have exhausted memory or crashed the "
                        "interpreter",
                    ))
                    continue
                except Exception as exc:  # noqa: BLE001
                    outcomes.append(SpecExecutionError(
                        item, f"{type(exc).__name__}: {exc}"))
                    continue
                if status[0] == "ok":
                    outcomes.append(status[1])
                else:
                    outcomes.append(SpecExecutionError(item, status[1], status[2]))
        return outcomes


def _spec_worker(spec: RunSpec) -> RunSummary:
    """Module-level worker entrypoint (must be picklable by name)."""
    return summarize(execute_spec(spec))


def execute_specs(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    on_error: str = "raise",
) -> List[RunSummary]:
    """Execute ``specs`` and return portable summaries in spec order.

    The workhorse behind every ``--jobs`` flag: ``run_suite``,
    ``run_repeated`` and ``repro compare`` (at every ``jobs`` value),
    the perf matrix, and chaos fan-out all reduce their work to a spec
    list and call this.
    """
    return ParallelExecutor(jobs).map(_spec_worker, specs, on_error=on_error)
