"""The benchmark's workloads, one timed run, and the metrics derived from it.

Every run goes through :func:`repro.bench.harness.run_benchmark` with
DynaMast, lazy record creation (``load_data=False``), no fault plan and
exact latency samples (streaming histograms round percentiles to 5%
buckets, too coarse for a regression bound).
Host time is split at ``Environment.run``: everything before it is
set-up, everything inside it is the run. The split is taken by
:class:`RunClock`, which wraps ``Environment.run`` for the duration of
one call and nothing else.

A shared host can change speed by 1.7x in phases that last from
milliseconds to minutes (NOTES.md, "Host speed", for the machine
measured), so every host time is also read against
:func:`reference_s`, a fixed workload timed right next to it.
"""

from __future__ import annotations

import gc
import math
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.harness import run_benchmark
from repro.bench.metrics import LatencySummary, Metrics
from repro.bench.parallel import run_fingerprint
from repro.obs.tracer import Tracer
from repro.sim.config import ClusterConfig
from repro.sim.core import Environment
from repro.workloads import build_workload
from repro.workloads.openloop import OpenLoopSpec

#: The default workload seed, used while the benchmark was built.
DEFAULT_SEED = 11
#: A seed used neither while building the benchmark nor to set its
#: bounds; claims must hold on it too (NOTES.md).
HELD_OUT_SEED = 47

#: Host times are reported as seconds at the speed where one pass of the
#: reference takes this long (about its time on the 2-vCPU machine that
#: NOTES.md describes).
REFERENCE_S = 0.002
#: A timed run is split into this many equal stretches of simulated
#: time, with the reference timed after each.
RUN_CHUNKS = 100

#: p99 needs ten samples beyond it, hence 1000 samples per class.
TAIL_QUANTILE = 0.99
TAIL_BEYOND = 10


def min_samples(quantile: float, beyond: int = TAIL_BEYOND) -> int:
    """Smallest sample count that leaves ``beyond`` samples above ``quantile``."""
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    return math.ceil(beyond / (1.0 - quantile) - 1e-9)


def reportable(count: int, quantile: float, beyond: int = TAIL_BEYOND) -> bool:
    """True if a percentile over ``count`` samples has ``beyond`` samples past it."""
    return count >= min_samples(quantile, beyond)


@dataclass(frozen=True)
class Case:
    """One benchmark workload: a DynaMast run of fixed simulated length."""

    name: str
    workload: str
    params: Tuple[Tuple[str, object], ...]
    sites: int
    duration_ms: float
    warmup_ms: float
    #: Closed-loop client count (ignored for open-loop cases).
    clients: int = 0
    open_loop: Optional[OpenLoopSpec] = None
    update_types: Tuple[str, ...] = ()
    read_types: Tuple[str, ...] = ()

    @property
    def is_open_loop(self) -> bool:
        return self.open_loop is not None


#: Why each workload is here, and what it stresses, is in NOTES.md.
CASES: Dict[str, Case] = {
    case.name: case
    for case in (
        Case(
            name="ycsb-read-4s",
            workload="ycsb",
            params=(("num_partitions", 2000), ("keys_per_partition", 100),
                    ("zipf_theta", 0.75), ("rmw_fraction", 0.1)),
            sites=4,
            clients=32,
            duration_ms=2000.0,
            warmup_ms=500.0,
            update_types=("rmw",),
            read_types=("scan",),
        ),
        Case(
            name="tpcc-4s",
            workload="tpcc",
            params=(("warehouses", 8), ("items", 1000)),
            sites=4,
            clients=32,
            duration_ms=1500.0,
            warmup_ms=200.0,
            update_types=("new_order", "payment"),
            read_types=("stock_level",),
        ),
        Case(
            name="ycsb-open-16s",
            workload="ycsb",
            params=(("num_partitions", 10_000), ("keys_per_partition", 100),
                    ("zipf_theta", 0.75), ("rmw_fraction", 0.8)),
            sites=16,
            duration_ms=1000.0,
            warmup_ms=150.0,
            open_loop=OpenLoopSpec.of(
                "constant", rate_tps=8000.0, modeled_clients=100_000,
                admission_concurrency=2,
            ),
            update_types=("rmw",),
            read_types=("scan",),
        ),
    )
}


class _Node:
    __slots__ = ("key", "value", "link")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.link = None


def _accumulate():
    total = 0
    while True:
        total += yield total


def _reference_pass(n: int = 1000) -> int:
    """The program's staple operations: heap, slotted objects, dict, generator."""
    heap: list = []
    nodes: dict = {}
    for i in range(n):
        heappush(heap, ((i * 7919) % 1009, i))
        node = _Node(i, (i, i + 1))
        nodes[i & 511] = node
        node.link = nodes.get((i * 3) & 511)
    while heap:
        heappop(heap)
    gen = _accumulate()
    next(gen)
    for i in range(n):
        gen.send(i)
    return len([str(i) for i in range(n // 2)]) + len(nodes)


def reference_s() -> float:
    """Host seconds one pass of the fixed reference workload takes now.

    The collector is off for the pass: its garbage is freed by reference
    counting, so it neither pays for nor leaves behind a collection of
    the simulator's heap.
    """
    gc.disable()
    try:
        started = perf_counter()
        _reference_pass()
        return perf_counter() - started
    finally:
        gc.enable()


class SetupOnly(Exception):
    """Raised by :class:`RunClock` to stop a run as ``Environment.run`` starts."""


class RunClock:
    """Wraps ``Environment.run`` to time where set-up ends and the run ends.

    ``on_start`` is called as the run starts (the traced run closes its
    set-up span there). With ``setup_only`` the run is abandoned at that
    point, which times set-up alone. With ``chunks`` the run advances to
    its end time in that many equal steps, each a call of the original
    ``Environment.run``, and the reference is timed after each step;
    ``run_s`` counts the steps only.
    """

    def __init__(self, on_start: Optional[Callable[[], None]] = None,
                 setup_only: bool = False, chunks: int = 0):
        self.on_start = on_start
        self.setup_only = setup_only
        self.chunks = chunks
        self.run_start = 0.0
        self.run_s = 0.0
        self.references: List[float] = []
        self._original = None

    def __enter__(self) -> "RunClock":
        original = self._original = Environment.run
        clock = self

        def run(env, until=None):
            clock.run_start = perf_counter()
            if clock.on_start is not None:
                clock.on_start()
            if clock.setup_only:
                raise SetupOnly
            if not clock.chunks or until is None:
                try:
                    return original(env, until)
                finally:
                    clock.run_s = perf_counter() - clock.run_start
            start, steps = env.now, clock.chunks
            for step in range(1, steps + 1):
                stop = until if step == steps else start + (until - start) * step / steps
                begun = perf_counter()
                original(env, stop)
                clock.run_s += perf_counter() - begun
                clock.references.append(reference_s())
            return None

        Environment.run = run
        return self

    def __exit__(self, *exc) -> None:
        Environment.run = self._original


class TurnCounter:
    """Counts a closed-loop workload's ``next_transaction`` calls.

    Shadows the method on the workload instance only. Closed-loop
    clients have no think time, so at the end of a run every client is
    inside exactly one submitted transaction: completions are calls
    minus clients.
    """

    def __init__(self, workload, warmup_ms: float):
        self.calls = 0
        self.recorded = 0
        method = workload.next_transaction

        def next_transaction(state, rng, now):
            self.calls += 1
            if now >= warmup_ms:
                self.recorded += 1
            return method(state, rng, now)

        workload.next_transaction = next_transaction


@dataclass
class RunOutcome:
    """What one run measured, reduced to plain numbers (no live cluster)."""

    fingerprint: str
    setup_s: float
    run_s: float
    #: Mean reference time over the run's chunks (0 when not chunked).
    reference_s: float
    #: Transactions completed during the whole run, warm-up included.
    completed_all: int
    #: Transactions started (closed loop) or arrived (open loop) after warm-up.
    attempted: int
    commits: int
    aborted: int
    shed: int
    throughput_tps: float
    update: LatencySummary
    read: LatencySummary
    events: int
    #: Open-loop counters (empty for closed loop).
    open_loop: Dict[str, float]
    admission_wait: LatencySummary
    #: Exact end-of-run state of the cluster (untraced per-layer metrics).
    state: Dict[str, float]
    #: Conservation failures found in this run.
    violations: List[str]
    #: The finished result when ``keep_result`` was set (traced run).
    result: object = None

    @property
    def unfinished(self) -> int:
        return self.attempted - self.commits - self.aborted - self.shed

    @property
    def failed_share(self) -> float:
        """(aborted + shed + arrived but never completed) / attempted."""
        if self.attempted <= 0:
            return 0.0
        return (self.aborted + self.shed + self.unfinished) / self.attempted

    @property
    def host_txn_per_s(self) -> float:
        return self.completed_all / self.run_s if self.run_s > 0 else 0.0

    @property
    def reference_txn_per_s(self) -> float:
        """Completions per host second at the reference's speed (REFERENCE_S)."""
        if self.reference_s <= 0:
            return 0.0
        return self.host_txn_per_s * self.reference_s / REFERENCE_S


def class_latency(metrics: Metrics, txn_types: Tuple[str, ...]) -> LatencySummary:
    """Latency summary over several transaction types pooled together."""
    parts = [metrics.latencies[t] for t in txn_types if t in metrics.latencies]
    if not parts:
        return LatencySummary.of(())
    return LatencySummary.of([sample for part in parts for sample in part])


def cluster_state(result) -> Dict[str, float]:
    """Exact end-of-run sizes read from the live cluster."""
    sites = result.system.sites
    rows = sum(site.database.row_count() for site in sites)
    versions = sum(site.database.version_count() for site in sites)
    counters = result.metrics.selector_counters
    routed = counters.get("updates_routed", 0)
    return {
        "rows": float(rows),
        "versions_per_row": versions / rows if rows else 0.0,
        "log_records_retained": float(sum(len(site.log) for site in sites)),
        "records_applied": float(sum(site.replication.applied for site in sites)),
        "partitions_moved_per_update": (
            counters.get("partitions_moved", 0) / routed if routed else 0.0
        ),
        "remaster_rate": result.remaster_rate,
        "cpu_util_mean": sum(result.site_utilization) / len(result.site_utilization),
        "cpu_util_max": max(result.site_utilization),
        **{
            f"bytes.{category}": float(result.traffic_bytes.get(category, 0))
            for category in ("client", "replication", "remaster")
        },
    }


def conservation(case: Case, outcome: RunOutcome, clients_in_flight: int) -> List[str]:
    """Structural accounting identities of one run; returns the failures."""
    failures = []
    if case.is_open_loop:
        c = outcome.open_loop
        if c["offered"] != c["admitted"] + c["shed"]:
            failures.append(f"offered {c['offered']} != admitted + shed")
        if c["admitted"] != c["taken"] + c["queued_end"]:
            failures.append(f"admitted {c['admitted']} != taken + queued_end")
        if c["taken"] != c["completed"] + c["in_flight"]:
            failures.append(f"taken {c['taken']} != completed + in_flight")
        if c["completed_recorded"] != outcome.commits + outcome.aborted:
            failures.append("completed_recorded != commits + aborts")
    elif outcome.commits + outcome.aborted != outcome.attempted - clients_in_flight:
        failures.append(
            f"commits + aborts = {outcome.commits + outcome.aborted} != "
            f"completed = {outcome.attempted - clients_in_flight}"
        )
    if outcome.unfinished < 0:
        failures.append(f"negative unfinished count {outcome.unfinished}")
    return failures


def _launch(case: Case, seed: int, obs=None, slo=None):
    """Build the workload and hand it to the harness; returns (result, counter)."""
    workload = build_workload(case.workload, **dict(case.params))
    counter = None if case.is_open_loop else TurnCounter(workload, case.warmup_ms)
    result = run_benchmark(
        "dynamast",
        workload,
        num_clients=case.clients,
        duration_ms=case.duration_ms,
        warmup_ms=case.warmup_ms,
        cluster_config=ClusterConfig(num_sites=case.sites, seed=seed),
        seed=seed,
        load_data=False,
        open_loop=case.open_loop,
        obs=obs,
        slo=slo,
    )
    return result, counter


def execute(case: Case, seed: int, *, obs=None, slo=None,
            setup_hooks: Optional[Tuple[Callable[[], None], Callable[[], None]]] = None,
            keep_result: bool = False, chunks: int = 0) -> RunOutcome:
    """One full run of ``case``: set-up, ``env.run``, derived numbers.

    ``setup_hooks`` is a (begin, end) pair called where set-up begins
    and where it ends (as ``env.run`` starts). ``chunks`` > 0 times the
    reference beside the run (:class:`RunClock`).
    """
    begin, end = setup_hooks or (None, None)
    gc.collect()
    with RunClock(on_start=end, chunks=chunks) as clock:
        started = perf_counter()
        if begin is not None:
            begin()
        result, counter = _launch(case, seed, obs=obs, slo=slo)
    metrics = result.metrics
    counters = dict(metrics.open_loop_counters)
    if case.is_open_loop:
        completed_all = int(counters["completed"])
        attempted = int(counters["offered_recorded"])
        shed = int(counters["shed"])
        in_flight = 0
    else:
        completed_all = counter.calls - case.clients
        attempted = counter.recorded
        shed = 0
        in_flight = case.clients
    outcome = RunOutcome(
        fingerprint=run_fingerprint(result),
        setup_s=clock.run_start - started,
        run_s=clock.run_s,
        reference_s=(sum(clock.references) / len(clock.references)
                     if clock.references else 0.0),
        completed_all=completed_all,
        attempted=attempted,
        commits=metrics.commits,
        aborted=metrics.abort_count,
        shed=shed,
        throughput_tps=result.throughput,
        update=class_latency(metrics, case.update_types),
        read=class_latency(metrics, case.read_types),
        events=result.events_processed,
        open_loop=counters,
        admission_wait=metrics.admission_wait(),
        state=cluster_state(result),
        violations=[],
        result=result if keep_result else None,
    )
    outcome.violations = conservation(case, outcome, in_flight)
    return outcome


def time_setup(case: Case, seed: int) -> Tuple[float, float]:
    """Host seconds from the first call into the program to ``env.run``.

    Returns (set-up seconds, reference seconds timed right after it).
    """
    gc.collect()
    with RunClock(setup_only=True) as clock:
        started = perf_counter()
        try:
            _launch(case, seed)
        except SetupOnly:
            return clock.run_start - started, reference_s()
    raise RuntimeError("run_benchmark returned without calling Environment.run")


def sample_gate(case: Case, outcome: RunOutcome) -> List[str]:
    """Each latency class needs enough samples for its p99."""
    failures = []
    for label, summary in (("update", outcome.update), ("read", outcome.read)):
        if not reportable(summary.count, TAIL_QUANTILE):
            failures.append(
                f"{label} class has {summary.count} samples; p99 needs "
                f"{min_samples(TAIL_QUANTILE)}"
            )
    return failures


class IndexedTracer(Tracer):
    """A finished :class:`Tracer`'s records with per-transaction indexes.

    ``Tracer.spans_of`` and ``Tracer.edges_of`` scan every record per
    call, which makes ``AttributionReport.from_result`` quadratic in
    the run length (minutes for these runs). This view answers both
    from an index built once and returns the same lists in the same
    order, so the report is unchanged.
    """

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.spans = tracer.spans
        self.instants = tracer.instants
        self.edges = tracer.edges
        self.txns = tracer.txns
        self._spans_by_txn = defaultdict(list)
        for span in self.spans:
            self._spans_by_txn[span.txn_id].append(span)
        self._edges_by_txn = defaultdict(list)
        for edge in self.edges:
            self._edges_by_txn[edge.txn_id].append(edge)

    def spans_of(self, txn_id: int):
        mine = list(self._spans_by_txn.get(txn_id, ()))
        mine.sort(key=lambda s: (s.start, -s.end))
        return mine

    def edges_of(self, txn_id: int):
        mine = list(self._edges_by_txn.get(txn_id, ()))
        mine.sort(key=lambda e: (e.ts, e.kind))
        return mine
