"""Host-time spans around the simulator's layer entry points.

The traced run patches the public entry points of every layer (listed
in :data:`ENTRY_POINTS`) with thin wrappers that record one span per
call: layer, function, host start and end in nanoseconds, the span that
was open when the call began (its parent), and the id of the
:class:`~repro.transactions.Transaction` the call carries, if any.
Generator entry points (simulated processes) are timed per resumption:
every ``send``/``throw`` that runs the generator's body is one span, so
the time a process spends suspended in the event queue is never billed
to it.

Spans stay in compact arrays until the run ends; :func:`summarize`
folds them afterwards. A layer's self time is its spans' durations
minus the part covered by their child spans, so the self times of all
layers under one root span partition that root's duration exactly.
The root's own self time is the kernel's dispatch loop plus every
callback that no wrapper covers; :attr:`SpanSummary.coverage` is the
rest, the share of the root spent inside wrapped entry points.

The ``versioning`` package has no entry point of its own here: version
vectors are used inline by ``sites`` and ``replication``, and their
cost is folded into those layers' spans.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.transactions import Transaction

#: Layer order used in every report.
LAYERS = (
    "sim", "bench", "workloads", "systems", "core",
    "sites", "storage", "replication", "obs",
)


@dataclass(frozen=True)
class EntryPoint:
    """One patched attribute: ``module.owner.attr`` (owner may be empty).

    ``units`` optionally maps the call's positional arguments to a work
    count accumulated beside the call count (records installed, ...).
    """

    layer: str
    module: str
    path: str
    units: Optional[Callable[[tuple], int]] = None

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.path}"


def _install_units(args: tuple) -> int:
    return len(args[1])


#: The patched boundaries, layer by layer. ``harness._client_loop`` and
#: ``openloop.arrival_times`` are patched where the caller looks them up
#: (module globals read at call time); methods are patched on the class
#: that defines them, before the run constructs any instance.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    # sim: kernel, resources, network, arrivals. Environment.run is the
    # root span of the run.
    EntryPoint("sim", "repro.sim.core", "Environment.run"),
    EntryPoint("sim", "repro.sim.resources", "Resource.request"),
    EntryPoint("sim", "repro.sim.resources", "Resource.release"),
    EntryPoint("sim", "repro.sim.resources", "Resource.use"),
    EntryPoint("sim", "repro.sim.resources", "AdmissionQueue.offer"),
    EntryPoint("sim", "repro.sim.resources", "AdmissionQueue.take"),
    EntryPoint("sim", "repro.sim.network", "Network.delay_for"),
    EntryPoint("sim", "repro.sim.network", "Network.account"),
    EntryPoint("sim", "repro.sim.network", "Network.account_many"),
    EntryPoint("sim", "repro.workloads.openloop", "arrival_times"),
    # bench: the harness's closed-loop clients and metric recording.
    EntryPoint("bench", "repro.bench.harness", "_client_loop"),
    EntryPoint("bench", "repro.bench.metrics", "Metrics.record"),
    EntryPoint("bench", "repro.bench.metrics", "Metrics.record_admission_wait"),
    # workloads: generators, client pools, the open-loop engine.
    EntryPoint("workloads", "repro.workloads.ycsb", "YCSBWorkload.__init__"),
    EntryPoint("workloads", "repro.workloads.ycsb", "YCSBWorkload.new_client_state"),
    EntryPoint("workloads", "repro.workloads.ycsb", "YCSBWorkload.next_transaction"),
    EntryPoint("workloads", "repro.workloads.ycsb", "YCSBWorkload.client_pool"),
    EntryPoint("workloads", "repro.workloads.ycsb", "YCSBClientPool.turn"),
    EntryPoint("workloads", "repro.workloads.tpcc", "TPCCWorkload.__init__"),
    EntryPoint("workloads", "repro.workloads.tpcc", "TPCCWorkload.new_client_state"),
    EntryPoint("workloads", "repro.workloads.tpcc", "TPCCWorkload.next_transaction"),
    EntryPoint("workloads", "repro.workloads.openloop", "OpenLoopEngine.__init__"),
    EntryPoint("workloads", "repro.workloads.openloop", "OpenLoopEngine.install"),
    EntryPoint("workloads", "repro.workloads.openloop", "OpenLoopEngine._arrival_loop"),
    EntryPoint("workloads", "repro.workloads.openloop", "OpenLoopEngine._dispatcher"),
    # systems: the system under test and its cluster.
    EntryPoint("systems", "repro.systems.base", "Cluster.__init__"),
    EntryPoint("systems", "repro.systems.base", "System.new_session"),
    EntryPoint("systems", "repro.systems.base", "System.client_hop"),
    EntryPoint("systems", "repro.systems.dynamast", "DynaMast.__init__"),
    EntryPoint("systems", "repro.systems.dynamast", "DynaMast.submit"),
    # core: site selector, strategy, statistics.
    EntryPoint("core", "repro.core.site_selector", "SiteSelector.__init__"),
    EntryPoint("core", "repro.core.site_selector", "SiteSelector.route_update"),
    EntryPoint("core", "repro.core.site_selector", "SiteSelector.route_read"),
    EntryPoint("core", "repro.core.site_selector", "SiteSelector._move"),
    EntryPoint("core", "repro.core.strategy", "RemasterStrategy.decide"),
    EntryPoint("core", "repro.core.statistics", "AccessStatistics.observe"),
    # sites: data-site transaction execution and mastership transfer.
    EntryPoint("sites", "repro.sites.data_site", "DataSite.__init__"),
    EntryPoint("sites", "repro.sites.data_site", "DataSite.execute_update"),
    EntryPoint("sites", "repro.sites.data_site", "DataSite.execute_read"),
    EntryPoint("sites", "repro.sites.data_site", "DataSite.release_mastership"),
    EntryPoint("sites", "repro.sites.data_site", "DataSite.grant_mastership"),
    # storage: versioned records and locks.
    EntryPoint("storage", "repro.storage.database", "Database.read"),
    EntryPoint("storage", "repro.storage.database", "Database.install_many",
               units=_install_units),
    EntryPoint("storage", "repro.storage.locks", "LockTable.acquire_all"),
    EntryPoint("storage", "repro.storage.locks", "LockTable.release_all"),
    # replication: durable log fan-out and refresh application.
    EntryPoint("replication", "repro.replication.log", "DurableLog.append"),
    EntryPoint("replication", "repro.replication.manager", "ReplicationManager._drain"),
    # obs: tracer, sampler and SLO engine of the observed traced run, so
    # their cost is not billed to the protocol layers that call them.
    EntryPoint("obs", "repro.obs.tracer", "Tracer.txn_begin"),
    EntryPoint("obs", "repro.obs.tracer", "Tracer.txn_end"),
    EntryPoint("obs", "repro.obs.tracer", "Tracer.span"),
    EntryPoint("obs", "repro.obs.tracer", "Tracer.instant"),
    EntryPoint("obs", "repro.obs.tracer", "Tracer.edge"),
    EntryPoint("obs", "repro.obs.sampler", "TimelineSampler.sample_once"),
    EntryPoint("obs", "repro.obs.slo", "SloEngine.observe_txn"),
)

#: The entry point whose span is the root of a run.
RUN_ROOT = "sim:Environment.run"


def _txn_id(args: tuple, kwargs: dict) -> int:
    for arg in args:
        if type(arg) is Transaction:
            return arg.txn_id
    txn = kwargs.get("txn")
    return txn.txn_id if type(txn) is Transaction else -1


class SpanRecorder:
    """In-memory span store plus the stack of currently open spans."""

    def __init__(self):
        #: fid -> (layer, function path); fid indexes ``calls``/``units``.
        self.names: List[Tuple[str, str]] = []
        self.calls: List[int] = []
        self.units: List[int] = []
        self.fids = array("i")
        self.parents = array("i")
        self.txns = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: List[int] = []

    def register(self, layer: str, path: str) -> int:
        self.names.append((layer, path))
        self.calls.append(0)
        self.units.append(0)
        return len(self.names) - 1

    def open(self, fid: int, txn: int = -1) -> None:
        stack = self._stack
        index = len(self.fids)
        self.fids.append(fid)
        self.parents.append(stack[-1] if stack else -1)
        self.txns.append(txn)
        self.ends.append(0)
        stack.append(index)
        # Read the clock last, so the bookkeeping above is billed to
        # the parent rather than to this span.
        self.starts.append(perf_counter_ns())

    def close(self) -> None:
        end = perf_counter_ns()
        self.ends[self._stack.pop()] = end

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def __len__(self) -> int:
        return len(self.fids)


def _wrap_function(fn, recorder: SpanRecorder, fid: int, units):
    calls = recorder.calls
    unit_counts = recorder.units
    span_open = recorder.open
    span_close = recorder.close

    def traced(*args, **kwargs):
        calls[fid] += 1
        if units is not None:
            unit_counts[fid] += units(args)
        span_open(fid, _txn_id(args, kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            span_close()

    traced.__wrapped__ = fn
    return traced


def _wrap_generator(fn, recorder: SpanRecorder, fid: int):
    calls = recorder.calls
    span_open = recorder.open
    span_close = recorder.close

    def traced(*args, **kwargs):
        calls[fid] += 1
        txn = _txn_id(args, kwargs)
        gen = fn(*args, **kwargs)
        value = None
        error = None
        while True:
            span_open(fid, txn)
            try:
                out = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                span_close()
            # Hand the yielded event up without keeping a reference to
            # it in this frame: the kernel recycles Timeout shells only
            # when nothing else holds them.
            box = [out]
            del out
            try:
                value = yield box.pop()
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the kernel: forward it
                value = None
                error = exc

    traced.__wrapped__ = fn
    return traced


def _resolve(entry: EntryPoint):
    module = importlib.import_module(entry.module)
    owner_name, _, attr = entry.path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr


class Instrumentation:
    """Patches every entry point on ``install`` and restores on ``restore``.

    Use as a context manager; the originals are put back even if the
    traced run raises.
    """

    def __init__(self, recorder: SpanRecorder,
                 entries: Sequence[EntryPoint] = ENTRY_POINTS):
        self.recorder = recorder
        self.entries = tuple(entries)
        self.fid_of: Dict[str, int] = {}
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for entry in self.entries:
            owner, attr = _resolve(entry)
            original = vars(owner)[attr]
            fid = self.recorder.register(entry.layer, entry.path)
            self.fid_of[entry.name] = fid
            if inspect.isgeneratorfunction(original):
                wrapped = _wrap_generator(original, self.recorder, fid)
            else:
                wrapped = _wrap_function(original, self.recorder, fid, entry.units)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def unpatched(entries: Sequence[EntryPoint] = ENTRY_POINTS) -> List[str]:
    """Entry points whose current attribute is still a span wrapper."""
    left = []
    for entry in entries:
        owner, attr = _resolve(entry)
        if hasattr(vars(owner)[attr], "__wrapped__"):
            left.append(entry.name)
    return left


@dataclass
class SpanSummary:
    """Self time folded per layer and per entry point under one root."""

    root_ns: int
    #: The root span's own self time: the kernel loop and unwrapped code.
    root_self_ns: int = 0
    layer_self_ns: Dict[str, int] = field(default_factory=dict)
    entry_self_ns: Dict[str, int] = field(default_factory=dict)
    #: Spans whose interval leaves their parent's, or that never closed.
    nesting_errors: int = 0

    @property
    def accounted(self) -> float:
        """Sum of (non-negative) layer self times over the root duration.

        1 by construction while spans nest; a negative self time that was
        clamped to 0 (a nesting error) shows as a value above 1.
        """
        if self.root_ns <= 0:
            return 0.0
        return sum(self.layer_self_ns.values()) / self.root_ns

    @property
    def coverage(self) -> float:
        """Share of the root's duration spent inside wrapped entry points."""
        if self.root_ns <= 0:
            return 0.0
        return 1.0 - self.root_self_ns / self.root_ns

    def share(self, layer: str) -> float:
        if self.root_ns <= 0:
            return 0.0
        return self.layer_self_ns.get(layer, 0) / self.root_ns


def _columns(recorder: SpanRecorder):
    return (
        np.frombuffer(recorder.fids, dtype=np.int32),
        np.frombuffer(recorder.parents, dtype=np.int32),
        np.frombuffer(recorder.starts, dtype=np.int64),
        np.frombuffer(recorder.ends, dtype=np.int64),
    )


def self_times(recorder: SpanRecorder) -> np.ndarray:
    """Per-span self time (ns): duration minus the durations of its children."""
    _, parents, starts, ends = _columns(recorder)
    durations = ends - starts
    child = parents >= 0
    covered = np.bincount(parents[child], weights=durations[child],
                          minlength=len(durations))
    return durations - covered.astype(np.int64)


def summarize(recorder: SpanRecorder, root_fid: int) -> List[SpanSummary]:
    """One :class:`SpanSummary` per top-level span with function id ``root_fid``.

    Spans are stored in the order they opened, so the spans under a
    top-level span are exactly the block that follows it up to the next
    top-level span.
    """
    if not len(recorder):
        return []
    fids, parents, starts, ends = _columns(recorder)
    own = self_times(recorder)
    child = np.flatnonzero(parents >= 0)
    broken = (ends == 0) | (own < 0)
    outer = parents[child]
    broken[child] |= (starts[child] < starts[outer]) | (ends[child] > ends[outer])
    tops = np.flatnonzero(parents < 0)
    root_of = tops[np.searchsorted(tops, np.arange(len(fids)), side="right") - 1]
    summaries = []
    for top in tops[fids[tops] == root_fid]:
        members = root_of == top
        per_fid = np.bincount(fids[members], weights=np.maximum(own[members], 0),
                              minlength=len(recorder.names))
        summary = SpanSummary(root_ns=int(ends[top] - starts[top]),
                              root_self_ns=int(max(own[top], 0)),
                              nesting_errors=int(broken[members].sum()))
        for fid in np.flatnonzero(np.bincount(fids[members], minlength=len(recorder.names))):
            layer, path = recorder.names[fid]
            self_ns = int(per_fid[fid])
            summary.entry_self_ns[f"{layer}:{path}"] = self_ns
            summary.layer_self_ns[layer] = summary.layer_self_ns.get(layer, 0) + self_ns
        summaries.append(summary)
    return summaries


def dominant_entries(summary: SpanSummary, threshold: float = 0.5) -> List[Tuple[str, float]]:
    """Entry points holding more than ``threshold`` of their layer's self time."""
    flagged = []
    for key, self_ns in sorted(summary.entry_self_ns.items()):
        layer = key.split(":", 1)[0]
        total = summary.layer_self_ns.get(layer, 0)
        if total > 0 and self_ns / total > threshold:
            flagged.append((key, self_ns / total))
    return flagged
