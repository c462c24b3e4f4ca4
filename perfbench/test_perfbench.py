"""Tests of the benchmark's own arithmetic and instrumentation.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.workloads.openloop import OpenLoopSpec  # noqa: E402


def _span(recorder, fid, parent, start, end):
    index = len(recorder.fids)
    recorder.fids.append(fid)
    recorder.parents.append(parent)
    recorder.txns.append(-1)
    recorder.starts.append(start)
    recorder.ends.append(end)
    return index


class TestSelfTime:
    def fake(self):
        """root [0,100] > a [10,40] > b [15,25]; generator g resumed twice
        ([50,60] holding c [52,55], then [70,75]); a second root after."""
        rec = spantrace.SpanRecorder()
        root = rec.register("sim", "Environment.run")
        a = rec.register("sites", "a")
        b = rec.register("storage", "b")
        g = rec.register("systems", "g")
        c = rec.register("storage", "c")
        r = _span(rec, root, -1, 0, 100)
        ia = _span(rec, a, r, 10, 40)
        _span(rec, b, ia, 15, 25)
        ig = _span(rec, g, r, 50, 60)
        _span(rec, c, ig, 52, 55)
        _span(rec, g, r, 70, 75)
        r2 = _span(rec, root, -1, 200, 210)
        _span(rec, a, r2, 201, 209)
        return rec, root

    def test_self_time_is_duration_minus_children(self):
        rec, _ = self.fake()
        assert list(spantrace.self_times(rec)) == [55, 20, 10, 7, 3, 5, 2, 8]

    def test_layers_partition_each_root(self):
        rec, root = self.fake()
        first, second = spantrace.summarize(rec, root)
        assert first.root_ns == 100
        assert first.layer_self_ns == {"sim": 55, "sites": 20, "storage": 13, "systems": 12}
        # Both resumptions of the generator count toward one entry point.
        assert first.entry_self_ns["systems:g"] == 12
        assert first.accounted == 1.0
        # The root's own 55 ns lie outside every wrapped entry point.
        assert first.root_self_ns == 55
        assert first.coverage == pytest.approx(0.45)
        assert first.nesting_errors == 0
        assert second.layer_self_ns == {"sim": 2, "sites": 8}
        assert second.share("sites") == pytest.approx(0.8)

    def test_child_outside_parent_is_a_nesting_error(self):
        rec = spantrace.SpanRecorder()
        root = rec.register("sim", "run")
        leaf = rec.register("core", "leaf")
        r = _span(rec, root, -1, 0, 10)
        _span(rec, leaf, r, 5, 20)
        (summary,) = spantrace.summarize(rec, root)
        assert summary.nesting_errors == 2  # leaf leaks out; root self < 0
        assert summary.accounted == 1.5
        assert summary.root_self_ns == 0

    def test_dominant_entries(self):
        rec, root = self.fake()
        first, _ = spantrace.summarize(rec, root)
        flagged = dict(spantrace.dominant_entries(first))
        assert flagged["storage:b"] == pytest.approx(10 / 13)
        assert "storage:c" not in flagged


def _fake_module():
    module = types.ModuleType("perfbench_fake_layer")

    class Worker:
        def leaf(self, n):
            return n * 2

        def proc(self, n):
            got = yield "first"
            doubled = self.leaf(got)
            try:
                yield doubled
            except KeyError as exc:
                yield f"caught {exc.args[0]}"
            return n + 1

    module.Worker = Worker
    sys.modules[module.__name__] = module
    return module


class TestWrappers:
    ENTRIES = (
        spantrace.EntryPoint("core", "perfbench_fake_layer", "Worker.proc"),
        spantrace.EntryPoint("storage", "perfbench_fake_layer", "Worker.leaf"),
    )

    def test_generator_timed_per_resumption(self):
        module = _fake_module()
        rec = spantrace.SpanRecorder()
        with spantrace.Instrumentation(rec, self.ENTRIES) as inst:
            gen = module.Worker().proc(4)
            assert gen.send(None) == "first"
            assert gen.send(5) == 10
            assert gen.throw(KeyError("k")) == "caught k"
            with pytest.raises(StopIteration) as stop:
                gen.send(None)
        assert stop.value.value == 5
        proc, leaf = inst.fid_of["core:Worker.proc"], inst.fid_of["storage:Worker.leaf"]
        assert rec.calls[proc] == 1 and rec.calls[leaf] == 1
        assert list(rec.fids) == [proc, proc, leaf, proc, proc]
        # The leaf call ran inside the second resumption.
        assert rec.parents[2] == 1
        assert rec.open_spans == 0
        assert all(end >= start for start, end in zip(rec.starts, rec.ends))

    def test_restore_after_error(self):
        module = _fake_module()
        original = vars(module.Worker)["proc"]
        with pytest.raises(RuntimeError):
            with spantrace.Instrumentation(spantrace.SpanRecorder(), self.ENTRIES):
                assert vars(module.Worker)["proc"] is not original
                raise RuntimeError("boom")
        assert vars(module.Worker)["proc"] is original


def test_sample_count_rule():
    assert cases.min_samples(0.99) == 1000
    assert cases.min_samples(0.95) == 200
    assert cases.min_samples(0.5) == 20
    assert not cases.reportable(999, 0.99)
    assert cases.reportable(1000, 0.99)
    with pytest.raises(ValueError):
        cases.min_samples(1.0)


TINY_CLOSED = cases.Case(
    name="tiny-closed",
    workload="ycsb",
    params=(("num_partitions", 50), ("zipf_theta", 0.75), ("rmw_fraction", 0.5)),
    sites=2,
    clients=4,
    duration_ms=60.0,
    warmup_ms=20.0,
    update_types=("rmw",),
    read_types=("scan",),
)

TINY_OPEN = dataclasses.replace(
    TINY_CLOSED,
    name="tiny-open",
    clients=0,
    open_loop=OpenLoopSpec.of("constant", rate_tps=2000.0, modeled_clients=50,
                              admission_concurrency=1),
)


def _tracer_counts(case):
    """Counts taken from the program's own tracer records, not the benchmark's.

    Returns (outcome, completions over the whole run, transactions
    started after warm-up, those committed and recorded by the harness).
    """
    obs = Observability()
    outcome = cases.execute(case, 3, obs=obs)
    records = list(obs.tracer.txns.values())
    completed = sum(1 for r in records if r.end is not None)
    started = sum(1 for r in records if r.begin >= case.warmup_ms)
    recorded = sum(1 for r in records if r.recorded)
    return outcome, completed, started, recorded


class TestDerivations:
    def test_closed_loop(self):
        outcome, completed, started, recorded = _tracer_counts(TINY_CLOSED)
        assert outcome.violations == []
        assert outcome.completed_all == completed
        assert outcome.aborted == 0 and outcome.shed == 0
        # Closed loop: each client is inside one transaction at the end.
        assert outcome.unfinished == TINY_CLOSED.clients
        # No think time: a transaction starts when its client draws it.
        assert outcome.attempted == started
        assert outcome.failed_share == pytest.approx((started - recorded) / started)
        assert outcome.failed_share > 0
        assert outcome.host_txn_per_s == pytest.approx(completed / outcome.run_s)
        assert outcome.run_s > 0 and outcome.setup_s > 0

    def test_open_loop(self):
        outcome, completed, _, recorded = _tracer_counts(TINY_OPEN)
        counters = outcome.open_loop
        assert outcome.violations == []
        assert outcome.completed_all == completed == counters["completed"]
        assert outcome.attempted == counters["offered_recorded"]
        assert outcome.unfinished == counters["offered_recorded"] - counters["completed_recorded"]
        # Arrivals after warm-up that the tracer never saw commit and record.
        offered = counters["offered_recorded"]
        assert outcome.failed_share == pytest.approx((offered - recorded) / offered)
        assert outcome.host_txn_per_s == pytest.approx(completed / outcome.run_s)

    def test_chunked_run_is_the_same_run(self):
        plain = cases.execute(TINY_CLOSED, 3)
        chunked = cases.execute(TINY_CLOSED, 3, chunks=7)
        assert chunked.fingerprint == plain.fingerprint
        assert chunked.completed_all == plain.completed_all
        assert plain.reference_s == 0.0 and plain.reference_txn_per_s == 0.0
        assert chunked.reference_s > 0
        assert chunked.reference_txn_per_s == pytest.approx(
            chunked.host_txn_per_s * chunked.reference_s / cases.REFERENCE_S)

    def test_setup_sample_pairs_a_reference(self):
        setup, reference = cases.time_setup(TINY_OPEN, 3)
        assert setup > 0 and reference > 0

    def test_conservation_catches_a_lost_transaction(self):
        outcome = cases.execute(TINY_CLOSED, 3)
        outcome.commits -= 1
        assert cases.conservation(TINY_CLOSED, outcome, TINY_CLOSED.clients)


def test_traced_run_restores_patches_and_keeps_fingerprint():
    originals = {}
    for entry in spantrace.ENTRY_POINTS:
        owner, attr = spantrace._resolve(entry)
        originals[entry.name] = (owner, attr, vars(owner)[attr])
    plain = cases.execute(TINY_OPEN, 5)
    rec = spantrace.SpanRecorder()
    with spantrace.Instrumentation(rec) as inst:
        traced = cases.execute(TINY_OPEN, 5)
    for name, (owner, attr, original) in originals.items():
        assert vars(owner)[attr] is original, name
    assert spantrace.unpatched() == []
    assert traced.fingerprint == plain.fingerprint
    (root,) = spantrace.summarize(rec, inst.fid_of[spantrace.RUN_ROOT])
    assert root.nesting_errors == 0
    assert root.accounted == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < root.coverage < 1.0


def test_coverage_shrinks_with_fewer_wrappers():
    """Code no wrapper covers lands in the root's own self time."""
    def coverage(entries):
        rec = spantrace.SpanRecorder()
        with spantrace.Instrumentation(rec, entries) as inst:
            cases.execute(TINY_OPEN, 5)
        (root,) = spantrace.summarize(rec, inst.fid_of[spantrace.RUN_ROOT])
        return root.coverage

    root_only = [e for e in spantrace.ENTRY_POINTS if e.name == spantrace.RUN_ROOT]
    sim_only = [e for e in spantrace.ENTRY_POINTS if e.layer == "sim"]
    assert coverage(root_only) == 0.0
    # Without the process bodies' wrappers their code runs in the root.
    assert coverage(sim_only) < 0.5 < coverage(spantrace.ENTRY_POINTS)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
