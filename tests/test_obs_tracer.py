"""Tests for the span tracer: recording, nesting, aggregation."""

from repro.obs import NULL_TRACER, NullTracer, Tracer
from repro.transactions import Outcome, Transaction


def make_txn(kind="rmw"):
    return Transaction(kind, client_id=0, write_set=(("t", 1),))


class TestNullTracer:
    def test_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        txn = make_txn()
        tracer.txn_begin(txn, 0.0)
        tracer.span("execute", 0.0, 1.0, track="site0", txn=txn)
        tracer.instant("abort", 1.0, txn=txn)
        tracer.txn_end(txn, Outcome(committed=True), 1.0)
        assert not hasattr(tracer, "spans")

    def test_shared_instance_is_null(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled

    def test_real_tracer_substitutes(self):
        assert issubclass(Tracer, NullTracer)
        assert Tracer().enabled


class TestPhase:
    def test_null_tracer_charges_breakdown_only(self):
        txn = make_txn()
        NULL_TRACER.phase(txn, "network", 1.0, 1.5, "net", category="client")
        NULL_TRACER.phase(txn, "network", 2.0, 2.25, "net")
        assert txn.timings == {"network": 0.75}

    def test_tracer_charges_breakdown_and_records_span(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.phase(txn, "lock_wait", 3.0, 5.0, "site1", holder=4)
        assert txn.timings == {"lock_wait": 2.0}
        (span,) = tracer.spans
        assert (span.name, span.start, span.end, span.track, span.txn_id) == \
            ("lock_wait", 3.0, 5.0, "site1", txn.txn_id)
        assert dict(span.args) == {"holder": 4}


class TestPerTxnQueries:
    def test_records_appended_after_a_query_are_found(self):
        tracer = Tracer()
        first, second = make_txn(), make_txn()
        tracer.span("a", 0.0, 1.0, txn=first)
        tracer.edge("rpc", 0.5, txn=first)
        assert [s.name for s in tracer.spans_of(first.txn_id)] == ["a"]
        assert tracer.spans_of(second.txn_id) == []
        assert len(tracer.edges_of(first.txn_id)) == 1
        tracer.span("b", 0.5, 0.8, txn=first)
        tracer.span("c", 2.0, 3.0, txn=second)
        tracer.edge("lock_wait", 0.1, txn=first)
        tracer.edge("rpc", 2.5, txn=second)
        assert [s.name for s in tracer.spans_of(first.txn_id)] == ["a", "b"]
        assert [s.name for s in tracer.spans_of(second.txn_id)] == ["c"]
        assert [e.kind for e in tracer.edges_of(first.txn_id)] == \
            ["lock_wait", "rpc"]
        assert [e.ts for e in tracer.edges_of(second.txn_id)] == [2.5]


class TestTxnRecords:
    def test_begin_end_roundtrip(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_begin(txn, 10.0)
        tracer.txn_end(txn, Outcome(committed=True, remastered=True), 14.0)
        record = tracer.txns[txn.txn_id]
        assert record.begin == 10.0
        assert record.end == 14.0
        assert record.latency == 4.0
        assert record.committed is True
        assert record.remastered is True
        assert record.recorded is True

    def test_warmup_txn_not_recorded(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_begin(txn, 0.0)
        tracer.txn_end(txn, Outcome(committed=True), 1.0, recorded=False)
        assert tracer.txns[txn.txn_id].recorded is False

    def test_abort_emits_instant_and_counts(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_begin(txn, 0.0)
        tracer.txn_end(txn, Outcome(committed=False), 2.0)
        assert tracer.abort_count() == 1
        assert tracer.txns[txn.txn_id].recorded is False
        names = [instant.name for instant in tracer.instants]
        assert "abort" in names

    def test_end_without_begin_synthesizes_envelope(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_end(txn, Outcome(committed=True), 5.0)
        record = tracer.txns[txn.txn_id]
        assert record.begin == record.end == 5.0
        assert record.latency == 0.0


class TestSpanTree:
    def test_spans_sorted_by_start_then_length(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.span("inner", 1.0, 2.0, txn=txn)
        tracer.span("outer", 1.0, 5.0, txn=txn)
        tracer.span("early", 0.0, 0.5, txn=txn)
        names = [span.name for span in tracer.spans_of(txn.txn_id)]
        assert names == ["early", "outer", "inner"]

    def test_containment_nesting(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.span("route", 0.0, 10.0, txn=txn)
        tracer.span("release", 1.0, 4.0, txn=txn)
        tracer.span("grant", 4.0, 8.0, txn=txn)
        tracer.span("lock_wait", 1.5, 2.0, txn=txn)
        roots = tracer.span_tree(txn.txn_id)
        assert [node.name for node in roots] == ["route"]
        children = [child.name for child in roots[0].children]
        assert children == ["release", "grant"]
        release = roots[0].children[0]
        assert [child.name for child in release.children] == ["lock_wait"]

    def test_siblings_stay_siblings(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.span("a", 0.0, 2.0, txn=txn)
        tracer.span("b", 2.0, 4.0, txn=txn)
        tracer.span("c", 4.0, 6.0, txn=txn)
        roots = tracer.span_tree(txn.txn_id)
        assert [node.name for node in roots] == ["a", "b", "c"]
        assert all(not node.children for node in roots)

    def test_zero_width_child_at_boundary(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.span("outer", 0.0, 3.0, txn=txn)
        tracer.span("edge", 3.0, 3.0, txn=txn)
        roots = tracer.span_tree(txn.txn_id)
        assert [node.name for node in roots] == ["outer"]
        assert [child.name for child in roots[0].children] == ["edge"]

    def test_self_time_and_walk(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.span("outer", 0.0, 10.0, txn=txn)
        tracer.span("inner", 2.0, 5.0, txn=txn)
        root = tracer.span_tree(txn.txn_id)[0]
        assert root.self_time == 7.0
        paths = [path for path, _ in root.walk("rmw")]
        assert paths == ["rmw/outer", "rmw/outer/inner"]

    def test_tree_ignores_other_txns(self):
        tracer = Tracer()
        a, b = make_txn(), make_txn()
        tracer.span("mine", 0.0, 1.0, txn=a)
        tracer.span("theirs", 0.0, 1.0, txn=b)
        assert [n.name for n in tracer.span_tree(a.txn_id)] == ["mine"]


class TestOrphanSpans:
    """Crash-severed spans: outside the envelope, flagged, never parents."""

    def test_span_outliving_envelope_is_orphan_root(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_begin(txn, 0.0)
        tracer.span("execute", 0.0, 4.0, txn=txn)
        # Severed lock wait released only when a crash interrupted it,
        # long after the client's retry committed.
        tracer.span("lock_wait", 1.0, 50.0, txn=txn)
        tracer.txn_end(txn, Outcome(committed=True), 5.0)
        roots = tracer.span_tree(txn.txn_id)
        assert [(node.name, node.orphan) for node in roots] == [
            ("execute", False), ("lock_wait", True),
        ]

    def test_orphan_does_not_adopt_retry_spans(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_begin(txn, 10.0)
        # Abandoned first attempt: started before the recorded envelope.
        tracer.span("execute", 0.0, 30.0, txn=txn)
        # The genuine retry work, fully inside the envelope.
        tracer.span("commit", 12.0, 14.0, txn=txn)
        tracer.txn_end(txn, Outcome(committed=True), 15.0)
        roots = tracer.span_tree(txn.txn_id)
        nested = [node for node in roots if not node.orphan]
        orphans = [node for node in roots if node.orphan]
        assert [node.name for node in nested] == ["commit"]
        assert [node.name for node in orphans] == ["execute"]
        assert all(not node.children for node in orphans)

    def test_open_envelope_keeps_legacy_containment(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_begin(txn, 0.0)  # never ended (in flight at run end)
        tracer.span("outer", 0.0, 10.0, txn=txn)
        tracer.span("inner", 2.0, 4.0, txn=txn)
        roots = tracer.span_tree(txn.txn_id)
        assert [node.name for node in roots] == ["outer"]
        assert not roots[0].orphan
        assert [child.name for child in roots[0].children] == ["inner"]

    def test_chaos_run_trees_have_no_misparenting(self):
        """Regression: mid-transaction site crashes used to leave
        truncated spans that adopted the retry's spans as children."""
        from repro.faults.chaos import run_chaos
        from repro.obs import Observability

        report = run_chaos(
            "dynamast",
            "crash-restart",
            num_sites=3,
            num_clients=6,
            duration_ms=900.0,
            bucket_ms=300.0,
            seed=3,
            obs=Observability(),
        )
        tracer = report.result.obs.tracer
        assert any(kind == "crash" for _, kind, _ in report.fault_events)
        eps = 1e-9
        checked = 0
        for txn_id, record in tracer.txns.items():
            if record.end is None:
                continue
            for root in tracer.span_tree(txn_id):
                checked += 1
                if root.orphan:
                    assert not root.children
                    # Orphans really do violate the envelope.
                    assert (root.span.start < record.begin - eps
                            or root.span.end > record.end + eps)
                else:
                    for path, node in root.walk():
                        assert node.span.start >= record.begin - eps, path
                        assert node.span.end <= record.end + eps, path
        assert checked > 0


class TestAggregation:
    def test_phase_totals_recorded_only(self):
        tracer = Tracer()
        kept, dropped = make_txn(), make_txn()
        for txn, recorded in ((kept, True), (dropped, False)):
            tracer.txn_begin(txn, 0.0)
            tracer.span("execute", 0.0, 2.0, txn=txn)
            tracer.txn_end(txn, Outcome(committed=True), 2.0, recorded=recorded)
        tracer.span("refresh_apply", 0.0, 9.0, track="site1")  # no txn
        totals = tracer.phase_totals(recorded_only=True)
        assert totals == {"execute": 2.0}
        everything = tracer.phase_totals(recorded_only=False)
        assert everything["execute"] == 4.0
        assert everything["refresh_apply"] == 9.0

    def test_recorded_latency_total(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_begin(txn, 1.0)
        tracer.txn_end(txn, Outcome(committed=True), 4.0)
        other = make_txn()
        tracer.txn_begin(other, 0.0)
        tracer.txn_end(other, Outcome(committed=False), 9.0)
        assert tracer.recorded_latency_total() == 3.0

    def test_span_args_preserved(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.span("route", 0.0, 1.0, txn=txn, site=2, reason="affinity")
        span = tracer.spans[0]
        assert dict(span.args) == {"site": 2, "reason": "affinity"}
