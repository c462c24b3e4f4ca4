"""The simulator's benchmark: one workload per process, one JSON line out.

    python3 perfbench/run.py --workload ycsb-read-4s --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

``--trace 0`` times untraced runs and reports the end-to-end metrics:
the full run repeats (at least twice) until ``--seconds`` of host time
are spent, and set-up is also timed on its own before every run and
after the last. Host figures are medians over those repeats, each read
against a fixed reference workload timed beside it and reported at the
reference's nominal speed (the raw medians are printed too); simulated
figures are exact for the seed, and every repeat must reproduce the
same run fingerprint.

``--trace 1`` makes one untraced run and one traced run (host-time
spans around every layer's entry points, plus the observability
tracer and SLO engine) and reports the per-layer metrics.

Any failed correctness check marks the result ``"correct": false``
and makes the command exit with status 1. Without the program's
sources next to this directory it exits with status 2 and prints no
result. NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

WORKLOADS = ("ycsb-read-4s", "tpcc-4s", "ycsb-open-16s")

#: Set-up-only runs before each timed run and after the last one. They
#: are spread over the invocation because this host's speed shifts
#: over tens of seconds (NOTES.md).
SETUPS_PER_ROUND = 12
#: Timed runs per invocation, at least: two must agree on the fingerprint.
MIN_TIMED_RUNS = 2

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("host_txn_per_s", "txn/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_throughput_tps", "txn/sim-s"),
    ("sim_update_mean_ms", "sim-ms"),
    ("sim_update_p99_ms", "sim-ms"),
    ("sim_read_mean_ms", "sim-ms"),
    ("sim_read_p99_ms", "sim-ms"),
)

#: Printed with the end-to-end metrics but left out of the JSON result
#: (NOTES.md). The raw host figures carry the host's speed phases. The
#: medians sit on the cost model's fixed uncontended latency, so they
#: can read exactly the same for every seed; the means are gated
#: instead. ``failed_share`` only counts transactions in flight at the
#: cut-off (nothing aborts or is shed here; those are the JSON
#: ``failed`` count), which swings by a fifth from seed to seed.
PRINTED_ONLY: Tuple[Tuple[str, str], ...] = (
    ("host_txn_per_s_raw", "txn/s"),
    ("setup_s_raw", "s"),
    ("sim_update_p50_ms", "sim-ms"),
    ("sim_read_p50_ms", "sim-ms"),
    ("failed_share", "ratio"),
)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events_per_txn", "events/txn"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.host_self_share", "ratio"),
    ("sim.network.bytes_per_txn.client", "B/txn"),
    ("sim.network.bytes_per_txn.replication", "B/txn"),
    ("sim.network.bytes_per_txn.remaster", "B/txn"),
    ("sim.network.wait_share", "ratio"),
    ("sim.admission.wait_p99_ms", "sim-ms"),
    ("sim.admission.peak_depth", "count"),
    ("sim.admission.backlog_end", "count"),
    ("bench.host_self_share", "ratio"),
    ("workloads.calls", "count"),
    ("workloads.host_self_share", "ratio"),
    ("workloads.setup_s_share", "ratio"),
    ("systems.submit.calls", "count"),
    ("systems.host_self_share", "ratio"),
    ("core.route_update.calls", "count"),
    ("core.route_read.calls", "count"),
    ("core.decide.calls", "count"),
    ("core.host_self_share", "ratio"),
    ("core.remaster_rate", "ratio"),
    ("core.partitions_moved_per_update", "count/txn"),
    ("core.remaster_wait_share", "ratio"),
    ("sites.execute_update.calls", "count"),
    ("sites.execute_read.calls", "count"),
    ("sites.mastership_transfers", "count"),
    ("sites.host_self_share", "ratio"),
    ("sites.cpu_util_mean", "ratio"),
    ("sites.cpu_util_max", "ratio"),
    ("sites.cpu_queue_share", "ratio"),
    ("sites.cpu_service_share", "ratio"),
    ("storage.read.calls", "count"),
    ("storage.install.records", "count"),
    ("storage.lock_acquire.calls", "count"),
    ("storage.host_self_share", "ratio"),
    ("storage.rows", "count"),
    ("storage.versions_per_row", "count"),
    ("storage.lock_wait_share", "ratio"),
    ("replication.log_append.calls", "count"),
    ("replication.records_applied", "count"),
    ("replication.host_self_share", "ratio"),
    ("replication.log_records_retained", "count"),
    ("replication.refresh_wait_share", "ratio"),
    ("obs.host_self_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.flagged_entries", "count"),
)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(case, seed: int, seconds: float):
    """End-to-end metrics from untraced runs.

    Returns ({name: (value, sample count)}, report lines, failed checks,
    (attempted, failed)); ``traced`` returns the same shape.
    """
    from cases import REFERENCE_S, RUN_CHUNKS, execute, sample_gate, time_setup

    setups: List[Tuple[float, float]] = []
    runs = []
    started = perf_counter()
    while len(runs) < MIN_TIMED_RUNS or perf_counter() - started < seconds:
        setups.extend(time_setup(case, seed) for _ in range(SETUPS_PER_ROUND))
        runs.append(execute(case, seed, chunks=RUN_CHUNKS))
    setups.extend(time_setup(case, seed) for _ in range(SETUPS_PER_ROUND))
    first = runs[0]
    failures: List[str] = []
    fingerprints = sorted({run.fingerprint for run in runs})
    if len(fingerprints) != 1:
        failures.append(f"timed runs of one seed disagree: fingerprints {fingerprints}")
    for index, run in enumerate(runs):
        failures.extend(f"run {index}: {failure}" for failure in run.violations)
    failures.extend(sample_gate(case, first))
    update, read = first.update, first.read
    stats = {
        "host_txn_per_s": (
            statistics.median(run.reference_txn_per_s for run in runs), len(runs)),
        "host_txn_per_s_raw": (
            statistics.median(run.host_txn_per_s for run in runs), len(runs)),
        "setup_s": (
            statistics.median(s / r for s, r in setups) * REFERENCE_S, len(setups)),
        "setup_s_raw": (statistics.median(s for s, _ in setups), len(setups)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "sim_throughput_tps": (first.throughput_tps, first.commits),
        "sim_update_mean_ms": (update.mean, update.count),
        "sim_update_p50_ms": (update.p50, update.count),
        "sim_update_p99_ms": (update.p99, update.count),
        "sim_read_mean_ms": (read.mean, read.count),
        "sim_read_p50_ms": (read.p50, read.count),
        "sim_read_p99_ms": (read.p99, read.count),
        "failed_share": (first.failed_share, first.attempted),
    }
    report = [
        f"runs: {len(runs)} x {case.duration_ms:g} sim-ms (warm-up {case.warmup_ms:g}), "
        f"fingerprint {first.fingerprint}",
        "host txn/s per run (raw / at reference speed): " + ", ".join(
            f"{run.host_txn_per_s:.1f}/{run.reference_txn_per_s:.1f}" for run in runs),
        f"reference pass: median {statistics.median(r for _, r in setups) * 1e3:.3f} ms "
        f"beside set-up, {statistics.median(run.reference_s for run in runs) * 1e3:.3f} ms "
        f"beside the runs (median of run means; nominal {REFERENCE_S * 1e3:g} ms)",
    ]
    totals = (sum(run.attempted for run in runs),
              sum(run.aborted + run.shed for run in runs))
    return stats, report, failures, totals


def traced(case, seed: int):
    """Per-layer metrics from one untraced and one traced run."""
    from repro.obs import Observability
    from repro.obs.attribution import AttributionReport
    from repro.obs.slo import SloEngine

    from cases import RUN_CHUNKS, IndexedTracer, execute, sample_gate
    from spantrace import (
        LAYERS, RUN_ROOT, Instrumentation, SpanRecorder, dominant_entries, summarize,
        unpatched,
    )

    # Chunked like the timed runs, so the fingerprint check below also
    # shows that chunking leaves the simulation unchanged.
    plain = execute(case, seed, chunks=RUN_CHUNKS)
    recorder = SpanRecorder()
    setup_fid = recorder.register("setup", "setup")
    instrumentation = Instrumentation(recorder)
    with instrumentation:
        run = execute(
            case, seed,
            obs=Observability(), slo=SloEngine(),
            setup_hooks=(lambda: recorder.open(setup_fid), recorder.close),
            keep_result=True,
        )
    result = run.result
    run.result = None
    shares = AttributionReport.from_tracer(
        IndexedTracer(result.obs.tracer), keep_segments=False).shares()
    slo_violations = list(result.slo.violations)
    del result
    gc.collect()  # free the traced cluster before folding the spans

    failures: List[str] = []
    if run.fingerprint != plain.fingerprint:
        failures.append(
            f"traced fingerprint {run.fingerprint} != untraced {plain.fingerprint}"
        )
    failures.extend(f"SLO invariant violated: {v.objective}" for v in slo_violations)
    failures.extend(f"untraced: {failure}" for failure in plain.violations)
    failures.extend(f"traced: {failure}" for failure in run.violations)
    failures.extend(sample_gate(case, plain))
    left = unpatched()
    if left:
        failures.append(f"entry points left patched: {left}")
    run_roots = summarize(recorder, instrumentation.fid_of[RUN_ROOT])
    setup_roots = summarize(recorder, setup_fid)
    if len(run_roots) != 1 or len(setup_roots) != 1:
        failures.append(
            f"expected one run and one set-up root, got {len(run_roots)}, {len(setup_roots)}"
        )
        return {}, [], failures, (plain.attempted, plain.aborted + plain.shed)
    root, setup = run_roots[0], setup_roots[0]
    if recorder.open_spans or root.nesting_errors:
        failures.append(
            f"span nesting broken: {recorder.open_spans} open, {root.nesting_errors} errors"
        )
    if abs(root.accounted - 1.0) > 1e-9:
        failures.append(f"layer self times sum to {root.accounted:.6f} of env.run")

    def calls(*paths: str) -> int:
        return sum(recorder.calls[instrumentation.fid_of[path]] for path in paths)

    state = plain.state
    per_txn = plain.completed_all
    flagged = dominant_entries(root)
    values: Dict[str, float] = {
        "sim.events_per_txn": plain.events / per_txn,
        "sim.host_ns_per_event": root.layer_self_ns.get("sim", 0) / run.events,
        "sim.network.bytes_per_txn.client": state["bytes.client"] / per_txn,
        "sim.network.bytes_per_txn.replication": state["bytes.replication"] / per_txn,
        "sim.network.bytes_per_txn.remaster": state["bytes.remaster"] / per_txn,
        "sim.network.wait_share": shares["network"],
        "sim.admission.wait_p99_ms": plain.admission_wait.p99,
        "sim.admission.peak_depth": plain.open_loop.get("peak_depth", 0.0),
        "sim.admission.backlog_end": plain.open_loop.get("queued_end", 0.0),
        "workloads.calls": calls(
            "workloads:YCSBWorkload.next_transaction",
            "workloads:TPCCWorkload.next_transaction",
            "workloads:YCSBClientPool.turn",
        ),
        "workloads.setup_s_share": setup.share("workloads"),
        "systems.submit.calls": calls("systems:DynaMast.submit"),
        "core.route_update.calls": calls("core:SiteSelector.route_update"),
        "core.route_read.calls": calls("core:SiteSelector.route_read"),
        "core.decide.calls": calls("core:RemasterStrategy.decide"),
        "core.remaster_rate": state["remaster_rate"],
        "core.partitions_moved_per_update": state["partitions_moved_per_update"],
        "core.remaster_wait_share": shares["remaster_wait"],
        "sites.execute_update.calls": calls("sites:DataSite.execute_update"),
        "sites.execute_read.calls": calls("sites:DataSite.execute_read"),
        "sites.mastership_transfers": calls("sites:DataSite.grant_mastership"),
        "sites.cpu_util_mean": state["cpu_util_mean"],
        "sites.cpu_util_max": state["cpu_util_max"],
        "sites.cpu_queue_share": shares["cpu_queue"],
        "sites.cpu_service_share": shares["cpu_service"],
        "storage.read.calls": calls("storage:Database.read"),
        "storage.install.records": recorder.units[
            instrumentation.fid_of["storage:Database.install_many"]],
        "storage.lock_acquire.calls": calls("storage:LockTable.acquire_all"),
        "storage.rows": state["rows"],
        "storage.versions_per_row": state["versions_per_row"],
        "storage.lock_wait_share": shares["lock_wait"],
        "replication.log_append.calls": calls("replication:DurableLog.append"),
        "replication.records_applied": state["records_applied"],
        "replication.log_records_retained": state["log_records_retained"],
        "replication.refresh_wait_share": shares["refresh_wait"],
        "trace.overhead_ratio": run.run_s / plain.run_s,
        "trace.coverage": root.coverage,
        "trace.flagged_entries": len(flagged),
    }
    for layer in LAYERS:
        values[f"{layer}.host_self_share"] = root.share(layer)
    report = [
        f"untraced env.run {plain.run_s:.3f} s, traced {run.run_s:.3f} s, "
        f"{len(recorder)} spans, fingerprint {plain.fingerprint}",
        f"env.run outside every wrapped entry point (kernel loop and unwrapped "
        f"callbacks, billed to sim): {1.0 - root.coverage:.1%}",
        "host self time by layer: " + ", ".join(
            f"{layer} {root.share(layer):.1%}" for layer in root.layer_self_ns),
    ]
    report.extend(
        f"FLAG {case.name}: {key} holds {share:.0%} of its layer's self time"
        for key, share in flagged
    )
    stats = {name: (value, 1) for name, value in values.items()}
    return stats, report, failures, (plain.attempted, plain.aborted + plain.shed)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from cases import CASES

    case = CASES[workload]
    if trace:
        stats, report, failures, totals = traced(case, seed)
        names, printed = PER_LAYER, PER_LAYER
    else:
        stats, report, failures, totals = timed(case, seed, seconds)
        names, printed = END_TO_END, END_TO_END + PRINTED_ONLY
    print(f"# {workload} seed={seed} trace={int(trace)}")
    for line in report:
        print(f"# {line}")
    for name, unit in printed:
        if name in stats:
            value, count = stats[name]
            print(f"{name:<40} {value:>16.6f} {unit:<10} n={count}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    attempted, failed = totals
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": stats[name][0], "unit": unit}
            for name, unit in names if name in stats
        },
    }))
    return 1 if failures else 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own (peak RSS stays per workload)."""
    status = 0
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: program sources not found at {SOURCE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SOURCE))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
