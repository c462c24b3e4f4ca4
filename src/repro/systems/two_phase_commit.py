"""Two-phase commit coordination for the partitioned comparators.

The multi-master and partition-store systems coordinate transaction
branches at the granularity of their *placement units* — the
application-level partitions their offline partitioner assigns to
sites (YCSB's 100-key partitions, TPC-C's warehouses). A write set
spanning units runs as a distributed transaction (paper §I, §II-A,
§VI-A.2): one branch per unit, combined branch-work + prepare in the
first round, the global decision in the second. Branches at remote
sites pay network round trips; every branch pays per-branch dispatch
and prepare CPU, and holds its write locks across the uncertainty
window — blocking conflicting transactions, the effect Figure 1b
illustrates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.faults.errors import (
    FaultError,
    RpcTimeout,
    SiteDown,
    TransactionAborted,
)
from repro.sites.messages import fan_out, guarded_call, retry_policy, site_process
from repro.transactions import Key, Outcome, Transaction
from repro.versioning.vectors import VersionVector


def group_writes_by_unit(system, txn: Transaction) -> Dict[int, Tuple[Key, ...]]:
    """Split the write set into placement-unit branches."""
    groups: Dict[int, List[Key]] = {}
    cache = system._unit_cache
    unit_of = system.unit_of
    for key in txn.write_set:
        try:
            unit = cache[key]
        except KeyError:
            unit = cache[key] = unit_of(key)
        if unit is None:
            raise ValueError(f"write to static replicated table: {key!r}")
        groups.setdefault(unit, []).append(key)
    return {unit: tuple(keys) for unit, keys in groups.items()}


def two_phase_commit(
    system,
    txn: Transaction,
    branches: Dict[int, Tuple[Key, ...]],
    min_begin: Optional[VersionVector] = None,
):
    """Run ``txn`` as a distributed write across unit ``branches``.

    Generator returning the element-wise max of the branch commit
    vectors (the version a session must observe).

    Presumed-abort 2PC. The coordinator's own work runs at the
    coordinator machine (crash-raced under faults); remote branches go
    over guarded RPCs sourced at the coordinator. Any failure before
    the commit decision is durably taken (end of the prepare round)
    terminates by *presumed abort*: every branch that may hold locks
    is aborted, persistently until the abort lands or the branch's
    site is dead (whose lock table died with it), and
    :class:`TransactionAborted` is raised. After the decision, commits
    are delivered persistently; a branch whose participant crashed in
    the uncertainty window is lost — never redone — which is the
    documented price of presumed abort without a coordinator redo log
    (DESIGN.md, Fault model). The prepare and decide rounds are
    :func:`~repro.sites.messages.fan_out` rounds: parallel without an
    injector, sequential under faults (a failed branch must stop
    dispatching later ones).
    """
    env = system.env
    obs = env.obs
    tracer = obs.tracer
    traced = tracer.enabled
    sites = system.sites
    items = sorted(branches.items(), key=lambda item: (-len(item[1]), item[0]))
    placement = system.placement
    coordinator = placement[items[0][0]]
    coordinator_track = f"site{coordinator}" if traced else ""
    coord_site = sites[coordinator]
    policy = retry_policy(system.cluster.faults)

    def _round(name, started):
        # Traced runs only: the round span + ordering edge.
        tracer.span(f"2pc_{name}", started, env.now,
                    track=coordinator_track, txn=txn, branches=len(items))
        tracer.edge("2pc_round", started, txn=txn,
                    track=coordinator_track, round=name, branches=len(items))

    def _coordinate():
        # The coordinator pays per-branch marshalling / vote-collection
        # / decision-logging work on every round.
        return site_process(
            coord_site,
            coord_site.cpu.use(coordinate, txn=txn, track=coordinator_track),
        )

    def _call(site_index, handler):
        return _branch_call(system, txn, coordinator, site_index, handler)

    def _prepare(site_index, keys):
        # Bounded retries: prepare is idempotent. A dead participant
        # fails the round (and the transaction) at once.
        failures = 0
        while True:
            try:
                return (yield from _call(
                    site_index, sites[site_index].prepare_branch(txn, keys)
                ))
            except RpcTimeout:
                failures += 1
                if failures >= policy.attempts:
                    raise
                yield env.timeout(policy.backoff_ms(failures - 1))

    def _commit(site_index, keys, begin_vv):
        # Persistent: the decision is taken. A participant that died
        # in the uncertainty window lost its branch (volatile locks,
        # undecided writes): no vector.
        failures = 0
        while True:
            try:
                return (yield from _call(
                    site_index, sites[site_index].commit_branch(txn, keys, begin_vv)
                ))
            except SiteDown:
                return None
            except RpcTimeout:
                failures += 1
                yield env.timeout(policy.backoff_ms(min(failures - 1, 8)))

    if obs.enabled:
        obs.registry.gauge("2pc_inflight").inc()
        obs.registry.counter("2pc_started").inc()

    # Router -> coordinator dispatch.
    yield from system.client_hop(txn)
    coordinate = system.config.costs.coordinate_ms * len(items)
    #: Branches that may hold locks and need aborting on failure.
    touched: List[Tuple[int, Tuple[Key, ...]]] = []

    try:
        # Round 1: dispatch branch work (locks acquired, operations
        # run). Branches are dispatched in global unit order, each
        # waiting for the previous branch's locks: ordered resource
        # acquisition, the classic discipline that makes distributed
        # deadlock impossible when two multi-unit transactions overlap
        # in opposite directions.
        round_started = env.now
        yield from _coordinate()
        by_unit: Dict[int, VersionVector] = {}
        for unit, keys in sorted(items):
            site_index = placement[unit]
            try:
                begin_vv = yield from _call(
                    site_index, sites[site_index].execute_branch(txn, keys, min_begin)
                )
            except RpcTimeout as exc:
                if exc.dispatched:
                    # The branch may still acquire locks at the live
                    # site; it must be aborted like an executed one.
                    touched.append((site_index, keys))
                raise
            touched.append((site_index, keys))
            by_unit[unit] = begin_vv
        # Re-align begin vectors with the (size-sorted) items order
        # used by the later rounds.
        begin_vvs = [by_unit[unit] for unit, _ in items]
        if traced:
            _round("execute", round_started)

        # Round 2: prepare — participants force-log and vote. Locks held.
        round_started = env.now
        yield from _coordinate()
        yield from fan_out(system.network, [
            _prepare(placement[unit], keys) for unit, keys in items
        ])
        if traced:
            _round("prepare", round_started)
    except FaultError as exc:
        yield from _abort_branches(system, txn, touched, coordinator, policy)
        yield from system.client_hop(txn)
        if obs.enabled:
            obs.registry.gauge("2pc_inflight").dec()
        raise TransactionAborted(exc.reason, f"2pc presumed abort: {exc}")

    # Round 3: commit point — every vote is in and the decision is
    # (modeled as) force-logged; from here it is delivered
    # persistently. The window between the prepare votes and this
    # decision reaching a branch is the 2PC uncertainty window the
    # paper's Figure 1b illustrates.
    round_started = env.now
    try:
        yield from _coordinate()
    except SiteDown:
        # Coordinator crashed after logging the decision; delivery
        # continues below (participants would learn it from the
        # recovered coordinator's log).
        pass
    commit_vvs = yield from fan_out(system.network, [
        _commit(placement[unit], keys, begin_vv)
        for (unit, keys), begin_vv in zip(items, begin_vvs)
    ])
    if traced:
        _round("decide", round_started)

    merged = VersionVector.zeros(len(sites[0].svv))
    for commit_vv in commit_vvs:
        if commit_vv is not None:
            merged.merge(commit_vv)

    # Coordinator -> client reply.
    yield from system.client_hop(txn)
    if obs.enabled:
        obs.registry.gauge("2pc_inflight").dec()
    return merged


def _branch_call(system, txn, coordinator, site_index, handler):
    """One branch call: local branches run at the coordinator (crash-
    raced under faults), remote ones over a guarded RPC sourced there."""
    site = system.sites[site_index]
    if site_index == coordinator:
        return site_process(site, handler)
    return guarded_call(
        system.network, site, handler, src=coordinator, category="2pc", txn=txn
    )


def _abort_branches(system, txn, touched, coordinator, policy):
    """Deliver the presumed-abort decision to every touched branch.

    Persistent per branch: an undelivered abort would leak that
    branch's locks forever and stall every conflicting transaction.
    Terminates because link faults are finite, loss is < 1, and a dead
    site's locks died with it (abort skipped).
    """
    env = system.env
    for site_index, keys in touched:
        failures = 0
        while True:
            site = system.sites[site_index]
            if not site.alive:
                break
            try:
                yield from _branch_call(
                    system, txn, coordinator, site_index, site.abort_branch(txn, keys)
                )
                break
            except SiteDown:
                break
            except RpcTimeout:
                failures += 1
                yield env.timeout(policy.backoff_ms(min(failures - 1, 8)))


def submit_partitioned_write(system, txn: Transaction, session, min_begin):
    """Shared write path of the fixed-mastership systems.

    A write set within one placement unit executes locally at the
    unit's master; anything spanning units goes through 2PC. Generator
    returning an :class:`Outcome`.
    """
    branches = group_writes_by_unit(system, txn)

    if len(branches) == 1:
        unit = next(iter(branches))
        site = system.sites[system.placement[unit]]
        yield from system.client_hop(txn)  # router -> client (site choice)
        # Fixed mastership has no failover: retry the unit's master a
        # bounded number of times, then abort.
        policy = retry_policy(system.cluster.faults)
        for attempt in range(policy.attempts):
            try:
                tvv = yield from guarded_call(
                    system.network,
                    site,
                    site.execute_update(txn, min_begin),
                    category="client",
                    txn=txn,
                )
            except FaultError as exc:
                if attempt + 1 >= policy.attempts:
                    return Outcome(
                        committed=False, retries=attempt, abort_reason=exc.reason
                    )
                yield system.env.timeout(policy.backoff_ms(attempt))
                continue
            session.observe(tvv)
            return Outcome(committed=True, retries=attempt)

    try:
        tvv = yield from two_phase_commit(system, txn, branches, min_begin)
    except TransactionAborted as exc:
        return Outcome(committed=False, distributed=True, abort_reason=exc.reason)
    session.observe(tvv)
    return Outcome(committed=True, distributed=True)
