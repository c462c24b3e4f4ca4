"""The site selector: routing and the remastering protocol (§III-B, §V-B).

Write routing: look up the master of every write-set partition under
shared partition locks; if one site masters them all, route there.
Otherwise upgrade to exclusive locks, pick a destination with the
:class:`~repro.core.strategy.RemasterStrategy`, and run Algorithm 1 —
``release``/``grant`` chains per source site — before routing. The
transaction's minimum begin version is the element-wise max of the
grant vectors.

Read routing (§IV-B): a uniformly random site satisfying the client's
session freshness.

The protocol is written once and is survivable: masters are
health-checked before routing (an unhealthy master is one more reason
to remaster), release RPCs to a *crashed* master are replaced by
fencing the dead producer's durable log directly (a forced release
marker), grants persistently retry and fail over to a live site, and a
suspected-but-alive master aborts the transaction with a timeout rather
than risking a split mastership. Without an installed injector none of
that can trigger, and the body is the fault-free protocol event for
event. The one place the two modes run different algorithms is the
remastering round itself (:meth:`SiteSelector._remaster` vs
:meth:`SiteSelector._remaster_faulted`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.partitions import PartitionTable
from repro.core.statistics import AccessStatistics, StatisticsConfig
from repro.core.strategy import RemasterStrategy, StrategyWeights
from repro.obs.mastery import NULL_LEDGER
from repro.faults.errors import (
    REASON_SITE_CRASH,
    REASON_TIMEOUT,
    FaultError,
    RpcTimeout,
    SiteDown,
    TransactionAborted,
)
from repro.partitioning.schemes import PartitionScheme
from repro.replication.log import RELEASE, LogRecord
from repro.sim.resources import Resource
from repro.sites.messages import guarded_call, retry_policy
from repro.systems.base import Cluster, Session, choose_fresh_site
from repro.transactions import Transaction
from repro.versioning.vectors import VersionVector


@dataclass(slots=True)
class RouteResult:
    """The site selector's answer for an update transaction."""

    site: int
    #: Minimum version the transaction must observe at the execution
    #: site (None when no remastering was needed).
    min_vv: Optional[VersionVector]
    partitions: Tuple[int, ...]
    remastered: bool
    partitions_moved: int = 0
    #: Activity-registration token; passing it to ``execute_update`` /
    #: ``activity.finish`` makes in-flight deregistration idempotent
    #: across RPC retries and crashes.
    token: Optional[tuple] = None


class SiteSelector:
    """Routes transactions and drives remastering for one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        scheme: PartitionScheme,
        placement: Dict[int, int],
        weights: Optional[StrategyWeights] = None,
        stats_config: Optional[StatisticsConfig] = None,
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.config = cluster.config
        self.network = cluster.network
        self.scheme = scheme
        self.cpu = Resource(self.env, self.config.selector_cores)
        self.table = PartitionTable(self.env, placement)
        self.statistics = AccessStatistics(
            stats_config, rng=cluster.streams.stream("selector-sampling")
        )
        self.strategy = RemasterStrategy(
            weights or StrategyWeights(),
            self.statistics,
            self.table,
            cluster.num_sites,
            rng=cluster.streams.stream("strategy-tiebreak"),
        )
        self._read_rng = cluster.streams.stream("read-routing")
        # Counters for the paper's overhead analysis (§VI-B6/B7).
        self.updates_routed = 0
        self.reads_routed = 0
        self.updates_remastered = 0
        self.remaster_operations = 0
        self.partitions_moved = 0
        self.route_counts: List[int] = [0] * cluster.num_sites
        #: Monotonic counter making activity tokens unique per routing.
        self._route_seq = 0
        #: Decision ledger (mastering observatory, DESIGN.md §6.6).
        #: NULL_LEDGER by default; every hook below sits behind an
        #: ``enabled`` check, like the tracer, so unobserved runs pay
        #: one attribute load per routing.
        self.ledger = NULL_LEDGER

    def attach_ledger(self, ledger) -> None:
        """Install a :class:`~repro.obs.mastery.DecisionLedger`.

        Snapshots the current partition -> master placement so the
        ledger can reconstruct the full mastership timeline. The ledger
        is passive — it records already-computed values and never
        interacts with the simulation — so an observed run's simulated
        outcome is bit-identical to an unobserved one.
        """
        self.ledger = ledger
        if ledger.enabled:
            ledger.record_placement(self.table.snapshot(), self.env._now)

    # -- write routing (Algorithm 1 driver) ------------------------------------

    def route_update(self, txn: Transaction, session: Optional[Session] = None):
        """Decide (and if needed remaster) where ``txn`` executes.

        Generator returning a :class:`RouteResult`. On return, the
        transaction is registered as in-flight on its partitions at the
        chosen site, so a subsequent release will wait for it.

        A write set with one healthy master routes there under shared
        partition locks. A distributed write set — or, under fault
        injection, a crashed or suspected master — upgrades to
        exclusive locks and remasters onto one site. Raises
        :class:`TransactionAborted` when failure handling cannot route
        the transaction; partition locks are always released.
        """
        env = self.env
        tracer = env.obs.tracer
        traced = tracer.enabled
        token = (txn.txn_id, self._route_seq)
        self._route_seq += 1
        route_started = env._now
        partitions = sorted(self.scheme.partitions_of(txn.write_set))
        yield from self.cpu.use(self.config.costs.route_lookup_ms,
                                txn=txn, track="selector")
        for partition in partitions:
            yield self.table.info(partition).lock.acquire_read()
        txn.add_timing("selector_lock", env._now - route_started)
        if traced:
            tracer.span("selector_lock", route_started, env._now,
                        track="selector", txn=txn)
        self.statistics.observe(env._now, txn.client_id, partitions)

        masters = self.table.masters_of(partitions)
        if len(masters) <= 1:
            site = masters.pop() if masters else 0
            if self._healthy(site):
                self._register(site, partitions, token, shared=True)
                return self._routed(txn, route_started, site, None, partitions, 0, token)

        # Distributed or unhealthy masters: upgrade to exclusive locks.
        decision_started = env._now
        for partition in partitions:
            self.table.info(partition).lock.release_read()
        for partition in partitions:
            yield self.table.info(partition).lock.acquire_write()
        masters = self.table.masters_of(partitions)
        if len(masters) == 1:
            site = next(iter(masters))
            if self._healthy(site):
                # A concurrent remastering co-located the write set for
                # us (clients benefit from remastering initiated by
                # clients with common write sets, §III-B).
                self._routing_done(txn, decision_started)
                self._register(site, partitions, token)
                return self._routed(txn, route_started, site, None, partitions, 0, token)

        yield from self.cpu.use(self.config.costs.remaster_decision_ms,
                                txn=txn, track="selector")
        if self.cluster.faults is None:
            # UNFAULTED_FINGERPRINTS: one parallel round, stationary
            # partitions downgraded to shared locks.
            remastering = self._remaster(partitions, txn, session)
        else:
            # FAULTED_FINGERPRINTS: sequential rounds until one healthy
            # site masters the whole write set.
            remastering = self._remaster_faulted(partitions, txn, session)
        destination, min_vv, moved, operations, exclusive = yield from remastering
        if operations:
            self.remaster_operations += operations
            self.partitions_moved += moved
            self.updates_remastered += 1
            self._routing_done(txn, decision_started, remastered=True)
            if traced:
                tracer.instant(
                    "remaster", env._now, track="selector", txn=txn,
                    destination=destination, partitions_moved=moved,
                    operations=operations,
                )
        else:
            self._routing_done(txn, decision_started)
        self._register(destination, partitions, token, exclusive=exclusive)
        return self._routed(txn, route_started, destination,
                            min_vv if operations else None, partitions, moved, token)

    def _routing_done(self, txn: Transaction, decision_started: float,
                      **span_args) -> None:
        """Charge the exclusive-lock decision phase to ``routing``."""
        env = self.env
        txn.add_timing("routing", env._now - decision_started)
        tracer = env.obs.tracer
        if tracer.enabled:
            tracer.span("routing", decision_started, env._now,
                        track="selector", txn=txn, **span_args)

    def _routed(self, txn, route_started, site, min_vv, partitions, moved, token):
        """Close out one routing: trace and ledger it, build the result."""
        env = self.env
        tracer = env.obs.tracer
        if tracer.enabled:
            tracer.span("route", route_started, env._now,
                        track="selector", txn=txn, site=site)
        if self.ledger.enabled:
            self.ledger.route(env._now, site, moved)
        return RouteResult(site, min_vv, tuple(partitions), moved > 0, moved, token)

    def _register(
        self,
        site: int,
        partitions: Sequence[int],
        token: tuple,
        shared: bool = False,
        exclusive: Optional[set] = None,
    ) -> None:
        """Register the routed txn in-flight, then drop partition locks.

        ``shared=True`` releases read holds on everything; otherwise
        partitions in ``exclusive`` release write holds and the rest
        release read holds (the downgraded stationary partitions of a
        remastering); ``exclusive=None`` means every partition.
        """
        self.cluster.activity.begin(site, partitions, token)
        for partition in partitions:
            info = self.table.info(partition)
            if shared:
                info.lock.release_read()
            elif exclusive is None or partition in exclusive:
                info.lock.release_write()
            else:
                info.lock.release_read()
        self.updates_routed += 1
        self.route_counts[site] += 1

    def _healthy(self, site: int) -> bool:
        """Alive and unsuspected (always, without an injector)."""
        faults = self.cluster.faults
        return self.cluster.sites[site].alive and (
            faults is None or not faults.detector.is_suspected(site)
        )

    def _remaster(self, partitions: Sequence[int], txn: Transaction,
                  session: Optional[Session]):
        """Algorithm 1 in one round: every move runs in parallel.

        Keeps exclusive locks only on the partitions actually moving;
        the rest downgrade to shared so that unrelated transactions on
        those (typically hot, stationary) partitions keep routing while
        the release/grant protocol runs. Returns ``(destination,
        min_vv, partitions moved, operations, exclusive partitions)``.
        """
        env = self.env
        decision, excluded, health = self._choose_destination(partitions, session)
        destination = decision.site
        moves = [
            (source, tuple(group))
            for source, group in self.table.group_by_master(partitions).items()
            if source != destination
        ]
        decision_seq = self._record_decision(txn, partitions, decision, moves,
                                             excluded, health)
        moving = {partition for _, group in moves for partition in group}
        for partition in partitions:
            if partition not in moving:
                self.table.info(partition).lock.downgrade()
        grants = yield env.all_of([
            env.process(self._move(source, group, destination, txn))
            for source, group in moves
        ])
        min_vv = VersionVector.zeros(self.cluster.num_sites)
        for (source, group), (target, grant_vv) in zip(moves, grants):
            min_vv.merge(grant_vv)
            self._transfer(group, source, target, decision_seq)
        return destination, min_vv, len(moving), len(moves), moving

    def _record_decision(self, txn, partitions, decision, moves, excluded, health):
        """Ledger one strategy decision; its sequence id (None unobserved)."""
        if not self.ledger.enabled:
            return None
        return self.ledger.decision(
            self.env._now, txn, partitions, decision, self.strategy.weights,
            moves, excluded=excluded, health=health,
        )

    def _transfer(self, group, source: int, target: int, decision_seq) -> None:
        """Commit a landed move to the partition table (and the ledger).

        ``target`` is where mastership actually landed — a grant can
        fail over to a live site other than the decision's choice.
        """
        for partition in group:
            self.table.set_master(partition, target)
            if self.ledger.enabled:
                self.ledger.ownership(self.env._now, partition, source,
                                      target, decision_seq)

    def _remaster_faulted(
        self, partitions: Sequence[int], txn: Transaction, session: Optional[Session]
    ):
        """Drive release/grant rounds until one healthy site masters all.

        Each round re-reads the partition table (a destination crash
        mid-round scatters groups across fallback grant targets, so a
        single pass is not enough), excludes crashed and suspected
        sites from the strategy's candidates, and moves every foreign
        group sequentially. Bounded by one round per site plus one:
        a plan may now crash a site repeatedly (non-overlapping
        windows), so rather than relying on fresh-crash counting the
        loop simply gives up past the bound and aborts the transaction
        cleanly with ``remastering did not converge``. The write set
        stays exclusively locked throughout (a move can cascade if the
        chosen destination dies mid-protocol, and the simpler lock
        discipline keeps that re-entrant); on abort those locks are
        dropped before the error propagates. Returns the same tuple as
        :meth:`_remaster`.
        """
        min_vv = VersionVector.zeros(self.cluster.num_sites)
        moved = 0
        operations = 0
        try:
            for _round in range(self.cluster.num_sites + 1):
                groups = self.table.group_by_master(partitions)
                if len(groups) == 1:
                    only = next(iter(groups))
                    if self._healthy(only):
                        return only, min_vv, moved, operations, None
                decision, excluded, health = self._choose_destination(
                    partitions, session
                )
                destination = decision.site
                moves = [
                    (source, tuple(group))
                    for source, group in sorted(groups.items())
                    if source != destination
                ]
                if not moves:
                    return destination, min_vv, moved, operations, None
                decision_seq = self._record_decision(txn, partitions, decision,
                                                     moves, excluded, health)
                for source, group in moves:
                    target, grant_vv = yield from self._move(
                        source, group, destination, txn
                    )
                    min_vv.merge(grant_vv)
                    self._transfer(group, source, target, decision_seq)
                    operations += 1
                    moved += len(group)
            reason = (
                REASON_SITE_CRASH if self.cluster.faults.any_crashed else REASON_TIMEOUT
            )
            raise TransactionAborted(
                reason, f"remastering of {tuple(partitions)} did not converge"
            )
        except FaultError:
            for partition in partitions:
                self.table.info(partition).lock.release_write()
            raise

    def _choose_destination(
        self, partitions: Sequence[int], session: Optional[Session]
    ):
        """Strategy choice restricted to live (and ideally unsuspected) sites.

        Returns ``(decision, excluded, health)`` — the full
        :class:`~repro.core.strategy.StrategyDecision`, the candidate
        sites failure handling removed, and the per-site health
        evidence the decision saw (empty when health-aware remastering
        is off), all recorded by the decision ledger when one is
        attached. Without an injector nothing is excluded.

        Health-aware remastering: with a nonzero ``weights.health``,
        the detector's graded health scores enter the benefit as a
        soft penalty — a degrading-but-unsuspected site loses the
        decision to a clean site unless its locality/balance advantage
        outweighs the sickness. Exclusion stays the hard backstop for
        dead and fully-suspected sites.
        """
        faults = self.cluster.faults
        sites = self.cluster.sites
        exclude: set = set()
        health: Tuple[float, ...] = ()
        if faults is not None:
            detector = faults.detector
            dead = {site.index for site in sites if not site.alive}
            suspected = {
                index
                for index in range(self.cluster.num_sites)
                if detector.is_suspected(index)
            }
            exclude = dead | suspected
            if len(exclude) >= self.cluster.num_sites:
                exclude = dead
            if self.strategy.weights.health:
                health = tuple(
                    detector.health(index) if sites[index].alive else 0.0
                    for index in range(self.cluster.num_sites)
                )
        decision = self.strategy.decide(
            partitions,
            [site.svv for site in sites],
            session.cvv if session is not None else None,
            exclude=exclude,
            health=health or None,
        )
        return decision, exclude, health

    def _move(self, source: int, partitions: Tuple[int, ...], destination: int,
              txn: Transaction):
        """One release -> grant chain of Algorithm 1 (lines 7-8).

        Returns ``(actual target, grant vector)``. ``txn`` is the
        remastering-triggering transaction, used to attribute the
        release/grant spans in a trace.

        Survivable under faults. Release: a *crashed* source is fenced
        through its durable log (:meth:`_force_release` — the log
        service refuses appends from a dead producer, so writing the
        marker on its behalf is safe); a live source gets a guarded RPC
        with bounded retries — a suspected-but-alive master times the
        transaction out instead of risking two masters. Grant: must
        land somewhere once the release marker exists, or the
        partitions stay orphaned — so it retries persistently, failing
        over to another live site if the chosen target dies.
        """
        env = self.env
        sites = self.cluster.sites
        policy = retry_policy(self.cluster.faults)
        timeout_ms = self.config.rpc.remaster_timeout_ms
        tracer = env.obs.tracer
        release_started = env._now

        release_vv = None
        failures = 0
        while release_vv is None:
            if not sites[source].alive:
                release_vv = self._force_release(source, partitions)
                break
            try:
                release_vv = yield from guarded_call(
                    self.network,
                    sites[source],
                    sites[source].release_mastership(partitions),
                    category="remaster",
                    timeout_ms=timeout_ms,
                )
            except SiteDown:
                continue  # re-checks liveness -> forced release
            except RpcTimeout:
                failures += 1
                if failures >= policy.attempts:
                    raise TransactionAborted(
                        REASON_TIMEOUT,
                        f"release of {partitions} at site {source} timed out",
                    )
                yield env.timeout(policy.backoff_ms(failures - 1))
        if tracer.enabled:
            tracer.span("release", release_started, env._now,
                        track=f"site{source}", txn=txn,
                        partitions=len(partitions))

        failures = 0
        target = destination
        while True:
            if not sites[target].alive:
                target = self._alive_target()
            grant_started = env._now
            try:
                grant_vv = yield from guarded_call(
                    self.network,
                    sites[target],
                    sites[target].grant_mastership(
                        partitions, release_vv, source=source
                    ),
                    category="remaster",
                    timeout_ms=timeout_ms,
                )
            except SiteDown:
                continue  # re-picks a live target
            except RpcTimeout:
                # The grant may or may not have applied; re-granting is
                # idempotent (a duplicate marker replays harmlessly and
                # the returned vector still covers the release point).
                failures += 1
                yield env.timeout(policy.backoff_ms(min(failures - 1, 8)))
                continue
            if tracer.enabled:
                tracer.span("grant", grant_started, env._now,
                            track=f"site{target}", txn=txn,
                            partitions=len(partitions), source=source)
                tracer.edge("remaster", release_started, txn=txn,
                            track="selector", source=source,
                            destination=target,
                            partitions=len(partitions),
                            waited=env._now - release_started)
            return target, grant_vv

    def _alive_target(self) -> int:
        """Lowest-indexed live unsuspected site (live site as fallback)."""
        faults = self.cluster.faults
        candidates = [
            site.index
            for site in self.cluster.sites
            if site.alive and not faults.detector.is_suspected(site.index)
        ]
        if not candidates:
            candidates = [site.index for site in self.cluster.sites if site.alive]
        if not candidates:
            raise TransactionAborted(
                REASON_SITE_CRASH, "no live site to grant mastership to"
            )
        return candidates[0]

    def _force_release(self, source: int, partitions: Tuple[int, ...]):
        """Fence a dead master by appending its release marker directly.

        The durable log outlives its site (it is the Kafka substitute);
        appending the marker on the dead producer's behalf is exactly
        the failover the log service's fencing makes safe — the crashed
        site cannot concurrently append, and on restart it replays this
        marker like everyone else and comes back without the partitions.
        Atomic (no yields), so no competing routing can interleave.
        """
        log = self.cluster.sites[source].log
        seq = len(log.records) + 1
        marker_tvv = tuple(
            seq if index == source else 0 for index in range(self.cluster.num_sites)
        )
        log.append(
            LogRecord(RELEASE, source, marker_tvv, partitions=tuple(partitions))
        )
        release_vv = VersionVector.zeros(self.cluster.num_sites)
        release_vv[source] = seq
        return release_vv

    # -- read routing (§IV-B) --------------------------------------------------------

    def route_read(self, txn: Transaction, session: Session):
        """Pick a session-fresh site for a read-only transaction
        (:func:`~repro.systems.base.choose_fresh_site`)."""
        route_started = self.env._now
        yield from self.cpu.use(self.config.costs.route_lookup_ms,
                                txn=txn, track="selector")
        choice = choose_fresh_site(self.cluster, session, self._read_rng)
        self.reads_routed += 1
        tracer = self.env.obs.tracer
        if tracer.enabled:
            tracer.span(
                "route", route_started, self.env._now,
                track="selector", txn=txn, site=choice,
            )
        return choice

    # -- introspection -------------------------------------------------------------------

    def remaster_rate(self) -> float:
        """Fraction of routed update transactions that required remastering."""
        if self.updates_routed == 0:
            return 0.0
        return self.updates_remastered / self.updates_routed

    def route_fractions(self) -> List[float]:
        """Fraction of update requests routed to each site (Fig. 5a)."""
        total = sum(self.route_counts)
        if total == 0:
            return [0.0] * len(self.route_counts)
        return [count / total for count in self.route_counts]
