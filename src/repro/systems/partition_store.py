"""The partition-store comparator (paper §VI-A.1).

A partitioned multi-master database *without* replication: each site
holds only the partitions it masters (plus static read-only tables,
which are replicated). Distributed writes use 2PC. Multi-partition
read-only transactions must scatter-gather across owner sites and are
subject to the straggler effect — the slowest site's response time
determines their latency (§VI-B2).
"""

from __future__ import annotations

from typing import Dict, List

from repro.faults.errors import FaultError
from repro.partitioning.schemes import PartitionScheme
from repro.sites.messages import fan_out, guarded_call, retry_policy
from repro.systems.base import Cluster, Session, System
from repro.systems.two_phase_commit import submit_partitioned_write
from repro.transactions import Key, Outcome, Transaction


class PartitionStore(System):
    """Partitioned, unreplicated, 2PC writes, scatter-gather reads."""

    name = "partition-store"
    replicated = False

    def __init__(
        self,
        cluster: Cluster,
        scheme: PartitionScheme,
        placement: Dict[int, int],
        unit_of=None,
    ):
        super().__init__(cluster)
        self.scheme = scheme
        self.placement = placement
        #: Coordination granule (see Workload.placement_unit_of).
        self.unit_of = unit_of or scheme.partition
        #: Memoized key -> unit lookups. ``unit_of`` is a pure function
        #: of the key for the lifetime of a run, and scan sets revisit
        #: the same key blocks constantly, so the read fan-out grouping
        #: resolves units with one dict probe instead of three frames.
        self._unit_cache: Dict[Key, object] = {}
        cluster.place_partitions(placement)
        #: Multi-unit read-only transactions executed (straggler stat).
        self.scatter_gather_reads = 0

    def submit(self, txn: Transaction, session: Session):
        yield from self.client_hop(txn)  # client -> router
        yield from self.router_cpu.use(self.config.costs.route_lookup_ms,
                                       txn=txn, track="router")

        if txn.is_read_only:
            outcome = yield from self._submit_read(txn)
            return outcome
        outcome = yield from submit_partitioned_write(
            self, txn, session, min_begin=None
        )
        return outcome

    def _submit_read(self, txn: Transaction):
        """Route reads to owning units; fan out if they span units."""
        # Group point reads and scanned keys by placement unit. Static-
        # table keys join the first dynamic unit's sub-read.
        reads: Dict[int, List[Key]] = {}
        scans: Dict[int, List[Key]] = {}
        static: List[Key] = []
        cache = self._unit_cache
        unit_of = self.unit_of
        for source, bucket in ((txn.read_set, reads), (txn.scan_set, scans)):
            for key in source:
                try:
                    unit = cache[key]
                except KeyError:
                    unit = cache[key] = unit_of(key)
                if unit is None:
                    static.append(key)
                else:
                    keys = bucket.get(unit)
                    if keys is None:
                        keys = bucket[unit] = []
                    keys.append(key)
        units = sorted(set(reads) | set(scans))
        if units:
            reads.setdefault(units[0], []).extend(static)
        elif static:
            reads[0] = static
            units = [0]

        yield from self.client_hop(txn)  # router -> client
        # There is no owner to fail over to: each sub-read retries at
        # its unit's only copy a bounded number of times, then aborts.
        policy = retry_policy(self.cluster.faults)
        retries = 0

        def sub_read(site_index, keys=None, scans=None):
            nonlocal retries
            site = self.sites[site_index]
            for attempt in range(policy.attempts):
                handler = site.execute_read(txn, keys=keys, scans=scans)
                try:
                    return (yield from guarded_call(
                        self.network, site, handler, category="client", txn=txn,
                    ))
                except FaultError:
                    retries += 1
                    if attempt + 1 >= policy.attempts:
                        raise
                    yield self.env.timeout(policy.backoff_ms(attempt))

        distributed = len(units) > 1
        try:
            if not distributed:
                yield from sub_read(self.placement.get(units[0] if units else 0, 0))
            else:
                # Scatter-gather: one sub-read per unit, wait for the
                # slowest (the straggler effect of §VI-B2).
                self.scatter_gather_reads += 1
                yield from fan_out(self.network, [
                    sub_read(
                        self.placement[unit],
                        tuple(reads.get(unit, ())),
                        tuple(scans.get(unit, ())),
                    )
                    for unit in units
                ])
        except FaultError as exc:
            return Outcome(
                committed=False,
                distributed=distributed,
                retries=retries,
                abort_reason=exc.reason,
            )
        return Outcome(committed=True, distributed=distributed, retries=retries)
