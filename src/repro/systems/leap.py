"""The LEAP comparator (Lin et al., SIGMOD 2016; paper §VI-A.1).

LEAP guarantees single-site execution like DynaMast but on a
partitioned multi-master store *without* replication: before a
transaction runs, every record in its read and write sets is
*localized* — physically shipped from its current owner to the
execution site, which becomes the new owner. There are no replicas to
absorb reads and no adaptive routing, so hot records ping-pong between
sites and read-only transactions (scans especially) pay large
data-transfer costs — the behaviours the paper measures (§VI-B1/B2).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.faults.errors import FaultError
from repro.partitioning.schemes import PartitionScheme
from repro.sites.messages import fan_out, guarded_call, retry_policy
from repro.storage.locks import LockTable
from repro.systems.base import Cluster, Session, System
from repro.transactions import Key, Outcome, Transaction


class LEAP(System):
    """Single-site execution via record shipping, no replicas."""

    name = "leap"
    replicated = False

    def __init__(self, cluster: Cluster, scheme: PartitionScheme, placement: Dict[int, int]):
        super().__init__(cluster)
        self.scheme = scheme
        self.placement = placement
        cluster.place_partitions(placement)
        #: Memoized key -> partition lookups (pure per run; scan sets
        #: revisit the same key blocks on every transaction).
        self._partitions: Dict[Key, object] = {}
        #: Record-granularity ownership; keys start at their partition's site.
        self._owners: Dict[Key, int] = {}
        #: Router-level locks serializing conflicting localizations.
        self._migration_locks = LockTable(self.env)
        self.localizations = 0
        self.records_shipped = 0

    def owner_of(self, key: Key) -> int:
        """Current owner of ``key`` (static tables read locally anywhere)."""
        owner = self._owners.get(key)
        if owner is not None:
            return owner
        partition = self.scheme.partition(key)
        if partition is None:
            return -1  # static, replicated everywhere
        return self.placement[partition]

    def submit(self, txn: Transaction, session: Session):
        """Localize every record ``txn`` touches, then run it locally.

        LEAP has no routing freedom, so no failover: the execution site
        is fixed by the client and every record must ship from its
        single owner; a crash of either aborts the transaction after
        bounded retries (LEAP's lack of replicas is precisely what the
        paper's availability comparison punishes).
        """
        policy = retry_policy(self.cluster.faults)
        yield from self.client_hop(txn)  # client -> router
        yield from self.router_cpu.use(self.config.costs.route_lookup_ms,
                                       txn=txn, track="router")

        cache = self._partitions
        partition_of = self.scheme.partition
        keys = []
        for key in txn.all_keys():
            try:
                partition = cache[key]
            except KeyError:
                partition = cache[key] = partition_of(key)
            if partition is not None:
                keys.append(key)
        # LEAP has no routing strategies (§VI-B2): a transaction runs at
        # the site its client is connected to, and every record it
        # touches is localized there first. This is what makes LEAP
        # "continually transfer data between sites" when clients at
        # different sites share data.
        execution_site = txn.client_id % self.cluster.num_sites

        shipped = False
        retries = 0
        # Inlined owner_of: every key here is non-static, so the owner
        # is the migrated owner if any, else its partition's home site.
        owners = self._owners
        placement = self.placement
        remote_keys = []
        for key in keys:
            owner = owners.get(key)
            if owner is None:
                owner = placement[cache[key]]
            if owner != execution_site:
                remote_keys.append(key)
        if remote_keys:
            # Serialize conflicting migrations of the same records.
            yield from self._migration_locks.acquire_all(remote_keys)
            try:
                # Re-resolve under the locks: a concurrent transaction
                # may have localized some of these keys meanwhile.
                transfers: Dict[int, List[Key]] = {}
                for key in remote_keys:
                    owner = self.owner_of(key)
                    if owner != execution_site:
                        transfers.setdefault(owner, []).append(key)
                if transfers:
                    shipped = True
                    self.localizations += 1

                    def landed(outcome):
                        # A shipped group is owned by the execution site
                        # once it lands; unshipped groups stay put, so
                        # an abort mid-localization leaves no half-moved
                        # group.
                        nonlocal retries
                        group, failures = outcome
                        retries += failures
                        for key in group:
                            owners[key] = execution_site
                        self.records_shipped += len(group)

                    try:
                        yield from fan_out(self.network, [
                            self._localize(source, tuple(group), execution_site,
                                           txn, policy)
                            for source, group in sorted(transfers.items())
                        ], landed)
                    except FaultError as exc:
                        # The failed group burned every attempt.
                        return Outcome(
                            committed=False,
                            remastered=shipped,
                            retries=retries + policy.attempts,
                            abort_reason=exc.reason,
                        )
            finally:
                self._migration_locks.release_all(remote_keys)

        yield from self.client_hop(txn)  # router -> client
        site = self.sites[execution_site]
        for attempt in range(policy.attempts):
            handler = (
                site.execute_read(txn) if txn.is_read_only else site.execute_update(txn)
            )
            try:
                yield from guarded_call(
                    self.network, site, handler, category="client", txn=txn
                )
                break
            except FaultError as exc:
                retries += 1
                if attempt + 1 >= policy.attempts:
                    return Outcome(
                        committed=False,
                        remastered=shipped,
                        retries=retries,
                        abort_reason=exc.reason,
                    )
                yield self.env.timeout(policy.backoff_ms(attempt))
        return Outcome(committed=True, remastered=shipped, retries=retries)

    def _localize(self, source: int, group: Tuple[Key, ...], destination: int,
                  txn: Transaction, policy):
        """Ship ``group`` from ``source`` to ``destination``, with retries.

        Returns ``(group, failed attempts)``; once the policy gives up,
        raises the last fault.
        """
        network = self.network
        failures = 0
        while True:
            try:
                payload = yield from guarded_call(
                    network,
                    self.sites[source],
                    self.sites[source].ship_out(group),
                    category="ship",
                    txn=txn,
                )
                # The data transfer to the execution site, then installation.
                delay = network.delay_for(payload)
                network.traffic.record("ship", payload)
                shipped = self.env._now
                yield self.env.timeout(delay)
                self.obs.tracer.phase(txn, "network", shipped, self.env._now,
                                      "net", category="ship")
                install = self.sites[destination].install_shipment(group)
                if network.faults is None:
                    yield from install
                else:
                    # FAULTED_FINGERPRINTS['leap']: under faults the
                    # install is a guarded RPC, so a dead execution site
                    # fails the localization instead of absorbing it.
                    yield from guarded_call(
                        network, self.sites[destination], install,
                        category="ship", txn=txn,
                    )
                return group, failures
            except FaultError:
                failures += 1
                if failures >= policy.attempts:
                    raise
                yield self.env.timeout(policy.backoff_ms(failures - 1))

