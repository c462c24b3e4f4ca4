"""Cluster assembly and the common system interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.sim.config import ClusterConfig
from repro.sim.core import Environment
from repro.sim.network import Network
from repro.sim.rand import RandomStreams
from repro.sim.resources import Resource
from repro.sites.activity import PartitionActivity
from repro.sites.data_site import DataSite
from repro.transactions import Key, Transaction
from repro.versioning.vectors import VersionVector


class Cluster:
    """A set of simulated data sites sharing a network and a clock.

    With ``replicated=True`` (default) every site lazily maintains a
    full replica via the durable logs; with ``replicated=False`` the
    sites are partition stores holding only their own master copies
    (used by the partition-store and LEAP comparators).
    """

    def __init__(self, config: Optional[ClusterConfig] = None, replicated: bool = True,
                 obs=None):
        self.config = config or ClusterConfig()
        self.replicated = replicated
        self.env = Environment(obs=obs)
        #: The observability handle (``NULL_OBS`` unless observed).
        self.obs = self.env.obs
        self.streams = RandomStreams(self.config.seed)
        self.network = Network(
            self.env, self.config.network, rng=self.streams.stream("network")
        )
        self.activity = PartitionActivity(self.env)
        #: The installed fault injector, or None. Routers consult this
        #: for suspicion state; None means nothing can fail.
        self.faults = None
        self.sites: List[DataSite] = [
            DataSite(
                self.env,
                index,
                self.config.num_sites,
                self.config,
                self.network,
                self.activity,
                replicated=replicated,
            )
            for index in range(self.config.num_sites)
        ]
        for site in self.sites:
            site.connect(self.sites)

    @property
    def num_sites(self) -> int:
        return self.config.num_sites

    def place_partitions(self, placement: Dict[int, int]) -> None:
        """Assign initial mastership: partition id -> site index."""
        for site in self.sites:
            site.mastered.clear()
        for partition, site_index in placement.items():
            self.sites[site_index].mastered.add(partition)

    def load(
        self,
        records: Iterable[Tuple[Key, object]],
        owner_of: Optional[Callable[[Key], int]] = None,
    ) -> None:
        """Bulk-load initial data.

        In a replicated cluster every site receives every record; in a
        partitioned cluster each record is loaded only at its owner
        (``owner_of`` maps a key to a site index and is then required).
        """
        if self.replicated:
            for key, value in records:
                for site in self.sites:
                    site.database.load(key, value)
            return
        if owner_of is None:
            raise ValueError("owner_of is required when loading a partitioned cluster")
        for key, value in records:
            self.sites[owner_of(key)].database.load(key, value)

    def run(self, until: float) -> None:
        """Advance the simulation to time ``until`` (milliseconds)."""
        self.env.run(until=until)


@dataclass
class Session:
    """One client's session state for strong-session SI."""

    client_id: int
    cvv: VersionVector

    def observe(self, version: VersionVector) -> None:
        """Fold a transaction's observed/created version into the session."""
        self.cvv.merge(version)


class System(ABC):
    """Common interface of the five evaluated architectures."""

    #: Short name used in reports.
    name: str = "abstract"
    #: Whether this architecture maintains replicas at every site.
    replicated: bool = True

    def __init__(self, cluster: Cluster):
        if cluster.replicated != self.replicated:
            raise ValueError(
                f"{self.name} requires a cluster with replicated={self.replicated}"
            )
        self.cluster = cluster
        self.env = cluster.env
        self.obs = cluster.obs
        self.network = cluster.network
        self.config = cluster.config
        self.sites = cluster.sites
        self.streams = cluster.streams
        #: Router/front-end machine for the comparator systems (DynaMast
        #: uses its site selector's CPU instead).
        self.router_cpu = Resource(self.env, self.config.selector_cores)

    def new_session(self, client_id: int) -> Session:
        return Session(client_id, VersionVector.zeros(self.cluster.num_sites))

    @abstractmethod
    def submit(self, txn: Transaction, session: Session) -> Generator:
        """Process one transaction; a generator returning an :class:`Outcome`."""

    # -- shared helpers ------------------------------------------------------

    def client_hop(self, txn: Transaction, size: int = 128) -> Generator:
        """One client-to-system network traversal, accounted to the txn."""
        env = self.env
        delay = self.network.delay_for(size)
        self.network.account("client", size)
        started = env._now
        yield env.timeout(delay)
        self.obs.tracer.phase(txn, "network", started, env._now, "net",
                              category="client")


def choose_fresh_site(cluster: Cluster, session: Session, rng) -> int:
    """Read routing (paper §IV-B): a random session-fresh site.

    Among sites whose version vector dominates the client's session
    vector, pick uniformly at random — minimizing blocking while
    spreading read load. If no site is fresh enough yet, pick the site
    with the smallest lag; the read then blocks briefly at that site.

    Under fault injection, crashed and suspected sites are routed
    around first (falling back to merely-alive sites if suspicion
    covers everything).
    """
    sites = cluster.sites
    faults = cluster.faults
    if faults is not None:
        detector = faults.detector
        candidates = [
            site for site in sites
            if site.alive and not detector.is_suspected(site.index)
        ]
        if not candidates:
            candidates = [site for site in sites if site.alive]
        sites = candidates or sites
    cvv = session.cvv
    fresh = [site.index for site in sites if site.svv.dominates(cvv)]
    if fresh:
        return fresh[rng.randrange(len(fresh))]
    return min(sites, key=lambda site: site.svv.lag_behind(cvv)).index
