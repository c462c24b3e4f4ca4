"""The fault-aware RPC primitives reduce to the plain simulation.

Every protocol body is written once against ``site_process``,
``guarded_call``, ``retry_policy`` and ``fan_out``; these tests pin
that without an injector each primitive adds no event, no RNG draw and
no timing of its own.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, SiteDown
from repro.sim.config import ClusterConfig
from repro.sites.messages import (
    NO_RETRY,
    fan_out,
    guarded_call,
    retry_policy,
    site_process,
)
from repro.systems.base import Cluster
from repro.transactions import Transaction


def _site_work_trace(wrapped: bool):
    """Contended site work with same-time bystanders; the kernel trace.

    Returns the ``(time, label)`` log plus the number of events the
    kernel scheduled, so an extra process or condition event shows up
    even where it would not reorder the log.
    """
    cluster = Cluster(ClusterConfig(num_sites=2, cores_per_site=1))
    env = cluster.env
    site = cluster.sites[0]
    trace = []

    def log(label):
        trace.append((round(env.now, 9), label))

    def handler(name, hold):
        yield from site.cpu.use(hold)
        log(f"handled:{name}")
        return name

    def caller(name, hold):
        work = handler(name, hold)
        if wrapped:
            value = yield from site_process(site, work)
        else:
            value = yield from work
        log(f"returned:{value}")

    def bystander(name, at):
        yield env.timeout(at)
        log(f"bystander:{name}")

    for index, hold in enumerate((1.0, 1.0, 0.5, 2.0, 0.5)):
        env.process(caller(f"c{index}", hold))
    for index, at in enumerate((0.5, 1.0, 2.0, 2.5, 4.5)):
        env.process(bystander(f"b{index}", at))
    env.run()
    return trace, env._eid


class TestSiteProcess:
    def test_without_injector_is_yield_from(self):
        assert _site_work_trace(wrapped=True) == _site_work_trace(wrapped=False)

    def test_with_injector_crash_interrupts(self):
        cluster = Cluster(ClusterConfig(num_sites=2))
        FaultInjector(cluster, FaultPlan(), cluster.streams.stream("faults")).install()
        env = cluster.env
        site = cluster.sites[1]
        seen = []

        def work():
            yield env.timeout(5.0)
            return "done"

        def caller():
            try:
                yield from site_process(site, work())
            except SiteDown as exc:
                seen.append((env.now, exc.site))

        def crasher():
            yield env.timeout(2.0)
            site.crash()

        env.process(caller())
        env.process(crasher())
        env.run()
        assert seen == [(2.0, 1)]


class TestRetryPolicy:
    def test_no_injector_gets_single_attempt_constant(self):
        assert retry_policy(None) is NO_RETRY
        assert NO_RETRY.attempts == 1
        assert NO_RETRY.rpc.hedged_reads is False

    def test_injector_policy_uses_run_settings(self):
        cluster = Cluster(ClusterConfig(num_sites=2))
        injector = FaultInjector(cluster, FaultPlan(), cluster.streams.stream("faults"))
        policy = retry_policy(injector)
        assert policy.attempts == cluster.config.rpc.max_retries + 1
        assert 0.5 <= policy.backoff_ms(0) <= 1.5


class TestFanOut:
    def _round(self, faulted: bool):
        cluster = Cluster(ClusterConfig(num_sites=2))
        if faulted:
            FaultInjector(
                cluster, FaultPlan(), cluster.streams.stream("faults")
            ).install()
        env = cluster.env
        landed = []

        def leg(name, hold):
            yield env.timeout(hold)
            return name

        def run():
            results = yield from fan_out(
                cluster.network,
                [leg("a", 3.0), leg("b", 1.0), leg("c", 2.0)],
                lambda result: landed.append((env.now, result)),
            )
            return env.now, results

        finished = env.run_until_complete(env.process(run()))
        return finished, landed

    def test_parallel_without_injector(self):
        (ended, results), landed = self._round(faulted=False)
        assert ended == 3.0  # the slowest leg
        assert results == ["a", "b", "c"]
        assert landed == [(3.0, "a"), (3.0, "b"), (3.0, "c")]

    def test_sequential_under_faults(self):
        (ended, results), landed = self._round(faulted=True)
        assert ended == 6.0  # the sum of the legs
        assert results == ["a", "b", "c"]
        assert landed == [(3.0, "a"), (4.0, "b"), (6.0, "c")]


class TestGuardedCallTiming:
    def test_wire_legs_charged_to_network_under_injector(self):
        cluster = Cluster(ClusterConfig(num_sites=2))
        FaultInjector(cluster, FaultPlan(), cluster.streams.stream("faults")).install()
        env = cluster.env
        site = cluster.sites[1]
        txn = Transaction("w", 0, write_set=(("t", 1),))

        def handler():
            yield env.timeout(4.0)
            return "ok"

        def caller():
            value = yield from guarded_call(cluster.network, site, handler(), txn=txn)
            return env.now, value

        (ended, value) = env.run_until_complete(env.process(caller()))
        assert value == "ok"
        assert txn.timings["network"] == pytest.approx(ended - 4.0)
