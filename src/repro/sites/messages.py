"""RPC modelling helpers.

The paper's components communicate via Apache Thrift RPC. We model a
remote call as: request traverses the network (latency + size), the
handler runs using the *destination's* resources (its CPU, locks,
version watch), and the reply traverses the network back. The handler
executes inside the caller's simulated process, which is semantically
equivalent for timing purposes and keeps the call structure direct.

Every protocol body in :mod:`repro.systems` and the site selector is
written once, against the fault-aware primitives here:
:func:`guarded_call` (an RPC raced against timeout and crash),
:func:`site_process` (work at a site, crash-raced), :func:`retry_policy`
and :func:`fan_out` (one protocol round over several legs). Each
reduces exactly to the plain simulation when the run has no fault
injector — a guarded call is :func:`remote_call`, site work runs
inline, the retry policy allows a single attempt and draws no jitter,
and a round's legs run in parallel — so an uninjected run is
event-for-event the fault-free protocol.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

from repro.faults.errors import FaultError, RpcTimeout, SiteDown
from repro.faults.plan import FRONTEND
from repro.sim.config import RpcConfig
from repro.sim.network import Network
from repro.transactions import Transaction


def remote_call(
    network: Network,
    handler: Generator,
    request_size: int = 64,
    response_size: int = 64,
    category: str = "rpc",
    txn: Optional[Transaction] = None,
) -> Generator:
    """Run ``handler`` behind a simulated request/reply network hop.

    Usage: ``result = yield from remote_call(net, site.do_thing(...))``.
    If ``txn`` is given, the two wire delays are accumulated into its
    ``network`` timing bucket for the latency breakdown (Figure 7).
    """
    env = network.env
    tracer = env.obs.tracer
    request_delay = network.delay_for(request_size)
    network.account(category, request_size)
    request_started = env._now
    yield env.timeout(request_delay)
    if txn is not None:
        tracer.phase(txn, "network", request_started, env._now, "net",
                     category=category)
    result = yield from handler
    response_delay = network.delay_for(response_size)
    network.account(category, response_size)
    response_started = env.now
    yield env.timeout(response_delay)
    if txn is not None:
        tracer.phase(txn, "network", response_started, env._now, "net",
                     category=category)
        if tracer.enabled:
            tracer.edge("rpc", request_started, txn=txn, track="net",
                        category=category, outcome="ok",
                        rtt=env.now - request_started)
    return result


class _Box:
    """Out-of-band result slot for a handler run in its own process."""

    __slots__ = ("result", "exc")

    def __init__(self):
        self.result = None
        self.exc = None


def _run_boxed(handler: Generator, box: _Box):
    """Drive ``handler``, parking its outcome in ``box``.

    Injected failures (a crash interrupt) are absorbed so the wrapping
    process always *succeeds* — a failed process that nobody awaits
    (its caller timed out and moved on) would otherwise surface as an
    unhandled simulation error. Genuine bugs still propagate.
    """
    try:
        box.result = yield from handler
    except FaultError as exc:
        box.exc = exc


def site_process(site, handler: Generator):
    """Run ``handler`` as a tracked process on ``site``, crash-raced.

    For work a protocol executes *at* a site outside any RPC (a 2PC
    coordinator's own branch and decision logic): if the site crashes
    mid-way the handler is interrupted and the caller sees
    :class:`SiteDown`. Without an injector nothing can crash, so the
    handler itself is returned and runs inline in the caller's process.
    Usage: ``x = yield from site_process(site, gen)``.
    """
    if site.network.faults is None:
        return handler
    return _crash_raced(site, handler)


def _crash_raced(site, handler: Generator):
    """:func:`site_process` with an injector installed."""
    if not site.alive:
        raise SiteDown(site.index)
    env = site.env
    box = _Box()
    proc = env.process(_run_boxed(handler, box))
    site.track(proc)
    crash = site.crash_event
    yield env.any_of([proc, crash])
    if proc.triggered:
        if box.exc is not None:
            raise box.exc
        return box.result
    raise SiteDown(site.index)


def guarded_call(
    network: Network,
    site,
    handler: Generator,
    src: int = FRONTEND,
    request_size: int = 64,
    response_size: int = 64,
    category: str = "rpc",
    txn: Optional[Transaction] = None,
    timeout_ms: Optional[float] = None,
) -> Generator:
    """Fault-aware remote call to ``site``.

    Semantics when a fault injector is installed:

    * the request leg can be lost or partitioned away — the caller
      learns nothing until the timeout fires
      (``RpcTimeout(dispatched=False)``: the handler never started,
      the caller owns all cleanup);
    * arrival at a dead site is refused — :class:`SiteDown` after one
      round trip (connection reset), at-least-once dispatch never
      happened;
    * the handler runs in its own process on the destination, so the
      destination's crash interrupts it (its ``finally`` blocks run)
      and the caller gets :class:`SiteDown`;
    * a slow handler or a lost response leg yields
      ``RpcTimeout(dispatched=True)``: the handler did (or still may)
      run to completion on the live destination, so idempotency /
      cleanup there is the *handler's* responsibility, not the
      caller's.

    Every outcome is reported to the injector's failure detector, and
    every leg that crosses the wire is charged to ``txn``'s ``network``
    bucket (and traced) as in :func:`remote_call`. Without an injector
    this *is* :func:`remote_call` (its generator is returned directly,
    so the delegation costs no extra frame per event).
    """
    if network.faults is None:
        return remote_call(network, handler, request_size, response_size,
                           category, txn)
    return _guarded(network, site, handler, src, request_size, response_size,
                    category, txn, timeout_ms)


def _guarded(network, site, handler, src, request_size, response_size,
             category, txn, timeout_ms):
    """:func:`guarded_call` with an injector installed."""
    faults = network.faults
    env = network.env
    dst = site.index
    # Explicit per-call budgets (remastering's longer leash) win;
    # otherwise the injector supplies the deadline — the fixed timeout,
    # or a per-destination quantile-tracked one when adaptive deadlines
    # are on (how a fail-slow site gets noticed in milliseconds).
    budget = timeout_ms if timeout_ms is not None else faults.deadline_ms(dst)
    started = env.now
    tracer = env.obs.tracer
    traced = tracer.enabled and txn is not None

    def _edge(outcome):
        # Causal edge pairing this request with however it resolved
        # (ok / down / timeout) — recorded at resolution time so the
        # rtt covers the full round including injected losses.
        tracer.edge("rpc", started, txn=txn, track="net",
                    category=category, outcome=outcome, dst=dst,
                    rtt=env.now - started)

    def _leg(delay):
        # One wire leg traversed: the caller waits it out, and the
        # transaction's latency breakdown charges it to the network.
        leg_started = env.now
        yield env.timeout(delay)
        if txn is not None:
            tracer.phase(txn, "network", leg_started, env._now, "net",
                         category=category)

    def _timed_out(dispatched):
        remaining = budget - (env.now - started)
        faults.detector.report_timeout(dst)
        return RpcTimeout(
            f"rpc to site {dst} timed out after {budget}ms", dispatched=dispatched
        ), max(0.0, remaining)

    # Request leg.
    network.account(category, request_size)
    if network.leg_lost(src, dst):
        exc, remaining = _timed_out(dispatched=False)
        yield env.timeout(remaining)
        if traced:
            _edge("timeout")
        raise exc
    yield from _leg(network.leg_delay(src, dst, request_size))
    if not site.alive:
        # Connection refused: the reset travels the reverse leg (and
        # can itself be lost, which then looks like a timeout).
        if network.leg_lost(dst, src):
            exc, remaining = _timed_out(dispatched=False)
            yield env.timeout(remaining)
            if traced:
                _edge("timeout")
            raise exc
        yield from _leg(network.leg_delay(dst, src))
        faults.detector.report_down(dst)
        if traced:
            _edge("down")
        raise SiteDown(dst)

    # Dispatch: the handler runs on the destination, raced against the
    # caller's timeout and the destination's crash.
    box = _Box()
    proc = env.process(_run_boxed(handler, box))
    site.track(proc)
    crash = site.crash_event
    deadline = env.timeout(max(0.0, budget - (env.now - started)))
    yield env.any_of([proc, deadline, crash])
    if proc.triggered and box.exc is not None:
        faults.detector.report_down(dst)
        if traced:
            _edge("down")
        raise box.exc
    if proc.triggered:
        # Response leg.
        network.account(category, response_size)
        if network.leg_lost(dst, src):
            exc, remaining = _timed_out(dispatched=True)
            yield env.timeout(remaining)
            if traced:
                _edge("timeout")
            raise exc
        yield from _leg(network.leg_delay(dst, src, response_size))
        faults.detector.report_success(dst)
        # Passive RTT observation feeding the adaptive deadline /
        # hedge-delay quantiles (recording only — no events, no draws).
        faults.observe_rtt(dst, env.now - started)
        if traced:
            _edge("ok")
        return box.result
    if crash.triggered:
        faults.detector.report_down(dst)
        if traced:
            _edge("down")
        raise SiteDown(dst)
    exc, _ = _timed_out(dispatched=True)
    if traced:
        _edge("timeout")
    raise exc


class RetryPolicy:
    """Bounded retries with seeded, jittered exponential backoff."""

    __slots__ = ("rpc", "attempts", "_rng")

    def __init__(self, rpc: RpcConfig, rng):
        self.rpc = rpc
        #: Total tries: the first attempt plus ``max_retries`` retries.
        self.attempts = rpc.max_retries + 1
        self._rng = rng

    def backoff_ms(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based), jittered ±50%."""
        base = min(self.rpc.backoff_cap_ms, self.rpc.backoff_base_ms * (2.0 ** attempt))
        return base * (0.5 + self._rng.random())


#: The policy of a run without an injector: one attempt, no hedging.
#: Nothing can fail there, so no retry loop ever reaches a backoff and
#: no jitter is drawn (the policy has no RNG to draw from).
NO_RETRY = RetryPolicy(RpcConfig(max_retries=0, hedged_reads=False), rng=None)


def retry_policy(faults) -> RetryPolicy:
    """The retry policy of a run whose fault injector is ``faults``.

    Seeded from the injector's RNG stream and RPC settings; the shared
    single-attempt :data:`NO_RETRY` when no injector is installed.
    """
    if faults is None:
        return NO_RETRY
    return RetryPolicy(faults.rpc, faults.rng)


def fan_out(network: Network, legs: Sequence[Generator],
            landed: Optional[Callable] = None) -> Generator:
    """Run one protocol round over ``legs``; returns their results in order.

    ``legs`` are generators, each one branch of the round with its own
    retry handling (a 2PC vote, a sub-read, a record shipment). Without
    an injector they run as parallel processes joined by one
    ``all_of``, so the round costs its slowest leg. Under faults they
    run one after another in the caller's process: a leg that gives up
    raises before later legs are dispatched, which keeps failure
    handling exact. ``landed(result)``, if given, is called for each
    leg once its result is final — right after the leg under faults,
    after the join without. One of the few places the protocol stack
    runs a different schedule per mode (DESIGN.md §7).
    """
    env = network.env
    if network.faults is None:
        # UNFAULTED_FINGERPRINTS: parallel legs; FAULTED_*: sequential.
        results = yield env.all_of([env.process(leg) for leg in legs])
        if landed is not None:
            for result in results:
                landed(result)
        return results
    results = []
    for leg in legs:
        result = yield from leg
        if landed is not None:
            landed(result)
        results.append(result)
    return results
