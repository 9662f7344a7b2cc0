"""Broker modules (RFC 5 analogue).

A module is a dynamically loadable broker plugin: it has its own
control flow (timers / processes on the shared simulator) and interacts
with the rest of Flux exclusively through messages. The base class
tracks every service, subscription and timer a module creates so that
unloading tears all of it down — the monitor-overhead experiments load
and unload modules repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.flux.broker import Broker, ServiceHandler
from repro.flux.message import FluxRPCError, Message, RPCTimeoutError
from repro.simkernel import PeriodicTimer, Process, SimEvent


@dataclass(frozen=True)
class RetryConfig:
    """Per-RPC timeout and bounded retry/backoff policy.

    Production TBON peers can die or hang silently — a request then
    simply never gets a response. Any module fanning out RPCs uses this
    policy (via :meth:`Module.gather`) to bound how long it
    waits per node and how hard it retries before degrading to a
    per-node error instead of stalling or failing the whole operation.

    Attributes
    ----------
    timeout_s:
        How long to wait for the first attempt's response.
    retries:
        Additional attempts after the first (0 disables retrying).
    backoff:
        Multiplier on the timeout between attempts (exponential).
    """

    timeout_s: float = 5.0
    retries: int = 2
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1.0, got {self.backoff}")


class Module:
    """Base class for broker modules.

    Subclasses override :meth:`on_load` (register services, start
    timers) and optionally :meth:`on_unload`. Use the provided
    ``register_service`` / ``subscribe`` / ``add_timer`` / ``spawn``
    helpers rather than going to the broker directly, so teardown is
    automatic.
    """

    #: Subclasses set this; it is the `flux module load` name.
    name: str = "module"
    #: Set by :meth:`teardown`; an in-flight :meth:`gather` then sends
    #: no more retries.
    _torn_down: bool = False

    def __init__(self, broker: Broker) -> None:
        self.broker = broker
        self.sim = broker.sim
        self._topics: List[str] = []
        self._subs: List[Tuple[str, Callable[[Message], None]]] = []
        self._timers: List[PeriodicTimer] = []
        self._procs: List[Process] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_load(self) -> None:
        """Called when the broker loads the module."""

    def on_unload(self) -> None:
        """Called just before teardown on unload."""

    def teardown(self) -> None:
        """Tear down everything this module created (idempotent)."""
        self._torn_down = True
        for topic in self._topics:
            self.broker.unregister_service(topic)
        self._topics.clear()
        for prefix, cb in self._subs:
            self.broker.unsubscribe(prefix, cb)
        self._subs.clear()
        for t in self._timers:
            t.stop()
        self._timers.clear()
        for p in self._procs:
            p.kill()
        self._procs.clear()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def register_service(self, topic: str, handler: ServiceHandler) -> None:
        self.broker.register_service(topic, handler)
        self._topics.append(topic)

    def subscribe(self, prefix: str, callback: Callable[[Message], None]) -> None:
        self.broker.subscribe(prefix, callback)
        self._subs.append((prefix, callback))

    def add_timer(
        self,
        period: float,
        callback: Callable[[PeriodicTimer], Any],
        start_delay: Optional[float] = None,
    ) -> PeriodicTimer:
        timer = PeriodicTimer(self.sim, period, callback, start_delay=start_delay)
        self._timers.append(timer)
        return timer

    def spawn(self, gen, name: Optional[str] = None) -> Process:
        proc = Process(self.sim, gen, name=name or f"{self.name}@{self.broker.rank}")
        self._procs.append(proc)
        return proc

    def rpc(
        self, dst_rank: int, topic: str, payload: Optional[Dict[str, Any]] = None
    ) -> SimEvent:
        return self.broker.rpc(dst_rank, topic, payload)

    def gather(
        self, legs: Sequence[Tuple[int, str, Optional[Dict[str, Any]], RetryConfig]]
    ) -> SimEvent:
        """Fan RPCs out and gather their outcomes, each leg under its own
        timeout and bounded retry/backoff.

        Each leg is ``(dst_rank, topic, payload, retry)``. Requests go
        out in leg order (send order fixes the seeded latency draws).
        Responses settle their leg from a callback on the RPC future, so
        a completion costs no engine event. Each attempt wave arms one
        deadline per distinct timeout; when it fires, the unanswered
        legs are counted (``rpc_timeouts_total`` / ``rpc_retries_total``)
        and re-sent in leg order with their timeout times ``backoff``.
        A late response to an attempt a retry replaced is ignored. Once
        every leg has settled, the outstanding deadlines are cancelled.

        Returns an event whose value lists, per leg, the response
        payload, the :class:`~repro.flux.message.FluxRPCError` the
        service answered with (error responses are not retried: the peer
        is alive, it just refused), or an
        :class:`~repro.flux.message.RPCTimeoutError` once every attempt
        has timed out.
        """
        return _Gather(self, legs).done


class _Gather:
    """The in-flight state of one :meth:`Module.gather`."""

    __slots__ = ("module", "legs", "results", "futures", "timeouts",
                 "attempts", "left", "deadlines", "done")

    def __init__(self, module: Module, legs) -> None:
        self.module = module
        self.legs = legs
        n = len(legs)
        self.results: List[Any] = [None] * n
        #: Each leg's current attempt; None once the leg has settled.
        self.futures: List[Optional[SimEvent]] = [None] * n
        self.timeouts = [leg[3].timeout_s for leg in legs]
        self.attempts = [0] * n
        self.left = n
        self.deadlines: List[Any] = []
        self.done = SimEvent(module.sim)
        if not n:
            self.done.succeed(self.results)
            return
        for i in range(n):
            self._send(i)
        self._arm(range(n))

    def _send(self, i: int) -> None:
        dst, topic, payload, _ = self.legs[i]
        future = self.module.rpc(dst, topic, payload)
        self.futures[i] = future
        future.add_callback(partial(self._on_reply, i))

    def _arm(self, idxs) -> None:
        waves: Dict[float, List[int]] = {}
        for i in idxs:
            waves.setdefault(self.timeouts[i], []).append(i)
        for timeout_s, wave in waves.items():
            self.deadlines.append(
                self.module.sim.schedule(timeout_s, self._expire, wave)
            )

    def _on_reply(self, i: int, future: SimEvent) -> None:
        if self.futures[i] is not future:
            return  # a retry replaced this attempt
        try:
            res = future.value
        except FluxRPCError as exc:
            res = exc
        self._settle(i, res)

    def _expire(self, wave: List[int]) -> None:
        if self.module._torn_down:
            return
        metrics = self.module.broker.telemetry.metrics
        resend = []
        for i in wave:
            if self.futures[i] is None:
                continue  # answered in time
            dst, topic, _, cfg = self.legs[i]
            metrics.counter(
                "rpc_timeouts_total",
                labels={"topic": topic},
                help="RPC attempts abandoned after their per-attempt timeout",
            ).inc()
            if self.attempts[i] < cfg.retries:
                metrics.counter(
                    "rpc_retries_total",
                    labels={"topic": topic},
                    help="RPC requests re-sent after a timed-out attempt",
                ).inc()
                self.attempts[i] += 1
                self.timeouts[i] *= cfg.backoff
                self._send(i)
                resend.append(i)
            else:
                self._settle(i, RPCTimeoutError(topic, dst, cfg.retries + 1))
        self._arm(resend)

    def _settle(self, i: int, res: Any) -> None:
        self.results[i] = res
        self.futures[i] = None
        self.left -= 1
        if self.left == 0:
            for deadline in self.deadlines:
                deadline.cancel()
            self.done.succeed(self.results)
