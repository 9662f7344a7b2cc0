"""The node-level manager (Section III-B).

Present on every node. Responsibilities:

* install the configured *static* node-level cap (IBM OPAL) at load
  time, where the platform supports one,
* accept *node-level power limits* over RPC from the job-level manager
  and record which job they belong to,
* track node and per-GPU power in a periodic sampling loop (a separate
  thread in the real module), maintaining a running estimate of non-GPU
  power used to derive GPU budgets,
* host the pluggable dynamic policy (static / proportional / FPP / the
  policy zoo) and forward limits, samples and ``job-state.*`` events to
  it.

Units at this interface are uniform: every power quantity is **watts**
— node limits (whole node), device caps (one GPU / one socket), and
the ``non_*_power_w`` estimates (whole node minus the named device
class). The safety wrapper's ``damper`` (fraction of a device's
capping span) and ``slowdown`` (dimensionless ratio >= 1) are the only
non-watt control knobs; see :mod:`repro.manager.policies.safety`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro import variorum
from repro.flux.broker import Broker
from repro.flux.message import Message
from repro.flux.module import Module
from repro.hardware.firmware import CappingError
from repro.manager.policies.base import PowerPolicy
from repro.telemetry import MANAGER_TRACK_COST_S

SET_LIMIT_TOPIC = "power-manager.set-node-limit"
JOB_DEPARTED_TOPIC = "power-manager.job-departed"
STATUS_TOPIC = "power-manager.status"

#: Smoothing factor for the non-GPU power estimate (EMA).
EMA_ALPHA = 0.3

#: Window (samples) for the conservative peak estimates used to derive
#: device budgets. Mean-based estimates under-reserve during the high
#: phase of a periodic app, producing sustained share overshoot; a
#: recent-peak estimate keeps the node under its limit at the cost of
#: slightly smaller device budgets.
PEAK_WINDOW = 16


class NodeManagerModule(Module):
    """Per-node power enforcement + dynamic policy host."""

    name = "power-manager"

    def __init__(
        self,
        broker: Broker,
        policy_factory: Callable[[], PowerPolicy],
        sample_interval_s: float = 2.0,
        static_node_cap_w: Optional[float] = None,
    ) -> None:
        if broker.node is None:
            raise ValueError("node manager needs hardware attached to the broker")
        super().__init__(broker)
        self.policy_factory = policy_factory
        self.policy = policy_factory()
        self.sample_interval_s = float(sample_interval_s)
        self.static_node_cap_w = static_node_cap_w
        #: Device dial counts and capping ranges (watts) the policies
        #: read, fixed by the platform spec.
        (
            self.gpu_count,
            self.gpu_cap_range,
            self.socket_count,
            self.socket_cap_range,
        ) = broker.node.spec.cap_dials

        self.node_limit_w: Optional[float] = None
        self.current_jobid: Optional[int] = None
        self._non_gpu_est_w: Optional[float] = None
        self._non_cpu_est_w: Optional[float] = None
        self._recent_non_gpu = deque(maxlen=PEAK_WINDOW)
        self._recent_non_cpu = deque(maxlen=PEAK_WINDOW)
        self._recent_mem = deque(maxlen=PEAK_WINDOW)
        self._recent = deque(maxlen=64)
        self._last_gpu_caps: List[Optional[float]] = []
        self._last_socket_caps: List[Optional[float]] = []
        self.cap_request_failures = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_load(self) -> None:
        node = self.broker.node
        self.register_service(SET_LIMIT_TOPIC, self._handle_set_limit)
        self.register_service(JOB_DEPARTED_TOPIC, self._handle_job_departed)
        self.register_service(STATUS_TOPIC, self._handle_status)
        if self.static_node_cap_w is not None:
            # Best effort: on Lassen this installs the OPAL node cap
            # (whose firmware derives its conservative GPU caps); on
            # Intel/AMD it splits across sockets; Tioga refuses.
            try:
                variorum.cap_best_effort_node_power_limit(
                    node, self.static_node_cap_w
                )
            except variorum.VariorumError:
                self.cap_request_failures += 1
        self._last_gpu_caps = [None] * self.gpu_count
        self._last_socket_caps = [None] * self.socket_count
        # State-aware policies (checkpoint) learn which application is
        # arriving from the job manager's existing job-state events —
        # no new message traffic, just a subscription.
        self.subscribe("job-state.", self._on_job_state)
        self.add_timer(self.sample_interval_s, self._track, start_delay=0.0)
        self.policy.attach(self)

    def on_unload(self) -> None:
        self.policy.detach()
        self.clear_gpu_caps()

    # ------------------------------------------------------------------
    # Hardware accessors used by policies
    # ------------------------------------------------------------------
    @property
    def job_present(self) -> bool:
        return self.current_jobid is not None

    def non_gpu_power_w(self) -> float:
        """Conservative estimate of node power not attributable to GPUs.

        The *recent peak* over the tracking window, not the mean: a
        phase-swinging workload's non-GPU draw must be reserved at its
        high-phase level or the derived GPU budgets push the node over
        its share during every high phase. Before any measurement
        arrives, fall back to the idle non-GPU floor plus an activity
        margin — also conservative, so initial budgets never overshoot
        while the estimate warms up.
        """
        if self._recent_non_gpu:
            return max(self._recent_non_gpu)
        node = self.broker.node
        idle_non_gpu = node.idle_power_w() - sum(
            d.spec.idle_w for d in node.gpu_domains
        )
        return idle_non_gpu + 150.0

    def derive_gpu_share(self, node_limit_w: float) -> float:
        """Uniform per-GPU cap that fits the node limit, given non-GPU power."""
        n = self.gpu_count
        if n == 0:
            return 0.0
        lo, hi = self.gpu_cap_range
        budget = node_limit_w - self.non_gpu_power_w()
        per_gpu = budget / n
        return float(min(max(per_gpu, lo), hi))

    # ------------------------------------------------------------------
    # Cap dials
    # ------------------------------------------------------------------
    def set_gpu_cap(self, index: int, watts: float) -> None:
        """Set one GPU's cap (watts) through the platform driver.

        Clamped into the device capping range; idempotent (repeat
        writes of the installed value are not re-issued to NVML/ROCm).
        """
        node = self.broker.node
        lo, hi = self.gpu_cap_range
        watts = min(max(watts, lo), hi)
        if self._last_gpu_caps[index] == watts:
            return
        try:
            if node.nvml is not None:
                node.nvml.set_power_limit(index, watts)
            elif node.esmi is not None:
                per_oam = watts  # OAM domains are the cappable unit on AMD
                node.esmi.set_oam_power_cap(index, per_oam)
            else:
                raise CappingError("no GPU capping driver on this platform")
            self._last_gpu_caps[index] = watts
            self.broker.telemetry.metrics.counter(
                "manager_gpu_cap_sets_total",
                help="GPU power-cap writes through the platform drivers",
            ).inc()
        except CappingError:
            self.cap_request_failures += 1
            self.broker.telemetry.metrics.counter(
                "manager_cap_failures_total",
                help="failed device cap requests (NVML faults, no driver)",
            ).inc()

    def enforce_limit_via_gpus(self, node_limit_w: float) -> None:
        """Uniformly cap all GPUs so the node fits its limit."""
        per_gpu = self.derive_gpu_share(node_limit_w)
        for i in range(self.gpu_count):
            self.set_gpu_cap(i, per_gpu)

    # ------------------------------------------------------------------
    # Socket-level dials (FPP's device-agnostic extension path)
    # ------------------------------------------------------------------
    def non_cpu_power_w(self) -> float:
        """Conservative (recent-peak) non-CPU power estimate (watts)."""
        if self._recent_non_cpu:
            return max(self._recent_non_cpu)
        node = self.broker.node
        idle_non_cpu = node.idle_power_w() - sum(
            d.spec.idle_w for d in node.cpu_domains
        )
        return idle_non_cpu + 30.0

    def mem_power_w(self) -> float:
        """Conservative (recent-peak) memory-domain power estimate.

        Memory domains are the node's *uncappable* draw: a policy that
        splits the node limit across the cappable CPU and GPU domains
        (EcoShift) must reserve this much off the top. Watts; falls
        back to the memory idle floor plus a small activity margin
        before any measurement arrives.
        """
        if self._recent_mem:
            return max(self._recent_mem)
        node = self.broker.node
        return sum(d.spec.idle_w for d in node.memory_domains) + 20.0

    def derive_socket_share(self, node_limit_w: float) -> float:
        """Uniform per-socket cap that fits the node limit."""
        n = self.socket_count
        if n == 0:
            return 0.0
        lo, hi = self.socket_cap_range
        per_socket = (node_limit_w - self.non_cpu_power_w()) / n
        return float(min(max(per_socket, lo), hi))

    def set_socket_cap(self, index: int, watts: float) -> None:
        """Set one CPU socket's cap (watts); clamped and idempotent
        like :meth:`set_gpu_cap`."""
        node = self.broker.node
        lo, hi = self.socket_cap_range
        watts = min(max(watts, lo), hi)
        if self._last_socket_caps[index] == watts:
            return
        try:
            if node.rapl is not None:
                node.rapl.set_socket_power_cap(index, watts)
            elif node.esmi is not None:
                node.esmi.set_socket_power_cap(index, watts)
            elif node.cpu_domains:
                # IBM path: socket caps through the service processor.
                node.cpu_domains[index].set_cap("socket-manager", watts)
            else:
                raise CappingError("no CPU capping driver on this platform")
            self._last_socket_caps[index] = watts
            self.broker.telemetry.metrics.counter(
                "manager_socket_cap_sets_total",
                help="CPU socket power-cap writes through the platform drivers",
            ).inc()
        except CappingError:
            self.cap_request_failures += 1
            self.broker.telemetry.metrics.counter(
                "manager_cap_failures_total",
                help="failed device cap requests (NVML faults, no driver)",
            ).inc()

    def clear_socket_caps(self) -> None:
        node = self.broker.node
        for dom in node.cpu_domains:
            dom.set_cap("socket-manager", None)
            if node.rapl is not None:
                dom.set_cap(node.rapl.CAP_SOURCE, None)
        self._last_socket_caps = [None] * self.socket_count

    def clear_gpu_caps(self) -> None:
        node = self.broker.node
        if node.nvml is not None:
            node.nvml.clear_all()
        self._last_gpu_caps = [None] * self.gpu_count

    # ------------------------------------------------------------------
    # Power tracking loop
    # ------------------------------------------------------------------
    def _track(self, _timer) -> None:
        node = self.broker.node
        node_w = node.total_power_w()
        gpu_w = node.gpu_power_w()
        # Idle samples would poison the non-GPU estimate with a value
        # far below what a running workload draws, making the first GPU
        # budgets overshoot the node limit. Only learn from samples
        # where something is actually drawing power.
        if node_w > node.idle_power_w() + 5.0:
            non_gpu = node_w - sum(gpu_w)
            self._recent_non_gpu.append(non_gpu)
            self._recent_mem.append(
                sum(d.actual_w for d in node.memory_domains)
            )
            if self._non_gpu_est_w is None:
                self._non_gpu_est_w = non_gpu
            else:
                self._non_gpu_est_w = (
                    EMA_ALPHA * non_gpu + (1.0 - EMA_ALPHA) * self._non_gpu_est_w
                )
            non_cpu = node_w - sum(d.actual_w for d in node.cpu_domains)
            self._recent_non_cpu.append(non_cpu)
            if self._non_cpu_est_w is None:
                self._non_cpu_est_w = non_cpu
            else:
                self._non_cpu_est_w = (
                    EMA_ALPHA * non_cpu + (1.0 - EMA_ALPHA) * self._non_cpu_est_w
                )
        self._recent.append((self.sim.now, node_w, gpu_w))
        self.broker.telemetry.accountant.charge("manager", MANAGER_TRACK_COST_S)
        self.policy.on_sample(self.sim.now, node_w, gpu_w)

    # ------------------------------------------------------------------
    # Services
    # ------------------------------------------------------------------
    def _handle_set_limit(self, broker: Broker, msg: Message) -> None:
        """Install a node-level limit pushed down the cap-decision chain."""
        limit = msg.payload.get("limit_w")
        jobid = msg.payload.get("jobid")
        t_assigned = msg.payload.get("t_assigned")
        tel = broker.telemetry
        tel.metrics.counter(
            "manager_node_limit_updates_total",
            help="node-level limit updates applied by node managers",
        ).inc()
        if t_assigned is not None:
            # One-way latency of the cluster→job→node cap chain — the
            # "policy loop" the paper's responsiveness rests on.
            tel.metrics.histogram(
                "manager_cap_update_latency_seconds",
                help="cap-chain propagation, share decision to node apply",
            ).observe(self.sim.now - float(t_assigned))
            tel.tracer.span(
                "manager.cap_update", "manager", float(t_assigned),
                rank=broker.rank, jobid=jobid, limit_w=limit,
            )
        if limit is not None:
            try:
                limit = float(limit)
            except (TypeError, ValueError):
                broker.respond(msg, errnum=22, errmsg="bad limit_w")
                return
            if limit <= 0:
                broker.respond(msg, errnum=22, errmsg="limit_w must be positive")
                return
        if jobid is not None and jobid != self.current_jobid:
            # New job on this node: dynamic policy state and the power
            # estimates start fresh (the previous job's draw profile is
            # stale information).
            self.current_jobid = jobid
            self._recent_non_gpu.clear()
            self._recent_non_cpu.clear()
            self._recent_mem.clear()
            reset = getattr(self.policy, "reset_job_state", None)
            if reset is not None:
                reset()
        self.node_limit_w = limit
        self.policy.on_node_limit(limit)
        broker.respond(msg, {"limit_w": limit, "rank": broker.rank})

    def _handle_job_departed(self, broker: Broker, msg: Message) -> None:
        self.current_jobid = None
        self.node_limit_w = None
        self._recent_non_gpu.clear()
        self._recent_non_cpu.clear()
        self._recent_mem.clear()
        self.clear_gpu_caps()
        self.policy.detach()
        self.policy = self.policy_factory()
        self.policy.attach(self)
        broker.respond(msg, {"rank": broker.rank})

    def _on_job_state(self, msg: Message) -> None:
        """Forward job-state events that involve this node to the policy."""
        ranks = msg.payload.get("ranks") or []
        if self.broker.rank not in ranks:
            return
        _, _, state = msg.topic.partition(".")
        self.policy.on_job_state(state, msg.payload)

    # ------------------------------------------------------------------
    # Crash recovery (see repro.lifecycle.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-able continuation state for this node's manager.

        Captures the assigned limit, the learned power estimates and the
        policy's controller state — everything a restored manager needs
        to continue enforcing without re-deriving caps. Installed device
        caps (``_last_*_caps``) ride along so the restored idempotence
        check doesn't re-issue writes the hardware already holds.
        """
        return {
            "rank": self.broker.rank,
            "node_limit_w": self.node_limit_w,
            "current_jobid": self.current_jobid,
            "non_gpu_est_w": self._non_gpu_est_w,
            "non_cpu_est_w": self._non_cpu_est_w,
            "recent_non_gpu": list(self._recent_non_gpu),
            "recent_non_cpu": list(self._recent_non_cpu),
            "recent_mem": list(self._recent_mem),
            "recent": [[t, w, list(gpus)] for t, w, gpus in self._recent],
            "last_gpu_caps": list(self._last_gpu_caps),
            "last_socket_caps": list(self._last_socket_caps),
            "cap_request_failures": self.cap_request_failures,
            "policy": {"name": self.policy.name, "state": self.policy.snapshot()},
        }

    def restore_state(self, state: dict) -> None:
        """Rehydrate from :meth:`snapshot_state`; ``{}`` wipes to fresh.

        Mutates in place — module registration, timers and the policy
        object survive, so the event schedule is untouched. Never
        touches the hardware: installed caps are environment, not
        manager state.
        """
        limit = state.get("node_limit_w")
        self.node_limit_w = None if limit is None else float(limit)
        self.current_jobid = state.get("current_jobid")
        est = state.get("non_gpu_est_w")
        self._non_gpu_est_w = None if est is None else float(est)
        est = state.get("non_cpu_est_w")
        self._non_cpu_est_w = None if est is None else float(est)
        for attr, key in (
            ("_recent_non_gpu", "recent_non_gpu"),
            ("_recent_non_cpu", "recent_non_cpu"),
            ("_recent_mem", "recent_mem"),
        ):
            window = getattr(self, attr)
            window.clear()
            window.extend(float(w) for w in state.get(key) or [])
        self._recent.clear()
        for t, w, gpus in state.get("recent") or []:
            self._recent.append(
                (float(t), float(w), tuple(float(g) for g in gpus))
            )
        caps = state.get("last_gpu_caps")
        if caps is None:
            caps = [None] * self.gpu_count
        self._last_gpu_caps = [None if c is None else float(c) for c in caps]
        caps = state.get("last_socket_caps")
        if caps is None:
            caps = [None] * self.socket_count
        self._last_socket_caps = [None if c is None else float(c) for c in caps]
        self.cap_request_failures = int(state.get("cap_request_failures", 0))
        policy_state = state.get("policy") or {}
        self.policy.restore(policy_state.get("state") or {})

    def _handle_status(self, broker: Broker, msg: Message) -> None:
        broker.respond(
            msg,
            {
                "rank": broker.rank,
                "node_limit_w": self.node_limit_w,
                "jobid": self.current_jobid,
                "non_gpu_w": self.non_gpu_power_w(),
                "gpu_caps_w": list(self._last_gpu_caps),
                "cap_failures": self.cap_request_failures,
                "policy": self.policy.describe(),
            },
        )
