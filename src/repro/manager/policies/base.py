"""Policy interface: the contract every node-level policy implements.

See docs/policies.md for the full cookbook (lifecycle, units, safety
wrapper, gain tuning). The short version:

**Lifecycle.** The node manager calls :meth:`attach` once when the
policy is installed (and again with a *fresh* policy instance after a
job departs), then

* :meth:`on_node_limit` whenever the cluster → job → node cap chain
  assigns a new node power limit,
* :meth:`on_sample` on every power-tracking tick (default every 2 s),
* :meth:`on_job_state` when a ``job-state.*`` event touching this
  node's rank arrives (the hook the checkpoint-aware policy uses to
  look up the incoming application in the apps registry),
* :meth:`reset_job_state` (optional, looked up via ``getattr``) when a
  *different* job lands on the node while the policy stays attached,
* :meth:`detach` when the policy is unloaded.

Policies create their own control-cadence timers through the manager's
module helpers (``self.manager.add_timer(...)``).

**Units.** Every power value crossing this interface is **watts**:
``limit_w`` (whole node), ``node_w`` (whole node, measured),
``gpu_w`` (per device, measured), and everything returned by the
manager's ``derive_*``/``non_*_power_w`` helpers. Quantities that are
*not* watts are fractions or ratios and are named accordingly — e.g.
the safety wrapper's ``damper`` (fraction of the device capping span)
and ``slowdown`` (dimensionless ratio >= 1); see
:mod:`repro.manager.policies.safety`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.manager.node_manager import NodeManagerModule


class PowerPolicy:
    """Base class for node-level power policies.

    Subclasses override the hooks they need; every default is a no-op,
    so a policy that only reacts to limits (``StaticPolicy``) and one
    that runs a full control loop (``FPPPolicy``, ``PIPolicy``) share
    this interface. Dynamic policies should normally be deployed inside
    a :class:`~repro.manager.policies.safety.PolicySafetyWrapper`.
    """

    name = "base"

    def __init__(self) -> None:
        #: The hosting node manager (or the safety wrapper's guarded
        #: proxy of it) — None while detached.
        self.manager: Optional["NodeManagerModule"] = None

    def attach(self, manager: "NodeManagerModule") -> None:
        """Install on a node manager. Called once before any other hook."""
        self.manager = manager

    def detach(self) -> None:
        """Unload: drop timers/state; the manager reference dies here."""
        self.manager = None

    def on_node_limit(self, limit_w: Optional[float]) -> None:
        """A new node power limit arrived (watts; None = unconstrained)."""

    def on_sample(self, timestamp: float, node_w: float, gpu_w: list) -> None:
        """Periodic power reading from the node manager's tracker.

        ``timestamp`` is simulation seconds, ``node_w`` the measured
        whole-node power in watts, ``gpu_w`` the per-accelerator watts
        in device order (the node's memoized tuple; read it, never
        mutate it).
        """

    def on_job_state(self, state: str, payload: dict) -> None:
        """A ``job-state.<state>`` event whose ranks include this node.

        ``payload`` carries the job manager's event fields (``jobid``,
        ``app``, ``nnodes``, ``ranks``, ``t``). Only forwarded for
        events that involve this node's rank.
        """

    def snapshot(self) -> dict:
        """JSON-able continuation state for crash recovery.

        Everything a restored policy needs to continue the control loop
        it was running — learned estimates, integrals, demand windows —
        but never object references, timers or hardware handles (the
        restored policy keeps its own). Stateless policies return ``{}``
        (the default). Must round-trip through ``json.dumps``.
        """
        return {}

    def restore(self, state: Mapping) -> None:
        """Rehydrate from :meth:`snapshot` output, while attached.

        The contract is *total*: missing keys reset to fresh-attach
        defaults, so ``restore({})`` doubles as the amnesiac wipe the
        crash-recovery harness uses. Restore is silent — it installs
        state without emitting metrics or re-writing device caps.
        """

    def describe(self) -> dict:
        """Telemetry/debug snapshot of policy state."""
        return {"policy": self.name}
