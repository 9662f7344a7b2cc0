"""Power domains: the unit of telemetry and capping.

A *domain* is a component whose power is separately measurable and/or
cappable: a CPU socket, a memory subsystem, a single GPU, an OAM package
(two GPUs on Tioga), or the uncore. Each domain carries:

* an idle floor and a nameplate maximum,
* a *demand* — the power the currently-running workload would draw if
  unconstrained,
* zero or more *cap sources* (e.g. an NVML user cap and an OPAL-derived
  firmware cap on the same GPU); the effective cap is their minimum.

Actual drawn power is ``clamp(demand, idle, effective_cap)`` — capping
can never push a component below its idle floor, and a component never
draws more than demanded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional


class DomainKind(enum.Enum):
    """Component classes; telemetry aggregates by kind."""

    CPU = "cpu"
    GPU = "gpu"
    MEMORY = "memory"
    OAM = "oam"  # AMD Open Compute Accelerator Module: one package, two GCDs
    UNCORE = "uncore"


@dataclass(frozen=True)
class DomainSpec:
    """Static description of a power domain.

    Attributes
    ----------
    name:
        Unique within a node, e.g. ``"socket0"``, ``"gpu2"``.
    kind:
        The :class:`DomainKind`.
    idle_w:
        Power drawn when no work is assigned.
    max_w:
        Nameplate maximum power.
    min_cap_w / max_cap_w:
        Legal capping range; ``None`` in ``cappable=False`` domains.
    cappable:
        Whether hardware exposes a cap dial for this domain.
    measurable:
        Whether hardware exposes a power sensor for this domain.
    """

    name: str
    kind: DomainKind
    idle_w: float
    max_w: float
    cappable: bool = False
    measurable: bool = True
    min_cap_w: Optional[float] = None
    max_cap_w: Optional[float] = None

    def __post_init__(self) -> None:
        if self.idle_w < 0 or self.max_w < self.idle_w:
            raise ValueError(
                f"domain {self.name}: need 0 <= idle_w <= max_w, "
                f"got idle={self.idle_w}, max={self.max_w}"
            )
        if self.cappable:
            if self.min_cap_w is None or self.max_cap_w is None:
                raise ValueError(f"domain {self.name}: cappable without cap range")
            if not (0 <= self.min_cap_w <= self.max_cap_w):
                raise ValueError(f"domain {self.name}: invalid cap range")


class PowerDomain:
    """Runtime state of one power domain on one node."""

    def __init__(self, spec: DomainSpec) -> None:
        self.spec = spec
        self._demand_w = spec.idle_w
        # Independent cap sources; effective cap is their min.
        self._caps: Dict[str, float] = {}
        #: Owning node, set by Node construction. Every mutation that
        #: can change observable power bumps the owner's ``power_rev``
        #: so sampling caches and the node's power memo know when their
        #: state went stale; writes of the installed value do not.
        self._owner = None

    # ------------------------------------------------------------------
    # Demand
    # ------------------------------------------------------------------
    @property
    def demand_w(self) -> float:
        """Unconstrained power the current workload would draw."""
        return self._demand_w

    def set_demand(self, watts: float) -> None:
        """Set workload demand; clamped into [idle_w, max_w].

        Rewriting the installed value is a no-op: the owner's
        ``power_rev`` only moves when observable power can change.
        """
        watts = float(min(max(watts, self.spec.idle_w), self.spec.max_w))
        if watts == self._demand_w:
            return
        self._demand_w = watts
        if self._owner is not None:
            self._owner.bump_power_rev()

    def clear_demand(self) -> None:
        """Reset demand to the idle floor (workload departed)."""
        self.set_demand(self.spec.idle_w)

    # ------------------------------------------------------------------
    # Capping
    # ------------------------------------------------------------------
    def set_cap(self, source: str, watts: Optional[float]) -> None:
        """Install (or with ``None``, remove) a cap from a named source.

        The value is clamped into the legal capping range of the domain;
        callers that need strict validation (drivers) do it themselves.
        """
        if not self.spec.cappable:
            raise ValueError(f"domain {self.spec.name} is not cappable")
        caps = self._caps
        if watts is None:
            if caps.pop(source, None) is None:
                return
        else:
            spec = self.spec
            lo = spec.min_cap_w if spec.min_cap_w is not None else 0.0
            hi = spec.max_cap_w if spec.max_cap_w is not None else spec.max_w
            watts = float(min(max(watts, lo), hi))
            if caps.get(source) == watts:
                return
            caps[source] = watts
        if self._owner is not None:
            self._owner.bump_power_rev()

    def get_cap(self, source: str) -> Optional[float]:
        return self._caps.get(source)

    @property
    def effective_cap_w(self) -> Optional[float]:
        """Minimum over all installed cap sources, or None if uncapped."""
        if not self._caps:
            return None
        return min(self._caps.values())

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    @property
    def actual_w(self) -> float:
        """Power currently drawn: demand limited by the effective cap.

        Hot path (sensor sampling hits every domain): the cap logic is
        inlined rather than going through :attr:`effective_cap_w`, with
        comparisons ordered to match ``min(p, max(cap, idle))`` exactly.
        """
        p = self._demand_w
        caps = self._caps
        if caps:
            limit = min(caps.values())
            idle = self.spec.idle_w
            if limit < idle:
                limit = idle
            if limit < p:
                p = limit
        return p

    @property
    def throttle_ratio(self) -> float:
        """Fraction of *dynamic* (above-idle) demand actually granted.

        1.0 when uncapped or demand fits under the cap; approaches 0 as
        the cap squeezes the domain to its idle floor. This is the
        signal the performance model consumes.
        """
        dyn_demand = self._demand_w - self.spec.idle_w
        if dyn_demand <= 0:
            return 1.0
        dyn_actual = self.actual_w - self.spec.idle_w
        return max(0.0, min(1.0, dyn_actual / dyn_demand))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PowerDomain({self.spec.name}, demand={self._demand_w:.0f}W, "
            f"actual={self.actual_w:.0f}W, cap={self.effective_cap_w})"
        )
