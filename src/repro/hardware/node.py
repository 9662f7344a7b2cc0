"""The node model: domains + firmware + sensors for one server.

A :class:`Node` owns its power domains and whatever vendor firmware the
platform provides (OPAL/NVML on Lassen, E-SMI/ROCm on Tioga, RAPL on
the generic Intel platform). Workloads interact with a node only by
setting per-domain power *demand*; power managers interact only through
the firmware drivers (usually via the Variorum layer); telemetry reads
only through the :class:`~repro.hardware.sensors.SensorSuite`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hardware.domains import DomainKind, DomainSpec, PowerDomain
from repro.hardware.firmware import (
    ESMIDriver,
    NVMLDriver,
    OPALFirmware,
    RAPLDriver,
)
from repro.hardware.sensors import SensorSuite


@dataclass(frozen=True)
class NodeSpec:
    """Static platform description of a node.

    Attributes
    ----------
    platform:
        ``"lassen"``, ``"tioga"`` or ``"generic"``.
    vendor:
        CPU vendor string used by the Variorum backend dispatch.
    domains:
        Per-component specs (sockets, memory, GPUs/OAMs, uncore).
    node_power_measurable:
        True when hardware reports a direct node-level power sensor
        (Lassen). When False, "node power" is a conservative sum of
        measurable domains (Tioga).
    node_cappable:
        True when firmware supports direct node-level capping (Lassen).
    node_max_w / node_cap_min_soft_w / node_cap_min_hard_w:
        Node capping range, where applicable.
    sensor_granularity_s:
        Native sensor refresh period.
    gpus_per_telemetry_domain:
        1 when each GPU is individually measurable (Lassen); 2 on Tioga,
        where telemetry is per-OAM (two GCDs combined).
    """

    platform: str
    vendor: str
    domains: tuple
    node_power_measurable: bool = True
    node_cappable: bool = False
    node_max_w: float = 0.0
    node_cap_min_soft_w: float = 0.0
    node_cap_min_hard_w: float = 0.0
    sensor_granularity_s: float = 500e-6
    gpus_per_telemetry_domain: int = 1

    def domain_specs(self, kind: DomainKind) -> List[DomainSpec]:
        return [d for d in self.domains if d.kind is kind]

    @cached_property
    def kind_index(self) -> Dict[DomainKind, Tuple[int, ...]]:
        """Positions in ``domains`` of each kind's domains, in order."""
        index: Dict[DomainKind, List[int]] = {}
        for i, d in enumerate(self.domains):
            index.setdefault(d.kind, []).append(i)
        return {kind: tuple(idx) for kind, idx in index.items()}

    @cached_property
    def view_index(self) -> Tuple[Tuple[int, ...], ...]:
        """Positions of the CPU, accelerator (GPU, else OAM), memory and
        measurable domains: what every node of this spec groups its
        domains by, worked out once per spec."""
        kinds = self.kind_index
        return (
            kinds.get(DomainKind.CPU, ()),
            kinds.get(DomainKind.GPU) or kinds.get(DomainKind.OAM, ()),
            kinds.get(DomainKind.MEMORY, ()),
            tuple(i for i, d in enumerate(self.domains) if d.measurable),
        )

    @cached_property
    def idle_power_w(self) -> float:
        """Summed idle floors of every domain, in declaration order."""
        return sum(d.idle_w for d in self.domains)

    @cached_property
    def cap_dials(
        self,
    ) -> Tuple[int, Tuple[float, float], int, Tuple[float, float]]:
        """``(gpu_count, gpu_cap_range, socket_count, socket_cap_range)``.

        Accelerators are the GPU domains, else the OAM packages. A cap
        range is the first such domain's ``(min, max)`` in watts,
        ``(0.0, 0.0)`` when the node has none.
        """
        gpus = self.domain_specs(DomainKind.GPU) or self.domain_specs(
            DomainKind.OAM
        )
        cpus = self.domain_specs(DomainKind.CPU)
        return (len(gpus), _cap_range(gpus), len(cpus), _cap_range(cpus))


def _cap_range(specs: List[DomainSpec]) -> Tuple[float, float]:
    if not specs:
        return (0.0, 0.0)
    spec = specs[0]
    return (spec.min_cap_w or 0.0, spec.max_cap_w or spec.max_w)


class Node:
    """One simulated server node.

    Parameters
    ----------
    hostname:
        Unique name, e.g. ``"lassen12"``.
    spec:
        The platform :class:`NodeSpec`.
    rng:
        Optional seeded generator for sensor noise and NVML failure
        draws on this node.
    nvml_failure_rate:
        Probability that an NVML cap request misbehaves (Section V).
    """

    def __init__(
        self,
        hostname: str,
        spec: NodeSpec,
        rng: Optional[np.random.Generator] = None,
        nvml_failure_rate: float = 0.0,
        sensor_noise_sigma_w: float = 0.0,
    ) -> None:
        self.hostname = hostname
        self.spec = spec
        #: All domains in declaration order, for the power-summing loops.
        self._domain_list: List[PowerDomain] = [
            PowerDomain(ds) for ds in spec.domains
        ]
        self.domains: Dict[str, PowerDomain] = {
            d.spec.name: d for d in self._domain_list
        }
        for dom in self._domain_list:
            dom._owner = self
        # Domains never change after construction, so the views are
        # built once and shared by every read.
        doms = self._domain_list
        cpu_i, gpu_i, mem_i, measurable_i = spec.view_index
        #: CPU socket domains.
        self.cpu_domains: Tuple[PowerDomain, ...] = tuple([doms[i] for i in cpu_i])
        #: Individually-cappable accelerator domains (GPU or OAM).
        self.gpu_domains: Tuple[PowerDomain, ...] = tuple([doms[i] for i in gpu_i])
        #: Memory-subsystem domains.
        self.memory_domains: Tuple[PowerDomain, ...] = tuple(
            [doms[i] for i in mem_i]
        )
        #: Measurable domains in declaration order — the sampling hot
        #: path iterates this instead of re-filtering ``domains`` on
        #: every read.
        self.measurable_domains: List[PowerDomain] = [
            doms[i] for i in measurable_i
        ]
        #: Power-state revision: bumped by every demand/cap mutation on
        #: this node that can change observable power (domains and OPAL
        #: report in; rewriting an installed value does not bump). The
        #: power memo and the sampling caches key on it — equal
        #: revisions guarantee identical observable power.
        self.power_rev = 0
        #: Power memo: raw and total node power at ``_memo_rev``, the
        #: per-GPU draw tuple at ``_gpu_rev``.
        self._memo_rev = -1
        self._raw_w = 0.0
        self._total_w = 0.0
        self._gpu_rev = -1
        self._gpu_w: Tuple[float, ...] = ()
        #: Columnar sink, set by ColumnarNodeStore.adopt(); while set,
        #: every revision bump is mirrored into the store's arrays.
        self._col_sink = None
        self._col_index = -1

        self.opal: Optional[OPALFirmware] = None
        self.nvml: Optional[NVMLDriver] = None
        self.esmi: Optional[ESMIDriver] = None
        self.rapl: Optional[RAPLDriver] = None

        cpus, gpus = self.cpu_domains, self.gpu_domains
        if spec.platform == "lassen":
            self.opal = OPALFirmware(
                gpu_domains=gpus,
                cpu_domains=cpus,
                node_max_w=spec.node_max_w,
                soft_min_w=spec.node_cap_min_soft_w,
                hard_min_w=spec.node_cap_min_hard_w,
            )
            self.opal._owner = self
            self.nvml = NVMLDriver(
                gpu_domains=gpus, rng=rng, failure_rate=nvml_failure_rate
            )
        elif spec.platform in ("tioga", "elcapitan"):
            # AMD management plane: E-SMI/HSMP over CPU + accelerator
            # packages (MI250X OAMs on Tioga, MI300A APUs on El Capitan-
            # class nodes — the APU has no separate host CPU domain).
            # These specs have no GPU-kind domains, so the accelerator
            # view holds the OAM packages.
            self.esmi = ESMIDriver(cpu_domains=cpus, oam_domains=gpus)
        else:
            self.rapl = RAPLDriver(cpu_domains=cpus)
            if gpus:
                self.nvml = NVMLDriver(
                    gpu_domains=gpus, rng=rng, failure_rate=nvml_failure_rate
                )

        self.sensors = SensorSuite(
            self,
            granularity_s=spec.sensor_granularity_s,
            noise_sigma_w=sensor_noise_sigma_w,
            rng=rng,
        )

    def bump_power_rev(self) -> None:
        """Advance the power revision (every demand/cap mutation).

        When a columnar store has adopted this node the new revision is
        mirrored into its arrays so vectorized consumers (sampler
        template scans, manager cap fan-out) see the change without
        touching the node object again.
        """
        self.power_rev += 1
        sink = self._col_sink
        if sink is not None:
            sink.power_rev_changed(self)

    # ------------------------------------------------------------------
    # Domain access
    # ------------------------------------------------------------------
    def by_kind(self, kind: DomainKind) -> List[PowerDomain]:
        doms = self._domain_list
        return [doms[i] for i in self.spec.kind_index.get(kind, ())]

    @property
    def n_gpus(self) -> int:
        """Logical GPU count (GCDs on Tioga: 2 per OAM domain)."""
        if DomainKind.GPU in self.spec.kind_index:
            return len(self.gpu_domains)
        return len(self.gpu_domains) * self.spec.gpus_per_telemetry_domain

    # ------------------------------------------------------------------
    # Power (memoized per power revision)
    # ------------------------------------------------------------------
    def _refresh_power(self) -> None:
        raw = sum([d.actual_w for d in self._domain_list])
        total = raw
        opal = self.opal
        if opal is not None and opal.node_cap_w is not None:
            # OPAL residual enforcement: if the post-GPU-cap sum still
            # exceeds the node cap, the sockets throttle and the node
            # draws the cap (never below its idle floor).
            total = min(raw, max(opal.node_cap_w, self.spec.idle_power_w))
        self._raw_w = raw
        self._total_w = total
        self._memo_rev = self.power_rev

    def raw_power_w(self) -> float:
        """Sum of every domain's drawn power, before node-cap clipping."""
        if self._memo_rev != self.power_rev:
            self._refresh_power()
        return self._raw_w

    def total_power_w(self) -> float:
        """Node power after OPAL residual enforcement (if any).

        On Lassen, if the post-GPU-cap sum still exceeds an installed
        node cap, OPAL throttles the sockets; the node then draws the
        cap. Elsewhere this equals :meth:`raw_power_w`.
        """
        if self._memo_rev != self.power_rev:
            self._refresh_power()
        return self._total_w

    def gpu_power_w(self) -> Tuple[float, ...]:
        """Per-accelerator drawn power, in :attr:`gpu_domains` order."""
        if self._gpu_rev != self.power_rev:
            self._gpu_w = tuple([d.actual_w for d in self.gpu_domains])
            self._gpu_rev = self.power_rev
        return self._gpu_w

    def idle_power_w(self) -> float:
        return self.spec.idle_power_w

    # ------------------------------------------------------------------
    # Demand (set by running workloads)
    # ------------------------------------------------------------------
    def apply_demand(self, demand: Dict[str, float]) -> None:
        """Set per-domain demand from a workload, by domain name."""
        for name, watts in demand.items():
            dom = self.domains.get(name)
            if dom is None:
                raise KeyError(f"{self.hostname}: no such domain {name!r}")
            dom.set_demand(watts)

    def clear_demand(self) -> None:
        for dom in self.domains.values():
            dom.clear_demand()

    # ------------------------------------------------------------------
    # Throttle signals for the performance model
    # ------------------------------------------------------------------
    def gpu_throttles(self) -> List[float]:
        """Per-accelerator dynamic-power grant ratios, in domain order."""
        return [d.throttle_ratio for d in self.gpu_domains]

    def cpu_throttle(self) -> float:
        """Combined CPU grant ratio, including OPAL residual throttling."""
        cpus = self.cpu_domains
        if not cpus:
            return 1.0
        base = min(d.throttle_ratio for d in cpus)
        if self.opal is not None:
            base *= self.opal.cpu_throttle_needed(self.raw_power_w())
        return base

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.hostname}, {self.spec.platform}, {self.total_power_w():.0f} W)"
