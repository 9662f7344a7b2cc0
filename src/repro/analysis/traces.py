"""Cluster power tracing.

Table III reports *maximum cluster power usage* — node power summed
across all nodes at each 2 s sampling instant — and the corresponding
average. Figures 1, 5, 6 and 7 are power-versus-time series. The
:class:`ClusterPowerTrace` records both, sampling every node of an
instance on the monitor's grid.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.flux.instance import FluxInstance
from repro.simkernel import PeriodicTimer


class ClusterPowerTrace:
    """Periodic recorder of per-node and cluster power."""

    def __init__(
        self,
        instance: FluxInstance,
        interval_s: float = 2.0,
        ranks: Optional[Sequence[int]] = None,
    ) -> None:
        self.instance = instance
        self.interval_s = float(interval_s)
        self.ranks = list(ranks) if ranks is not None else list(range(instance.n_nodes))
        self.times: List[float] = []
        #: hostname -> list of node power samples (aligned with times).
        self.node_series: Dict[str, List[float]] = {
            instance.nodes[r].hostname: [] for r in self.ranks
        }
        #: hostname -> list of per-GPU power tuples (aligned with times).
        self.gpu_series: Dict[str, List[tuple]] = {
            instance.nodes[r].hostname: [] for r in self.ranks
        }
        self._timer = PeriodicTimer(
            instance.sim, self.interval_s, self._sample, start_delay=0.0
        )

    def _sample(self, _timer: PeriodicTimer) -> None:
        self.times.append(self.instance.sim.now)
        for r in self.ranks:
            node = self.instance.nodes[r]
            self.node_series[node.hostname].append(node.total_power_w())
            self.gpu_series[node.hostname].append(node.gpu_power_w())

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def cluster_series(self) -> List[Tuple[float, float]]:
        """(time, summed node power) across the traced ranks."""
        out = []
        for i, t in enumerate(self.times):
            out.append((t, sum(s[i] for s in self.node_series.values())))
        return out

    def max_cluster_power_w(self) -> float:
        series = self.cluster_series()
        if not series:
            raise ValueError("no samples recorded")
        return max(p for _, p in series)

    def avg_cluster_power_w(
        self, t_start: Optional[float] = None, t_end: Optional[float] = None
    ) -> float:
        series = [
            (t, p)
            for (t, p) in self.cluster_series()
            if (t_start is None or t >= t_start) and (t_end is None or t <= t_end)
        ]
        if not series:
            raise ValueError("no samples in window")
        return sum(p for _, p in series) / len(series)

    def node_timeline(self, hostname: str) -> List[Tuple[float, float]]:
        """(time, node power) for one host — the Fig 5/6/7 series."""
        return list(zip(self.times, self.node_series[hostname]))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """Wide CSV: timestamp, one node-power column per host, cluster sum."""
        hosts = sorted(self.node_series)
        lines = ["timestamp," + ",".join(hosts) + ",cluster_w"]
        for i, t in enumerate(self.times):
            vals = [self.node_series[h][i] for h in hosts]
            lines.append(
                f"{t:.3f},"
                + ",".join(f"{v:.3f}" for v in vals)
                + f",{sum(vals):.3f}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())
