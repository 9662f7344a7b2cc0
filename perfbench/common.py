"""Pieces every workload shares: the outcome record, run metadata,
registry reads and the per-layer report."""

from __future__ import annotations

import gc
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

#: The seed whose outputs ``expected.json`` pins.
DEFAULT_SEED = 1

#: Clock of the in-process workloads: CPU time of this process. Their
#: work is single-threaded and synchronous, so on an idle host it reads
#: the same as the wall clock; unlike the wall clock it leaves out the
#: time a shared virtual machine was not scheduled (steal), which on
#: the 2-core development VM moved wall-clock figures by 10-40 %.
cpu_clock = time.process_time

#: The speed probe: a fixed pure-Python loop of this many iterations.
PROBE_LOOPS = 10_000
#: The probe's CPU time on the reference host, which runs the loop at
#: 10 million iterations per second. Every time the benchmark reports
#: is CPU time scaled to that host (see :class:`RefClock`).
REF_PROBE_S = PROBE_LOOPS / 10e6


def probe_s() -> float:
    """CPU seconds the speed probe takes now, on this thread."""
    t0 = time.thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc + i * i) % 1_000_003
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return time.thread_time() - t0


class _Collector:
    """CPU seconds this thread has spent in the garbage collector."""

    def __init__(self) -> None:
        self.cpu_s = 0.0
        self._t0 = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._t0 = time.thread_time()
        else:
            self.cpu_s += time.thread_time() - self._t0


_COLLECTOR = _Collector()


def collector_s() -> float:
    """CPU seconds spent in collections since the first call."""
    if _COLLECTOR not in gc.callbacks:
        gc.callbacks.append(_COLLECTOR)
    return _COLLECTOR.cpu_s


class RefClock:
    """Times operations in reference-speed CPU seconds.

    CPU time alone does not make a steady clock on a shared host: the
    same work took up to 1.5x more CPU time on the 2-core development VM
    whenever its neighbours loaded the physical core, in stretches from
    a fraction of a second to minutes. So the speed probe runs before
    the first operation and after each one, and an operation's CPU time
    is scaled by ``REF_PROBE_S`` over the mean of the two probes beside
    it. In a test there, a repeated 512-rank query's CPU time moved by
    14 % (coefficient of variation over 20-query chunks) and its scaled
    time by 4 %. The probes run outside the timed operations.

    A long operation whose loop is the benchmark's own calls
    :meth:`tick` on each turn: every ``SEGMENT_S`` of CPU time it ends
    a segment with a probe, so the operation is scaled piece by piece.

    The clock also keeps the part of each operation the garbage
    collector took (``last_gc_s``, in the same scale): a full collection
    of a 10k-node machine takes ~0.4 s and lands in whichever operation
    crosses the collector's allocation threshold, so a percentile over
    operations leaves it out, while totals keep it.
    """

    SEGMENT_S = 0.02

    def __init__(self) -> None:
        self._last = probe_s()
        #: Unscaled CPU seconds and probe seconds, for the run's params.
        self.raw_s = 0.0
        self.probes = [self._last]
        #: Collector time of the last operation, and of all of them.
        self.last_gc_s = 0.0
        self.gc_s = 0.0
        self._op_s = self._op_gc_s = self._c0 = self._g0 = 0.0

    def timed(self, fn: Callable[..., Any], *args: Any) -> Tuple[Any, float]:
        """``(fn(*args), its CPU time in reference seconds)``."""
        self._op_s = self._op_gc_s = 0.0
        self._open()
        value = fn(*args)
        self._close()
        self.last_gc_s = self._op_gc_s
        self.gc_s += self._op_gc_s
        return value, self._op_s

    def tick(self) -> None:
        """Inside a timed operation: probe if the segment is long enough."""
        if cpu_clock() - self._c0 >= self.SEGMENT_S:
            self._close()
            self._open()

    def _open(self) -> None:
        self._g0 = collector_s()
        self._c0 = cpu_clock()

    def _close(self) -> None:
        raw = cpu_clock() - self._c0
        raw_gc = collector_s() - self._g0
        after = probe_s()
        scale = 2.0 * REF_PROBE_S / (self._last + after)
        self._last = after
        self.raw_s += raw
        self.probes.append(after)
        self._op_s += raw * scale
        self._op_gc_s += raw_gc * scale

    def speed(self) -> float:
        """Mean probe speed over the run, as a share of the reference."""
        return REF_PROBE_S * len(self.probes) / sum(self.probes)


@dataclass
class Outcome:
    """What one benchmark run reports."""

    #: Output-check failures; empty means the outputs were correct.
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Run parameters, each read back from the run itself.
    params: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer metrics of a traced run (name -> value; units in
    #: BENCHMARK.json).
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_score() -> float:
    """The speed probe's best of five runs, in million loop iterations
    per second: a score that moves between runs shows host drift, not a
    program change."""
    return PROBE_LOOPS / min(probe_s() for _ in range(5)) / 1e6


def environment(seed: int, workload: str, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run parameters that come from the host and the command line."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "calibration_mips": round(calibration_score(), 4),
    }


def counter_total(sim, name: str, **labels: str) -> float:
    """Sum of a registry metric's series, optionally filtered by labels."""
    from repro.telemetry import telemetry_of

    total = 0.0
    for series in telemetry_of(sim).metrics.series_for(name):
        if all(series.labels.get(k) == v for k, v in labels.items()):
            total += series.value
    return total


def registry_counts(sim) -> Dict[str, float]:
    """Per-layer work counts read from the program's telemetry registry
    (metric names as catalogued in docs/observability.md)."""
    from repro.telemetry import telemetry_of

    telemetry_of(sim).metrics.flush()  # deferred columnar charges

    def c(name: str, **labels: str) -> float:
        return counter_total(sim, name, **labels)

    return {
        "simkernel.events": float(sim.events_processed),
        "flux.messages": c("flux_messages_sent_total"),
        "flux.bytes": c("tbon_bytes_total"),
        "flux.hops": c("tbon_hops_total"),
        "flux.dropped": c("tbon_messages_dropped_total"),
        "monitor.samples": c("monitor_samples_total"),
        "monitor.queries": c("monitor_aggregations_total"),
        "monitor.degraded": c("monitor_degraded_aggregations_total"),
        "manager.recomputes": c("manager_share_recomputes_total"),
        "manager.cap_sets": c("manager_gpu_cap_sets_total")
        + c("manager_socket_cap_sets_total"),
        "manager.cap_failures": c("manager_cap_failures_total"),
        "manager.fft_runs": c("fpp_fft_runs_total"),
        "federation.rebalances": c("federation_rebalances_total"),
        "tenancy.decisions": c("tenant_admission_decisions_total"),
        "tenancy.rejects": c("tenant_admission_decisions_total", action="reject"),
        "serving.snapshot_refreshes": c("serving_snapshot_refreshes_total"),
    }


def layer_report(tracer, counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced episode: self times from the
    tracer, work counts from the registry and the tracer's call counts."""
    self_s = tracer.self_s()
    out: Dict[str, float] = dict(counts)
    for layer, seconds in self_s.items():
        out[f"{layer}.self_s"] = seconds
    events = counts.get("simkernel.events", 0.0)
    out["simkernel.us_per_event"] = (
        self_s["simkernel"] / events * 1e6 if events else 0.0
    )
    out["jobmanager.polls"] = float(tracer.calls_matching(".all_complete", "jobmanager"))
    out["hardware.power_reads"] = float(
        tracer.entries("repro.hardware.node:Node.total_power_w")
        + tracer.entries("repro.hardware.node:Node.raw_power_w")
        + tracer.calls_matching(".actual_w", "hardware", entries=True)
    )
    out["variorum.samples"] = float(
        tracer.calls_matching(".get_node_power_json", "variorum", entries=True)
        + tracer.calls_matching(".sample_cached", "variorum", entries=True)
    )
    out["variorum.cap_writes"] = float(
        sum(tracer.calls_matching(f".{name}", "variorum", entries=True)
            for name in ("cap_best_effort_node_power_limit",
                         "cap_each_gpu_power_limit"))
    )
    out["columnar.ticks"] = float(
        tracer.calls("repro.columnar.store:GroupColumns.tick")
    )
    out["trace.wall_s"] = tracer.wall_s
    return out
