"""telemetry_sweep: the paper's Section IV-C job-power query path at
exascale.

An El Capitan-class ``FluxInstance`` (10,000 nodes, TBON fanout 32)
samples at 1 Hz through the columnar monitor (default ``fanout``
aggregation strategy). No manager and no jobs. The sweep runs in
*blocks* of 600 simulated seconds; in each, ``GET_JOB_POWER`` queries
go out over contiguous rank slices, each asking for the trailing 30 s
window. TBON messaging and the engine do
the work; hardware and manager do almost none.

Slice sizes are log-uniform from 1 to 4096 ranks, taken at fixed points
of equal-probability strata, the same for every seed, so the latency
percentiles do not jump with the seed; each block adds one
whole-machine query. The seed places the slices on the machine and
orders them on an even time grid.

Times are reference-speed CPU seconds (:class:`perfbench.common.RefClock`).
The collector runs as it does in the program, and its pauses count in
the throughputs; the query-time percentile leaves them out, because a
full collection (about a third of the sweep's time) lands in whichever
query crosses the allocation threshold. A collection at each block
boundary, outside the timed stretches, starts every block from the same
collector state.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.common import (
    DEFAULT_SEED,
    Outcome,
    RefClock,
    cpu_clock,
    layer_report,
    peak_rss_mb,
    registry_counts,
)
from perfbench.stats import median, percentile

N_NODES = 10_000
FANOUT = 32
SAMPLE_INTERVAL_S = 1.0
BUFFER_CAPACITY = 64
BLOCK_S = 600.0
QUERY_WINDOW_S = 30.0
#: Log-uniform slices per block, plus one whole-machine query.
SLICES_PER_BLOCK = 50
#: Blocks take their sizes at this many interleaved offsets in each
#: stratum, so a run's sizes are spread evenly rather than repeated.
SIZE_PHASES = 4
MAX_SLICE = 4096
#: Setup is a median over this many builds; op_ms_p90 needs 100
#: queries (10 beyond the percentile), i.e. two blocks.
SETUPS = 3
MIN_QUERIES = 100
#: A run's work is fixed by --seconds, never by how fast it goes, so two
#: commits measure the same work: one block per BLOCK_COST_S of the
#: budget left after the builds (reference-speed costs).
SETUP_COST_S = 1.3
BLOCK_COST_S = 7.5
#: A query's simulated latency must stay below this (it is tens of
#: milliseconds for the whole machine).
MAX_SIM_LATENCY_S = 1.0


def block_queries(seed: int, block: int) -> List[Tuple[float, int, int]]:
    """(sim time, first rank, n ranks) of one block's queries, in time order.

    Sizes are fixed points of the log-uniform distribution's strata (a
    fixed offset in each, which cycles from block to block), dealt in
    seeded order to times on an even grid. With the same sizes for every
    seed, the percentiles do not move with the draw of sizes; with the
    offsets cycling, a run's sizes are all distinct, so a percentile
    falls between close sizes rather than at the edge of a group of
    equal ones. The even grid matters because the gap before a
    query sets how much deferred sampling bookkeeping it flushes (the
    columnar store settles its telemetry charges on the next read), so
    random gaps made the query figures depend on the seed. Query times
    are half-integers, so the trailing window holds exactly
    ``QUERY_WINDOW_S`` ticks of the 1 Hz sampler on every rank.
    """
    rng = np.random.default_rng([seed, block])
    n = SLICES_PER_BLOCK
    strata = (np.arange(n) + (block % SIZE_PHASES + 0.5) / SIZE_PHASES) / n
    sizes = np.floor(np.exp(strata * math.log(MAX_SLICE + 1))).astype(int)
    sizes = np.clip(sizes, 1, MAX_SLICE).tolist() + [N_NODES]
    starts = [int(rng.integers(0, N_NODES - s + 1)) for s in sizes]
    slot_s = (BLOCK_S - QUERY_WINDOW_S) / len(sizes)
    slots = rng.permutation(len(sizes))
    t0 = block * BLOCK_S + QUERY_WINDOW_S
    times = [t0 + math.floor(slot * slot_s) + 0.5 for slot in slots]
    return sorted(zip(times, starts, sizes))


@dataclass
class Query:
    t: float
    first: int
    ranks: int
    sim_latency_s: float
    samples: int
    complete: bool
    errors: int
    #: Reference-speed CPU seconds from ``rpc`` to the response, and
    #: the collector's share of them.
    host_s: float = 0.0
    gc_s: float = 0.0


@dataclass
class Sweep:
    setup_s: List[float] = field(default_factory=list)
    instance_s: List[float] = field(default_factory=list)
    monitor_s: List[float] = field(default_factory=list)
    #: The sweep after set-up: sampling and queries together. Sampling
    #: alone is too cheap to time (the columnar store defers its per-tick
    #: bookkeeping to the next read, i.e. into a query).
    sweep_host_s: float = 0.0
    sweep_sim_s: float = 0.0
    #: The sweep's unscaled CPU seconds, mean host speed and collector
    #: seconds (RefClock).
    sweep_cpu_s: float = 0.0
    speed: float = 0.0
    gc_s: float = 0.0
    queries: List[Query] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)

    def outputs(self) -> Tuple:
        """Simulated outputs, for bitwise compares between runs."""
        return tuple(
            (q.t, q.first, q.ranks, q.sim_latency_s, q.samples, q.complete)
            for q in self.queries
        )


def new_instance():
    from repro.flux.instance import FluxInstance

    return FluxInstance(platform="elcapitan", n_nodes=N_NODES, seed=0,
                        fanout=FANOUT)


def start_monitor(inst) -> None:
    """The columnar monitor and its first sampling tick (at t=0, which
    builds every rank's sample template)."""
    from repro.monitor.module import attach_monitor

    attach_monitor(inst, sample_interval_s=SAMPLE_INTERVAL_S,
                   buffer_capacity=BUFFER_CAPACITY, columnar=True)
    inst.run_for(0.0)


def query(inst, t: float, first: int, ranks: int,
          clock: Optional[RefClock] = None) -> Query:
    from repro.monitor.root_agent import GET_JOB_POWER_TOPIC

    sim = inst.sim
    future = inst.brokers[0].rpc(0, GET_JOB_POWER_TOPIC, {
        "ranks": list(range(first, first + ranks)),
        "t_start": t - QUERY_WINDOW_S,
        "t_end": t,
    })
    sent = sim.now
    while not future.triggered:
        if not sim.step():
            raise RuntimeError("engine drained before the query answered")
        if clock is not None:
            clock.tick()
    nodes = future.value["nodes"]
    return Query(
        t=t, first=first, ranks=ranks,
        sim_latency_s=sim.now - sent,
        samples=sum(len(n["samples"]) for n in nodes if not n.get("error")),
        complete=len(nodes) == ranks and all(n["complete"] for n in nodes),
        errors=sum(1 for n in nodes if n.get("error")),
    )


def blocks_for(seconds: float) -> int:
    """Blocks a run of ``seconds`` holds: at least enough for the p90."""
    fit = int((seconds - SETUPS * SETUP_COST_S) // BLOCK_COST_S)
    return max(math.ceil(MIN_QUERIES / (SLICES_PER_BLOCK + 1)), fit)


def sweep(seed: int, blocks: int, setups: int) -> Sweep:
    """Build ``setups`` times, then sweep ``blocks`` blocks on the last build."""
    result = Sweep()
    inst = None
    for _ in range(setups):
        inst = None
        gc.collect()
        clock = RefClock()
        inst, inst_s = clock.timed(new_instance)
        _, mon_s = clock.timed(start_monitor, inst)
        result.instance_s.append(inst_s)
        result.monitor_s.append(mon_s)
        result.setup_s.append(inst_s + mon_s)
    sim = inst.sim
    clock = RefClock()
    t0 = sim.now
    for block in range(blocks):
        gc.collect()
        for t, first, ranks in block_queries(seed, block):
            _, sample_s = clock.timed(inst.run_for, t - sim.now)
            q, host_s = clock.timed(query, inst, t, first, ranks, clock)
            q.host_s, q.gc_s = host_s, clock.last_gc_s
            result.queries.append(q)
            result.sweep_host_s += sample_s + q.host_s
    result.sweep_sim_s = sim.now - t0
    result.sweep_cpu_s = clock.raw_s
    result.speed = clock.speed()
    result.gc_s = clock.gc_s
    result.counts = registry_counts(sim)
    return result


def check_sweep(sw: Sweep, out: Outcome, label: str) -> None:
    ticks = int(QUERY_WINDOW_S / SAMPLE_INTERVAL_S)
    for q in sw.queries:
        where = f"{label}: query at t={q.t} over ranks [{q.first}, {q.first + q.ranks})"
        out.check(q.errors == 0 and q.complete,
                  f"{where}: {q.errors} error records, complete={q.complete}")
        out.check(q.samples == q.ranks * ticks,
                  f"{where}: {q.samples} samples, expected {q.ranks} x {ticks}")
        out.check(0.0 < q.sim_latency_s < MAX_SIM_LATENCY_S,
                  f"{where}: simulated latency {q.sim_latency_s} s")


def check_expected(sw: Sweep, expected: Dict, out: Outcome) -> None:
    """The default seed's first block against the pinned latencies."""
    want = expected["sim_latency_s"]
    got = [q.sim_latency_s for q in sw.queries[:len(want)]]
    out.check(len(got) == len(want) and all(
        abs(g - w) <= 1e-12 + 1e-9 * w for g, w in zip(got, want)),
        "simulated query latencies of block 0 differ from expected.json")


def expected_record(sw: Sweep) -> Dict:
    return {"sim_latency_s": [q.sim_latency_s for q in sw.queries[:SLICES_PER_BLOCK + 1]]}


def _failed(sw: Sweep) -> int:
    return sum(1 for q in sw.queries if q.errors or not q.complete)


def run(seed: int, seconds: float, trace: bool, expected: Dict) -> Outcome:
    if trace:
        return run_traced(seed, expected)
    out = Outcome()
    sw = sweep(seed, blocks_for(seconds), SETUPS)
    check_sweep(sw, out, "sweep")
    if seed == DEFAULT_SEED:
        check_expected(sw, expected, out)

    query_ms = [(q.host_s - q.gc_s) * 1e3 for q in sw.queries]
    ranks = sum(q.ranks for q in sw.queries)
    out.attempted = len(sw.queries)
    out.failed = _failed(sw)
    out.metric("setup_s", median(sw.setup_s), "s")
    out.metric("sim_node_s_per_s", N_NODES * sw.sweep_sim_s / sw.sweep_host_s,
               "node-s/s")
    out.metric("work_per_s", ranks / sum(q.host_s for q in sw.queries), "1/s")
    out.metric("op_ms_p90", percentile(query_ms, 90), "ms")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    out.params.update(
        nodes=N_NODES,
        setups=len(sw.setup_s),
        queries=len(sw.queries),
        ranks_queried=ranks,
        samples_returned=sum(q.samples for q in sw.queries),
        sim_window_s=sw.sweep_sim_s,
        sweep_cpu_s=sw.sweep_cpu_s,
        host_speed=sw.speed,
        gc_s=sw.gc_s,
        events=sw.counts["simkernel.events"],
    )
    return out


def run_traced(seed: int, expected: Dict) -> Outcome:
    """One block untraced, then the same block under spans; the traced
    copy must reproduce the untraced simulated outputs bit for bit."""
    from perfbench.spans import LayerTracer

    out = Outcome()
    t0 = cpu_clock()
    plain = sweep(seed, 1, 1)
    plain_cpu = cpu_clock() - t0
    tracer = LayerTracer()
    tracer.install()
    try:
        gc.collect()
        t0 = cpu_clock()
        tracer.start()
        traced = sweep(seed, 1, 1)
        tracer.stop()
        traced_cpu = cpu_clock() - t0
    finally:
        tracer.uninstall()

    check_sweep(plain, out, "untraced")
    out.check(traced.outputs() == plain.outputs(),
              "traced sweep's simulated outputs differ from the untraced one")
    if seed == DEFAULT_SEED:
        check_expected(plain, expected, out)

    out.attempted = len(traced.queries)
    out.failed = _failed(traced)
    out.layers = layer_report(tracer, traced.counts)
    out.layers["setup.instance_s"] = plain.instance_s[0]
    out.layers["setup.monitor_s"] = plain.monitor_s[0]
    # The small-query median moves too much between runs to gate on.
    out.layers["monitor.query_ms_p50"] = percentile(
        [(q.host_s - q.gc_s) * 1e3 for q in plain.queries], 50)
    out.layers["gc.pause_s"] = plain.gc_s
    out.layers["trace.overhead_frac"] = traced_cpu / plain_cpu - 1.0
    out.params.update(
        nodes=N_NODES, queries=len(traced.queries),
        ranks_queried=sum(q.ranks for q in traced.queries),
        untraced_cpu_s=plain_cpu, traced_cpu_s=traced_cpu,
    )
    return out
