"""The serving_mix server process: a ``ServingServer`` over a tenanted
Lassen cluster, booted fresh for every run.

    python3 -m perfbench.server --seed 1 [--trace]

Run from the repository root with ``src`` on ``PYTHONPATH``. The first
line on standard output, once the socket listens, is ``{"port",
"build_s", "setup_s"}``; the server then serves until a line (or
end of file) arrives on standard input, stops, and prints one JSON line
of statistics: peak RSS, per-advance and per-request CPU times,
registry counts, the physics sweep and, with ``--trace``, the per-layer
span report instead of the sweep.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
from typing import Any, Dict, List, Tuple

from perfbench.common import REF_PROBE_S, RefClock, collector_s, probe_s

N_NODES = 64
NODE_CAP_W = 1950.0
BUDGET_W = 1250.0 * N_NODES
#: The engine advances ADVANCE_DT_S simulated seconds every
#: ADVANCE_INTERVAL_S wall seconds: simulated time runs at wall speed.
ADVANCE_INTERVAL_S = 0.1
ADVANCE_DT_S = 0.1
#: Fairshare directory: (project, weight) and (user, project).
PROJECTS = (("climate", 3.0), ("fusion", 2.0), ("bio", 1.0))
USERS = (("alice", "climate"), ("bob", "climate"), ("carol", "fusion"),
         ("dave", "fusion"), ("erin", "bio"), ("frank", "bio"))
ADMISSION_QUEUE_DEPTH = 16
#: After the load the engine advances this many simulated seconds more,
#: in the advance loop's steps and with no requests: the served
#: cluster's physics throughput. During the load the advances hold too
#: little CPU time (~0.1 s in 15 s, most of it in a few sampling and
#: manager steps) to time steadily.
PHYSICS_S = 300.0


def build(seed: int):
    from repro import ManagerConfig, PowerManagedCluster
    from repro.serving import ClusterRegistry, PowerService, SimDriver
    from repro.tenancy import AdmissionConfig, TenancyConfig, TenantDirectory

    directory = TenantDirectory.build(projects=PROJECTS, users=USERS)
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=N_NODES,
        seed=seed,
        manager_config=ManagerConfig(
            global_cap_w=BUDGET_W, policy="fpp", static_node_cap_w=NODE_CAP_W,
        ),
        tenancy=TenancyConfig(
            directory=directory,
            admission=AdmissionConfig(
                budget_w=BUDGET_W, max_queue_depth=ADMISSION_QUEUE_DEPTH,
            ),
        ),
    )
    registry = ClusterRegistry.from_cluster(cluster, name="default")
    return cluster, PowerService(registry), SimDriver(registry)


class Clocks:
    """CPU-time clocks at two public boundaries of the served program.

    ``SimDriver.advance`` (the physics) and ``PowerService.handle`` (one
    API request) run synchronously on the event loop's thread, so this
    thread's CPU time measures each call, leaving out time the VM was
    not scheduled. Every record starts with ``perf_counter``, the
    system monotonic clock, so the load generator can select the
    records inside its own windows. After each advance the speed probe
    runs (see :class:`perfbench.common.RefClock`), so the generator can
    scale a window's CPU times to the reference host. Each record also
    holds the CPU time the garbage collector took inside the call: a
    full collection lands in whichever call crosses the allocation
    threshold, so per-call figures leave it out.
    """

    def __init__(self, driver) -> None:
        from repro.serving import PowerService

        #: (start, CPU seconds, simulated seconds, process CPU at start,
        #: CPU seconds of the speed probe after it, collector CPU seconds)
        self.advances: List[Tuple[float, float, float, float, float, float]] = []
        #: (start, end, method, CPU seconds, collector CPU seconds) of
        #: each top-level request
        self.handles: List[Tuple[float, float, str, float, float]] = []
        advance = driver.advance
        #: The untimed ``SimDriver.advance``.
        self.advance = advance
        handle = PowerService.handle
        depth = [0]
        clocks = self

        def timed_advance(dt_s: float) -> float:
            t0, c0 = time.perf_counter(), time.thread_time()
            p0, g0 = time.process_time(), collector_s()
            before = driver.sim.now
            now = advance(dt_s)
            cpu_s, gc_s = time.thread_time() - c0, collector_s() - g0
            clocks.advances.append((t0, cpu_s, now - before, p0, probe_s(), gc_s))
            return now

        def timed_handle(service, method, path, params=None, body=None):
            depth[0] += 1
            t0, c0, g0 = time.perf_counter(), time.thread_time(), collector_s()
            try:
                return handle(service, method, path, params, body)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    clocks.handles.append((t0, time.perf_counter(), str(method).upper(),
                                           time.thread_time() - c0, collector_s() - g0))

        driver.advance = timed_advance
        PowerService.handle = timed_handle


def physics_sweep(sim, advance) -> Dict[str, float]:
    """Advance PHYSICS_S simulated seconds in ADVANCE_DT_S steps; the
    CPU time is in reference-speed seconds, collections included."""
    clock = RefClock()

    def sweep() -> None:
        for _ in range(round(PHYSICS_S / ADVANCE_DT_S)):
            advance(ADVANCE_DT_S)
            clock.tick()

    start = sim.now
    _, cpu_s = clock.timed(sweep)
    return {"sim_s": sim.now - start, "cpu_s": cpu_s, "speed": clock.speed()}


class DispatchSpans:
    """One span per request on a traced server, from ``ServingServer.
    dispatch`` (enqueue) to its answer; its child is the request's
    ``PowerService.handle`` call, timed by :class:`Clocks`."""

    def __init__(self, tracer) -> None:
        from repro.serving import ServingServer

        self.spans: List[Tuple[float, float]] = []
        dispatch = ServingServer.dispatch
        spans = self.spans

        async def traced_dispatch(server, method, path, params=None, body=None):
            t0 = time.perf_counter()
            try:
                return await dispatch(server, method, path, params, body)
            finally:
                spans.append((t0, time.perf_counter()))

        tracer.patch(ServingServer, "dispatch", traced_dispatch)

    def report(self, handles) -> Dict[str, Any]:
        """Handle wall times by kind, and each request's queue wait: its
        dispatch span less its handle call. Spans, in order of
        enqueueing, pair with handle calls in order, because the single
        dispatcher answers requests as enqueued."""
        reads = [(t1 - t0) * 1e3 for t0, t1, m, _c, _g in handles if m == "GET"]
        writes = [(t1 - t0) * 1e3 for t0, t1, m, _c, _g in handles if m != "GET"]
        waits = [
            ((d1 - d0) - (h1 - h0)) * 1e3
            for (d0, d1), (h0, h1, _m, _c, _g) in zip(sorted(self.spans), handles)
        ]
        return {"read_ms": reads, "write_ms": writes, "queue_wait_ms": waits}


async def serve(args) -> Dict[str, Any]:
    from repro.serving import ServingServer

    tracer = spans = None
    if args.trace:
        from perfbench.spans import LayerTracer

        # The event loop and the HTTP shell's coroutines run outside any
        # span; they are the serving tier's own time.
        tracer = LayerTracer(root="serving")
        tracer.install()
        spans = DispatchSpans(tracer)

    first_probe_s = probe_s()
    t0 = time.process_time()
    cluster, service, driver = build(args.seed)
    build_s = time.process_time() - t0
    clocks = Clocks(driver)
    server = ServingServer(
        service, driver, port=0,
        advance_interval_s=ADVANCE_INTERVAL_S, advance_dt_s=ADVANCE_DT_S,
    )
    await server.start()
    if tracer is not None:
        tracer.start()
    # CPU time since exec: interpreter start, imports, build, listen;
    # set-up is that, less the first probe, at the reference speed.
    ready_cpu_s = time.process_time()
    setup_s = ((ready_cpu_s - first_probe_s) * 2.0 * REF_PROBE_S
               / (first_probe_s + probe_s()))
    print(json.dumps({"port": server.port, "build_s": build_s,
                      "setup_s": setup_s}), flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    await server.stop()

    from perfbench.common import layer_report, registry_counts

    counts = registry_counts(cluster.sim)
    physics = None if tracer is not None else physics_sweep(cluster.sim, clocks.advance)
    stats: Dict[str, Any] = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "build_s": build_s,
        "nodes": N_NODES,
        "advances": clocks.advances,
        "handles": clocks.handles,
        "counts": counts,
        "jobs": len(cluster.instance.jobmanager.jobs),
        "physics": physics,
    }
    if tracer is not None:
        tracer.stop()
        tracer.uninstall()
        stats["layers"] = layer_report(tracer, counts)
        stats["snapshot_gets"] = tracer.calls("repro.serving.snapshot:SnapshotCache.get")
        stats.update(spans.report(clocks.handles))
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    stats = asyncio.run(serve(args))
    print(json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
