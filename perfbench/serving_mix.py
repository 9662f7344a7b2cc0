"""serving_mix: the operator surface under an open-loop request stream.

A fresh ``ServingServer`` process (perfbench/server.py) serves a
64-node Lassen FPP cluster with tenancy: a fairshare directory of three
projects and admission control on. Its engine advances on the server's
wall-clock loop, and every advance blocks the single dispatcher, so
request tails also feel the physics layers.

This process is the load generator: an open loop of seeded requests
(``generate_trace`` with the accounting op mix, submits raised so
writes are a real share) over two keep-alive connections at a fixed
offered rate; the traced run also climbs a ladder of rates. Reads go
through the snapshot cache; writes go through admission and the job
manager. Client latency runs from each request's due time
(perfbench/openloop.py).
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import math
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlencode

import numpy as np

from perfbench.common import Outcome
from perfbench.openloop import Request, StepRun, failure, run_step
from perfbench.stats import median, percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The CPUs this process may run on when it starts.
CPUS = sorted(os.sched_getaffinity(0))

#: The load of the measured (untraced) run: LOAD_REQUESTS requests
#: offered at LOAD_RPS, inside the server's capacity (about 4500 req/s
#: on the 2-core development VM). At 1000 req/s the server idled
#: between requests, and its CPU time per request moved by up to 16 %
#: between runs with the state of the caches it woke to.
LOAD_RPS = 2000
LOAD_REQUESTS = 30_000
#: The traced run's ladder of offered rates (requests/s), climbed in
#: this order from the nominal rate until one misses the service level.
LADDER_RPS = (1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000, 5500,
              6000, 7000, 8000)
NOMINAL_RPS = LADDER_RPS[0]
#: A ladder step lasts STEP_S, and at least MIN_STEP_REQUESTS requests
#: (a p99 needs 1000: 10 beyond it).
STEP_S = 2.0
MIN_STEP_REQUESTS = 3000
#: A step meets the service level when its p99 latency is at most this
#: and the last tenth of its requests are not queued behind a backlog.
#: Engine advances stall the dispatcher for up to ~60 ms on this
#: cluster; the limit sits above them, so the climb stops at the
#: backlog knee rather than at a chance advance.
P99_LIMIT_MS = 100.0
#: Server boots per run; setup_s is their median, the last one serves.
BOOTS = 3
#: Warm-up jobs fill the machine (N_NODES / WARMUP_JOBS nodes each) and
#: run for several simulated minutes; SETTLE_S of wall time lets their
#: starts (the manager's recompute and cap fan-out) pass before the
#: load.
WARMUP_JOBS = 16
WARMUP_APPS = ("gemm", "lammps", "quicksilver")
WARMUP_WORK_SCALE = 4.0
SETTLE_S = 1.5
BOOT_TIMEOUT_S = 60.0
DRAIN_S = 5.0

#: ACCOUNTING_OP_MIX with submits raised from 4 % to 12 %.
OP_MIX = (
    ("cluster_power", 0.16), ("list_jobs", 0.14), ("get_job", 0.12),
    ("accounting", 0.18), ("nodes", 0.08), ("queue", 0.08),
    ("job_output", 0.06), ("health", 0.04), ("batch_power", 0.02),
    ("submit_job", 0.12),
)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def step_requests(seed: int, rps: int, n: int) -> List[Request]:
    """The seeded open-loop schedule of one ladder step.

    ``generate_trace`` draws arrivals, ops and payloads. Reads of a
    single job target the warm-up jobs, which exist before the step
    starts (a submit inside the step may be queued or refused by
    admission, so its job id is not known in advance); submits are
    spread over the directory's users.
    """
    from repro.serving import LoadProfile, generate_trace
    from perfbench.server import N_NODES, USERS

    profile = LoadProfile(
        clients=1, requests_per_client=n, warmup_jobs=WARMUP_JOBS,
        arrival_rate_per_s=float(rps), op_mix=OP_MIX, advance_every=0,
    )
    trace = generate_trace(seed * 1_000 + rps, profile, n_nodes=N_NODES)
    users = np.random.default_rng([seed, rps]).integers(len(USERS), size=n)
    out = []
    for req, user in zip(trace, users):
        path, body, expect = req.path, req.body, (200,)
        if req.op in ("get_job", "job_output"):
            parts = path.split("/")
            parts[5] = str(1 + (int(parts[5]) - 1) % WARMUP_JOBS)
            path = "/".join(parts)
        if req.op == "submit_job":
            body = dict(body, user=USERS[int(user)][0])
            expect = (201, 202, 403)
        target = f"{path}?{urlencode(req.params)}" if req.params else path
        out.append(Request(req.t_arrival, req.method, target, body, expect))
    return out


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One perfbench/server.py process; always stopped and reaped."""

    def __init__(self, seed: int, trace: bool = False) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server", "--seed", str(seed)]
            + (["--trace"] if trace else []),
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        # The server and this generator each keep a CPU of their own when
        # there are two, so the scheduler never runs them on one by turns.
        if len(CPUS) >= 2:
            os.sched_setaffinity(self.proc.pid, {CPUS[-1]})
            os.sched_setaffinity(0, set(CPUS[:-1]))
        try:
            hello = json.loads(self._readline(BOOT_TIMEOUT_S))
            self.port = int(hello["port"])
            self.build_s = float(hello["build_s"])
            self.setup_s = float(hello["setup_s"])
            status, _ = self.request("GET", "/v1/health")
            if status != 200:
                raise RuntimeError(f"/v1/health answered {status}")
        except BaseException:
            self.kill()
            raise
        #: Wall time from boot to the first answered /v1/health.
        self.boot_wall_s = time.perf_counter() - t0

    def _readline(self, timeout_s: float) -> bytes:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("server process gave no output "
                               f"(exit code {self.proc.poll()})")
        return line

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Tuple[int, Any]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"null")
        finally:
            conn.close()

    def stop(self) -> Dict[str, Any]:
        """Ask the server to stop; return its statistics line."""
        try:
            self.proc.stdin.write(b"stop\n")
            self.proc.stdin.close()
            stats = json.loads(self._readline(BOOT_TIMEOUT_S))
            self.proc.wait(timeout=BOOT_TIMEOUT_S)
            return stats
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def warm_up(server: Server, out: Outcome) -> None:
    """Fill the machine with long jobs, then let them start.

    Each warm-up job must be admitted. They outlast the run, so the
    engine advances a steadily busy machine, and later submits meet a
    full machine: admission queues, then refuses, as a busy site does.
    Single-job reads target these jobs.
    """
    from perfbench.server import N_NODES, USERS

    for i in range(WARMUP_JOBS):
        status, body = server.request("POST", "/v1/clusters/default/jobs", {
            "app": WARMUP_APPS[i % len(WARMUP_APPS)],
            "nnodes": N_NODES // WARMUP_JOBS,
            "params": {"work_scale": WARMUP_WORK_SCALE},
            "name": f"warmup-{i}", "user": USERS[i % len(USERS)][0],
        })
        out.check(status == 201, f"warm-up submit {i} answered {status}: {body}")
    time.sleep(SETTLE_S)
    status, body = server.request("GET", "/v1/clusters/default/queue")
    running = body.get("running", []) if isinstance(body, dict) else []
    out.check(status == 200 and len(running) == WARMUP_JOBS,
              f"{len(running)} of {WARMUP_JOBS} warm-up jobs running: {body}")


# ----------------------------------------------------------------------
# Steps
# ----------------------------------------------------------------------
@dataclass
class Step:
    rps: int
    run: StepRun
    latency_ms: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    tail_ms: float = 0.0

    @property
    def p99_ms(self) -> float:
        return percentile(self.latency_ms, 99)

    @property
    def meets_slo(self) -> bool:
        return self.p99_ms <= P99_LIMIT_MS and self.tail_ms <= P99_LIMIT_MS \
            and not self.failures


def measure_step(server: Server, seed: int, rps: int, n: int) -> Step:
    requests = step_requests(seed, rps, n)
    # The generator's own collector pauses would show as lateness.
    gc.disable()
    try:
        run = asyncio.run(run_step("127.0.0.1", server.port, requests,
                                   drain_s=DRAIN_S))
    finally:
        gc.enable()
    step = Step(rps=rps, run=run)
    for res in run.results:
        why = failure(res)
        if why is not None:
            step.failures.append(why)
        # A request that failed misses every latency limit: it counts
        # with the time the generator waited for it.
        done = res.done if why is None else max(res.done or 0.0, run.end)
        step.latency_ms.append((done - res.due) * 1e3)
    last = step.latency_ms[-max(1, len(step.latency_ms) // 10):]
    step.tail_ms = sum(last) / len(last)
    return step


def max_rps_at_slo(steps: List[Step]) -> float:
    """Highest sustained rate within the p99 limit, interpolated.

    Between the last passing rate and the first failing one, the rate
    is interpolated where log p99 crosses the limit, so the figure
    moves continuously rather than by whole ladder steps.
    """
    passed = [s for s in steps if s.meets_slo]
    if not passed:
        return 0.0
    best = passed[-1]
    later = [s for s in steps if s.rps > best.rps]
    if not later:
        return float(best.rps)
    fail = later[0]
    lo = math.log(max(best.p99_ms, 1e-3))
    hi = math.log(max(fail.p99_ms, fail.tail_ms, P99_LIMIT_MS * (1 + 1e-9)))
    frac = (math.log(P99_LIMIT_MS) - lo) / (hi - lo)
    return best.rps + (fail.rps - best.rps) * min(1.0, max(0.0, frac))


def climb(server: Server, seed: int) -> Tuple[List[Step], List[Step]]:
    """Climb the ladder from the nominal rate.

    Returns every measurement made, in order (the first is the nominal
    rate's, which gives the latency figures), and the ladder: one step
    per rate. A rate that misses the service level is measured once more
    before the climb ends, so one stall of the shared host does not end
    it.
    """
    tried: List[Step] = []
    steps: List[Step] = []
    for rps in LADDER_RPS:
        n = max(MIN_STEP_REQUESTS, int(rps * STEP_S))
        tried.append(measure_step(server, seed, rps, n))
        if not tried[-1].meets_slo:
            tried.append(measure_step(server, seed, rps, n))
        steps.append(tried[-1])
        if not steps[-1].meets_slo:
            break
    return tried, steps


# ----------------------------------------------------------------------
# Server-side CPU inside a generator window
# ----------------------------------------------------------------------
@dataclass
class ServerWindow:
    """What the server's clocks recorded while one step was offered, in
    reference-speed CPU seconds (:class:`perfbench.common.RefClock`)."""

    requests: int
    #: All of the server's CPU time, the collector's included.
    cpu_s: float
    #: Per request, the collector's time left out.
    handle_ms: List[float]
    #: Mean host speed over the window, as a share of the reference.
    speed: float
    gc_s: float


def server_window(stats: Dict[str, Any], start: float, end: float) -> ServerWindow:
    """Records between the first and the last engine advance inside
    ``[start, end]``; the advances' process-CPU stamps bound the window.
    The speed probes after the advances run inside the window; their
    CPU time is taken out, and their mean scales the rest."""
    from perfbench.common import REF_PROBE_S

    inside = [a for a in stats["advances"] if start <= a[0] <= end]
    if len(inside) < 2:
        raise RuntimeError("fewer than two engine advances inside the window")
    t_a, t_b = inside[0][0], inside[-1][0]
    handles = [h for h in stats["handles"] if t_a <= h[0] < t_b]
    probes = [a[4] for a in inside[:-1]]
    speed = REF_PROBE_S * len(probes) / sum(probes)
    return ServerWindow(
        requests=len(handles),
        cpu_s=(inside[-1][3] - inside[0][3] - sum(probes)) * speed,
        handle_ms=[(cpu - gc_s) * 1e3 * speed for _t0, _t1, _m, cpu, gc_s in handles],
        speed=speed,
        gc_s=(sum(h[4] for h in handles) + sum(a[5] for a in inside[:-1])) * speed,
    )


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, expected: Dict) -> Outcome:
    """Boot, warm up, offer LOAD_RPS; report the server's CPU costs.

    The serving figures are the server's reference-speed CPU times (per
    request in ``PowerService.handle``, per served request overall, per
    simulated node-second of physics): the latency a client sees also
    holds every moment the shared VM was not scheduled, which moved it
    by 2-4x between runs on the 2-core development VM. Client-side
    latencies are in the params and, with the ladder, in the traced run.
    """
    del seconds, expected  # the load fixes the run length; no pinned outputs
    if trace:
        return run_traced(seed)
    out = Outcome()
    setups: List[float] = []
    for _ in range(BOOTS - 1):
        server = Server(seed)
        setups.append(server.setup_s)
        server.stop()
    server = Server(seed)
    setups.append(server.setup_s)
    try:
        warm_up(server, out)
        step = measure_step(server, seed, LOAD_RPS, LOAD_REQUESTS)
    finally:
        stats = server.stop()
    window = server_window(stats, step.run.start, step.run.end)

    out.attempted = len(step.run.results) + WARMUP_JOBS
    out.failed = len(step.failures)
    for why in step.failures[:5]:
        out.problems.append(f"{LOAD_RPS} rps: {why}")
    out.metric("setup_s", median(setups), "s")
    physics = stats["physics"]
    out.metric("sim_node_s_per_s",
               stats["nodes"] * physics["sim_s"] / physics["cpu_s"], "node-s/s")
    out.metric("work_per_s", window.requests / window.cpu_s, "1/s")
    out.metric("op_ms_p90", percentile(window.handle_ms, 90), "ms")
    out.metric("peak_rss_mb", stats["peak_rss_mb"], "MB")
    out.params.update(
        boots=len(setups),
        offered_rps=LOAD_RPS,
        requests=len(step.run.results),
        achieved_rps=len(step.run.results) / (step.run.end - step.run.start),
        client_ms_p50=percentile(step.latency_ms, 50),
        client_ms_p99=step.p99_ms,
        gen_lag_ms_max=max(step.run.lag_s) * 1e3,
        window_requests=window.requests,
        window_cpu_s=window.cpu_s,
        host_speed=window.speed,
        physics_sim_s=physics["sim_s"],
        physics_host_speed=physics["speed"],
        gc_s=window.gc_s,
        server_jobs=stats["jobs"],
        server_counts=stats["counts"],
    )
    return out


def run_traced(seed: int) -> Outcome:
    """The ladder on an untraced server, then the nominal step on a
    traced one.

    The untraced server gives the client-side figures: latency from due
    time at the nominal rate and the highest rate within the p99 limit.
    The traced server gives the per-layer spans. The engine runs on the
    wall clock, so the two servers' simulated states differ; the trace
    overhead is the ratio of server CPU per request at the nominal rate.
    """
    out = Outcome()
    server = Server(seed)
    try:
        warm_up(server, out)
        tried, steps = climb(server, seed)
    finally:
        plain = server.stop()
    nominal = tried[0]
    plain_window = server_window(plain, nominal.run.start, nominal.run.end)

    traced_server = Server(seed, trace=True)
    try:
        warm_up(traced_server, out)
        traced_step = measure_step(traced_server, seed, NOMINAL_RPS,
                                   MIN_STEP_REQUESTS)
    finally:
        traced = traced_server.stop()
    traced_window = server_window(traced, traced_step.run.start,
                                  traced_step.run.end)

    measured = tried + [traced_step]
    out.attempted = sum(len(s.run.results) for s in measured) + 2 * WARMUP_JOBS
    out.failed = sum(len(s.failures) for s in measured)
    for step in measured:
        for why in step.failures[:5]:
            out.problems.append(f"{step.rps} rps: {why}")

    layers = dict(traced["layers"])
    gets = traced["snapshot_gets"]
    layers.update({
        "serving.read_ms_p50": percentile(traced["read_ms"], 50),
        "serving.write_ms_p50": percentile(traced["write_ms"], 50),
        "serving.queue_wait_ms_p99": percentile(traced["queue_wait_ms"], 99),
        "serving.req_ms_p50": percentile(nominal.latency_ms, 50),
        "serving.req_ms_p99": nominal.p99_ms,
        "serving.max_rps_at_slo": max_rps_at_slo(steps),
        "serving.snapshot_hit_ratio": (
            1.0 - layers["serving.snapshot_refreshes"] / gets if gets else 0.0
        ),
        "serving.advance_ms_max": max(a[1] for a in plain["advances"]) * 1e3,
        "serving.advance_s": sum(a[1] for a in plain["advances"]),
        "serving.gen_lag_ms_max": max(nominal.run.lag_s) * 1e3,
        "setup.instance_s": plain["build_s"],
        "setup.server_s": server.boot_wall_s,
        "trace.overhead_frac": (
            (traced_window.cpu_s / traced_window.requests)
            / (plain_window.cpu_s / plain_window.requests) - 1.0
        ),
    })
    out.layers = layers
    out.params.update(
        p99_limit_ms=P99_LIMIT_MS,
        ladder=[{
            "offered_rps": s.rps,
            "requests": len(s.run.results),
            "achieved_rps": len(s.run.results) / (s.run.end - s.run.start),
            "p99_ms": s.p99_ms,
            "tail_ms": s.tail_ms,
            "gen_lag_ms_max": max(s.run.lag_s) * 1e3,
            "failed": len(s.failures),
            "meets_slo": s.meets_slo,
        } for s in tried],
        traced_requests=len(traced_step.run.results),
    )
    return out
