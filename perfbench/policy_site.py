"""policy_site: the paper's dynamic power-management hierarchy on both
vendor backends, run to completion.

One federated site on a shared engine: a Lassen cluster (IBM backend)
under FPP with the 1950 W OPAL node cap as backstop, and a Tioga
cluster (AMD backend, capping disabled) under proportional sharing.
Both draw on one site budget rebalanced every 10 simulated seconds.
Each cluster gets a seeded random queue in the paper's application
mix. Hardware, manager, apps, job manager and federation do the work;
nothing queries telemetry.

A run repeats *episodes* — build a site, run its queue to completion —
as many as ``--seconds`` holds at their measured cost. Episode ``k`` of
seed ``s`` always has the same inputs, so episode 0 of the default seed
is pinned in ``expected.json``.

Times are reference-speed CPU seconds (:class:`perfbench.common.RefClock`).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from perfbench.common import (
    DEFAULT_SEED,
    Outcome,
    RefClock,
    layer_report,
    peak_rss_mb,
    registry_counts,
)
from perfbench.stats import median, percentile

LASSEN_NODES = 192
TIOGA_NODES = 32
LASSEN_NODE_CAP_W = 1950.0
#: Per-node budget shares: Lassen below its 1950 W backstop so FPP and
#: the OPAL cap both bind; Tioga near its draw (it cannot be capped).
SITE_BUDGET_W = LASSEN_NODES * 1500.0 + TIOGA_NODES * 2500.0
REBALANCE_EPOCH_S = 10.0
#: A rebalance epoch runs as this many calls to ``run_until_complete``.
EPOCH_CHUNKS = 10
#: Jobs per cluster, in the paper's Section IV-E proportions.
LASSEN_MIX = {"laghos": 15, "quicksilver": 10, "lammps": 15, "gemm": 10}
TIOGA_MIX = {"laghos": 4, "quicksilver": 3, "lammps": 4, "gemm": 3}
LASSEN_MAX_JOB_NODES = 24
TIOGA_MAX_JOB_NODES = 8
SUBMIT_SPREAD_S = 150.0
#: Problem-size multiplier for every job: sizes an episode to about
#: 20-25 rebalance epochs, so a run holds several episodes.
WORK_SCALE = 0.4
#: Setup is reported as a median, so a run has at least this many
#: episodes; op_ms_p90 needs 100 epochs (10 beyond the percentile).
MIN_EPISODES = 3
MIN_EPOCHS = 100
#: A run's work is fixed by --seconds, never by how fast it goes, so two
#: commits measure the same work: one episode per EPISODE_COST_S of the
#: budget (a reference-speed cost), then more until MIN_EPOCHS.
EPISODE_COST_S = 6.0

#: Physical ceiling of a Tioga node (the AMD model's peak draw).
TIOGA_NODE_PEAK_W = 3050.0


def site_config():
    from repro.federation import ClusterSpec, SiteConfig

    return SiteConfig(
        site_budget_w=SITE_BUDGET_W,
        rebalance_epoch_s=REBALANCE_EPOCH_S,
        clusters=(
            ClusterSpec(name="lassen", platform="lassen", n_nodes=LASSEN_NODES,
                        fanout=8, policy="fpp",
                        static_node_cap_w=LASSEN_NODE_CAP_W),
            ClusterSpec(name="tioga", platform="tioga", n_nodes=TIOGA_NODES,
                        fanout=8, policy="proportional"),
        ),
    )


def cluster_queue(rng: np.random.Generator, mix: Dict[str, int],
                  max_nodes: int) -> List:
    """A seeded queue in the paper's application mix.

    Job sizes are spread evenly over ``[1, max_nodes]`` and paired with
    the jobs by a fixed shuffle, so every seed asks for the same work.
    The seed orders the arrivals and draws their times, one per equal
    slice of the submit spread. With sizes and times drawn independently
    per job, as ``make_random_queue`` does, the machine's load, and with
    it every figure, moved by ±10 % between seeds.
    """
    from repro.apps.workloads import QueueJob
    from repro.flux.jobspec import Jobspec

    apps = [app for app in sorted(mix) for _ in range(mix[app])]
    n = len(apps)
    sizes = np.round(np.linspace(1, max_nodes, n)).astype(int)
    sizes = sizes[np.random.default_rng(0).permutation(n)]
    slots = rng.permutation(n) + rng.random(n)
    offsets = slots * (SUBMIT_SPREAD_S / n)
    return [
        QueueJob(
            spec=Jobspec(app=apps[i], nnodes=int(sizes[i]),
                         params={"work_scale": WORK_SCALE}, name=f"{apps[i]}-{i}"),
            submit_offset_s=float(offsets[i]),
        )
        for i in np.argsort(offsets)
    ]


def episode_inputs(seed: int, episode: int):
    """(site seed, [(cluster, QueueJob)]) for one episode."""
    rng = np.random.default_rng([seed, episode])
    site_seed = int(rng.integers(2**31 - 1))
    queue = [("lassen", q) for q in cluster_queue(rng, LASSEN_MIX, LASSEN_MAX_JOB_NODES)]
    queue += [("tioga", q) for q in cluster_queue(rng, TIOGA_MIX, TIOGA_MAX_JOB_NODES)]
    return site_seed, queue


@dataclass
class Episode:
    setup_s: float
    run_s: float
    #: Unscaled CPU seconds of set-up and run, and the mean host speed.
    cpu_s: float
    speed: float
    sim_end_s: float
    n_nodes: int
    digest: str
    submitted: int
    completed: int
    #: (cluster, jobid, app, nnodes, runtime_s, max W, energy kJ)
    jobs: List[Tuple] = field(default_factory=list)
    budget_ok: bool = True
    #: Idle draw of each cluster's nodes, in W (the floor of any job's).
    idle_w: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    #: Host seconds per rebalance epoch (the workload's unit operation),
    #: and the collector's share of each.
    epoch_s: List[float] = field(default_factory=list)
    epoch_gc_s: List[float] = field(default_factory=list)

    @property
    def node_s_per_s(self) -> float:
        return self.n_nodes * self.sim_end_s / self.run_s

    def outputs(self) -> Tuple:
        """Everything simulated this episode produced, for bitwise compares."""
        return (self.digest, self.sim_end_s, tuple(self.jobs))


def run_one_epoch(site, clock: RefClock) -> bool:
    """Advance the site by one rebalance epoch through its public
    ``run_until_complete``; True once every job is done.

    ``run_until_complete(timeout_s)`` polls the job managers after every
    event and raises once simulated time passes the timeout; calling it
    again resumes where it stopped, so a chain of calls processes the
    same events as one call to completion. An epoch is EPOCH_CHUNKS such
    calls, and the clock may probe the host's speed between them.
    """
    for _ in range(EPOCH_CHUNKS):
        try:
            site.run_until_complete(timeout_s=REBALANCE_EPOCH_S / EPOCH_CHUNKS)
        except RuntimeError as exc:
            if "timeout" not in str(exc):
                raise
            clock.tick()
            continue
        return True
    return False


def run_episode(seed: int, episode: int) -> Episode:
    from repro.federation import create_site

    site_seed, queue = episode_inputs(seed, episode)
    clock = RefClock()
    site, setup_s = clock.timed(create_site, site_config(), site_seed)
    for cluster, entry in queue:
        site.submit_at(cluster, entry.spec, entry.submit_offset_s)
    epoch_s: List[float] = []
    epoch_gc_s: List[float] = []
    while True:
        done, seconds = clock.timed(run_one_epoch, site, clock)
        epoch_s.append(seconds)
        epoch_gc_s.append(clock.last_gc_s)
        if done:
            break

    jobs = []
    submitted = completed = 0
    for name in sorted(site.clusters):
        cluster = site.clusters[name]
        jm = cluster.instance.jobmanager
        submitted += len(jm.jobs)
        for jobid, m in sorted(cluster.all_metrics().items()):
            completed += 1
            jobs.append((name, jobid, m.app, m.nnodes, m.runtime_s,
                         m.max_node_power_w, m.avg_node_energy_kj))
    budget_ok = all(
        sum(shares.values()) <= site.site_budget_w * (1 + 1e-9)
        for _t, _reason, shares, _live in site.budget_log
    )
    return Episode(
        setup_s=setup_s,
        run_s=sum(epoch_s),
        cpu_s=clock.raw_s,
        speed=clock.speed(),
        sim_end_s=site.sim.now,
        n_nodes=sum(c.instance.n_nodes for c in site.clusters.values()),
        digest=site.site_digest(),
        submitted=submitted,
        completed=completed,
        jobs=jobs,
        budget_ok=budget_ok,
        idle_w={name: min(n.idle_power_w() for n in c.instance.nodes)
                for name, c in site.clusters.items()},
        counts=registry_counts(site.sim),
        epoch_s=epoch_s,
        epoch_gc_s=epoch_gc_s,
    )


def check_episode(ep: Episode, expected_jobs: int, out: Outcome, label: str) -> None:
    out.check(ep.submitted == expected_jobs,
              f"{label}: {ep.submitted} jobs reached the job managers, "
              f"{expected_jobs} were submitted")
    out.check(ep.completed == ep.submitted,
              f"{label}: {ep.completed}/{ep.submitted} jobs completed")
    out.check(ep.budget_ok, f"{label}: a rebalance split more than the site budget")
    for cluster, jobid, app, nnodes, runtime, max_w, energy_kj in ep.jobs:
        where = f"{label}: {cluster} job {jobid} ({app})"
        ceiling = LASSEN_NODE_CAP_W if cluster == "lassen" else TIOGA_NODE_PEAK_W
        idle_w = ep.idle_w[cluster]
        out.check(runtime > 0.0, f"{where}: runtime {runtime}")
        out.check(idle_w <= max_w <= ceiling + 1e-6,
                  f"{where}: peak node power {max_w} W outside [{idle_w}, {ceiling}]")
        # A node's energy lies between its idle draw and the job's peak
        # draw over the runtime; a job that drew constant power sits on
        # the upper bound up to rounding, so the check is tight for it.
        low, high = idle_w * runtime, max_w * runtime
        out.check(low * (1 - 1e-9) <= energy_kj * 1e3 <= high * (1 + 1e-9),
                  f"{where}: energy {energy_kj * 1e3} J outside "
                  f"[{low}, {high}] (idle / peak W x {runtime} s)")


def check_expected(ep: Episode, expected: Dict, out: Outcome) -> None:
    """Episode 0 of the default seed against the pinned outputs."""
    out.check(ep.digest == expected["site_digest"],
              f"site_digest {ep.digest} != expected {expected['site_digest']}")
    got = {f"{c}/{j}": [rt, e] for c, j, _a, _n, rt, _m, e in ep.jobs}
    for key, (runtime, energy) in expected["jobs"].items():
        pair = got.get(key)
        ok = pair is not None and abs(pair[0] - runtime) <= 1e-9 * runtime \
            and abs(pair[1] - energy) <= 1e-9 * energy
        out.check(ok, f"job {key}: (runtime, energy) {pair} != expected "
                      f"{[runtime, energy]}")
    out.check(len(got) == len(expected["jobs"]),
              f"{len(got)} jobs completed, expected {len(expected['jobs'])}")


def expected_record(ep: Episode) -> Dict:
    return {
        "site_digest": ep.digest,
        "jobs": {f"{c}/{j}": [rt, e] for c, j, _a, _n, rt, _m, e in ep.jobs},
    }


def run(seed: int, seconds: float, trace: bool, expected: Dict) -> Outcome:
    if trace:
        return run_traced(seed, expected)
    out = Outcome()
    episodes: List[Episode] = []
    planned = max(MIN_EPISODES, int(seconds // EPISODE_COST_S))
    # The epoch count is simulated, so topping up is deterministic too.
    while (len(episodes) < planned
           or sum(len(e.epoch_s) for e in episodes) < MIN_EPOCHS):
        gc.collect()
        episodes.append(run_episode(seed, len(episodes)))

    for k, ep in enumerate(episodes):
        check_episode(ep, len(episode_inputs(seed, k)[1]), out, f"episode {k}")
    if seed == DEFAULT_SEED:
        check_expected(episodes[0], expected, out)

    # Collector pauses count in the throughputs, not in the epoch times.
    epochs_ms = [(s - g) * 1e3 for e in episodes
                 for s, g in zip(e.epoch_s, e.epoch_gc_s)]
    out.attempted = sum(e.submitted for e in episodes)
    out.failed = sum(e.submitted - e.completed for e in episodes)
    out.metric("setup_s", median([e.setup_s for e in episodes]), "s")
    out.metric("sim_node_s_per_s", median([e.node_s_per_s for e in episodes]),
               "node-s/s")
    out.metric("work_per_s", median([e.completed / e.run_s for e in episodes]),
               "1/s")
    out.metric("op_ms_p90", percentile(epochs_ms, 90), "ms")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    out.params.update(
        episodes=len(episodes),
        jobs_submitted=out.attempted,
        jobs_completed=sum(e.completed for e in episodes),
        nodes=episodes[0].n_nodes,
        epochs=len(epochs_ms),
        sim_s=[e.sim_end_s for e in episodes],
        site_digest_episode0=episodes[0].digest,
        cpu_s=[e.cpu_s for e in episodes],
        host_speed=[e.speed for e in episodes],
        gc_s=[sum(e.epoch_gc_s) for e in episodes],
        events=[e.counts["simkernel.events"] for e in episodes],
    )
    return out


def run_traced(seed: int, expected: Dict) -> Outcome:
    """Episode 0 untraced, then again under spans; the traced copy must
    reproduce the untraced outputs bit for bit."""
    from perfbench.spans import LayerTracer

    out = Outcome()
    gc.collect()
    plain = run_episode(seed, 0)
    tracer = LayerTracer()
    tracer.install()
    try:
        gc.collect()
        tracer.start()
        traced = run_episode(seed, 0)
        tracer.stop()
    finally:
        tracer.uninstall()

    check_episode(plain, len(episode_inputs(seed, 0)[1]), out, "untraced")
    out.check(traced.outputs() == plain.outputs(),
              "traced episode's simulated outputs differ from the untraced one")
    if seed == DEFAULT_SEED:
        check_expected(plain, expected, out)

    plain_cpu = plain.setup_s + plain.run_s
    traced_cpu = traced.setup_s + traced.run_s
    out.attempted = traced.submitted
    out.failed = traced.submitted - traced.completed
    out.layers = layer_report(tracer, traced.counts)
    out.layers["setup.instance_s"] = plain.setup_s
    out.layers["trace.overhead_frac"] = traced_cpu / plain_cpu - 1.0
    out.layers["gc.pause_s"] = sum(plain.epoch_gc_s)
    out.params.update(
        episodes=1, jobs_submitted=traced.submitted,
        jobs_completed=traced.completed, nodes=traced.n_nodes,
        untraced_cpu_s=plain_cpu, traced_cpu_s=traced_cpu,
    )
    return out
