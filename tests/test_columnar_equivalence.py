"""Hypothesis pins: vectorized hot paths equal their scalar references.

The columnar store (ISSUE 8) is only allowed to exist because every
vectorized twin is *bitwise* equal to the scalar code it replaces:

* :func:`repro.columnar.ops.split_budget_np` /
  :func:`~repro.columnar.ops.split_site_budget_np` /
  :func:`~repro.columnar.ops.per_node_share_np` vs the pure scalar
  split functions, element for element on random shapes;
* :func:`repro.telemetry.metrics.repeat_add` (the bulk replay of
  deferred accountant charges) vs the sequential ``+=`` loop;
* vectorized sample generation: a whole-machine job-power query under
  ``columnar=True`` returns payloads identical to the scalar agents',
  including across a mid-window power mutation (template rebuild).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar.ops import (
    per_node_share_np,
    split_budget_np,
    split_site_budget_np,
)
from repro.federation.rebalance import split_site_budget
from repro.manager.policies.proportional import per_node_share, split_budget
from repro.telemetry.metrics import repeat_add

# ---------------------------------------------------------------------------
# split_budget / per_node_share
# ---------------------------------------------------------------------------

budgets = st.floats(0.0, 5e6, allow_nan=False, allow_infinity=False)
peaks = st.floats(1.0, 5000.0, allow_nan=False, allow_infinity=False)


@given(
    budget=budgets,
    peak=peaks,
    job_nodes=st.dictionaries(
        st.integers(1, 10_000), st.integers(0, 800), max_size=32
    ),
)
def test_split_budget_np_matches_scalar(budget, peak, job_nodes):
    scalar = split_budget(budget, job_nodes, peak)
    vector = split_budget_np(budget, job_nodes, peak)
    assert vector == scalar  # exact float equality, key for key


@given(
    budget=budgets,
    peak=peaks,
    active=st.lists(st.integers(1, 100_000), min_size=1, max_size=64),
)
def test_per_node_share_np_matches_scalar(budget, peak, active):
    vector = per_node_share_np(budget, active, peak)
    for i, n in enumerate(active):
        assert float(vector[i]) == per_node_share(budget, n, peak)


# ---------------------------------------------------------------------------
# split_site_budget
# ---------------------------------------------------------------------------

_names = st.lists(
    st.sampled_from(["alpha", "beta", "gamma", "delta", "eps", "zeta"]),
    min_size=1,
    max_size=6,
    unique=True,
)


@st.composite
def site_cases(draw):
    names = draw(_names)
    budget = draw(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
    demands = {
        c: draw(st.floats(0.0, 4e5, allow_nan=False, allow_infinity=False))
        for c in names
    }
    floors = None
    if draw(st.booleans()):
        # Floors that are satisfiable by construction: carve fractions
        # of the budget so their sum stays below it.
        remaining = budget
        floors = {}
        for c in names:
            frac = draw(st.floats(0.0, 0.9))
            floors[c] = remaining * frac / len(names)
            remaining -= floors[c]
    ceilings = None
    if draw(st.booleans()):
        ceilings = {}
        for c in names:
            if draw(st.booleans()):
                lo = (floors or {}).get(c, 0.0)
                ceilings[c] = lo + draw(st.floats(0.0, 5e5))
            else:
                ceilings[c] = None
    return budget, demands, floors, ceilings


_SIX = ("alpha", "beta", "gamma", "delta", "eps", "zeta")


@given(case=site_cases())
# The top-up sums pinned shares in the order clusters were pinned, not
# in name order: summing by name put ``eps`` one ulp low here.
@example(case=(
    549813.5,
    {c: 1.0 if c == "zeta" else 0.0 for c in _SIX},
    {**{c: 0.0 for c in _SIX}, "delta": 45817.791666666664,
     "eps": 41999.64236111111, "zeta": 21656.065592447914},
    {**{c: 0.0 for c in _SIX}, "gamma": 135000.0,
     "delta": 45817.84166666667, "eps": None, "zeta": 21656.065592447914},
))
def test_split_site_budget_np_matches_scalar(case):
    budget, demands, floors, ceilings = case
    scalar = split_site_budget(budget, demands, floors, ceilings)
    vector = split_site_budget_np(budget, demands, floors, ceilings)
    assert set(vector) == set(scalar)
    for name in scalar:
        assert vector[name] == scalar[name], (
            f"{name}: {vector[name]!r} != {scalar[name]!r}"
        )


# ---------------------------------------------------------------------------
# repeat_add (bulk deferred-charge replay)
# ---------------------------------------------------------------------------


@given(
    base=st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
    amount=st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    count=st.integers(0, 5000),
)
def test_repeat_add_matches_sequential_loop(base, amount, count):
    expect = base
    for _ in range(count):
        expect += amount
    got = repeat_add(base, amount, count)
    assert math.isinf(got) == math.isinf(expect)
    if not math.isinf(expect):
        assert got == expect  # bitwise: same left-to-right IEEE adds


def test_repeat_add_crosses_chunk_boundary():
    """Chunked accumulation equals one unbroken sequential pass."""
    count = (1 << 20) + 17
    expect = 5.0
    for _ in range(count):
        expect += 0.3e-3
    assert repeat_add(5.0, 0.3e-3, count) == expect


# ---------------------------------------------------------------------------
# vectorized sample generation == scalar agents, through a real query
# ---------------------------------------------------------------------------


def _whole_machine_query(columnar: bool, n_nodes: int, platform: str,
                         mutate_at: float, window_s: float):
    from repro.flux.instance import FluxInstance
    from repro.monitor.module import attach_monitor
    from repro.monitor.root_agent import GET_JOB_POWER_TOPIC

    inst = FluxInstance(platform=platform, n_nodes=n_nodes, seed=11)
    attach_monitor(inst, sample_interval_s=2.0, columnar=columnar)
    # A mid-window power mutation forces a segment/template rebuild on
    # the columnar side (and a template invalidation on the scalar one).
    first = inst.brokers[0].node

    def _mutate() -> None:
        gpus = first.gpu_domains
        if gpus:
            gpus[0].set_demand(175.0)

    inst.sim.schedule(mutate_at, _mutate)
    inst.run_for(window_s)
    fut = inst.brokers[0].rpc(
        0,
        GET_JOB_POWER_TOPIC,
        {"ranks": list(range(n_nodes)), "t_start": 0.0, "t_end": window_s},
    )
    while not fut.triggered:
        if not inst.sim.step():
            raise RuntimeError("drained before query completed")
    payload = fut.value
    # The columnar side carries a lazy ColumnarSamples view; materialise
    # both sides so dict equality compares the actual sample contents.
    for node in payload["nodes"]:
        node["samples"] = list(node["samples"])
    return payload


@settings(max_examples=10, deadline=None)
@given(
    n_nodes=st.integers(1, 6),
    platform=st.sampled_from(["lassen", "tioga", "elcapitan"]),
    mutate_at=st.floats(0.5, 18.0, allow_nan=False),
)
def test_columnar_query_equals_scalar_query(n_nodes, platform, mutate_at):
    window = 20.0
    scalar = _whole_machine_query(False, n_nodes, platform, mutate_at, window)
    columnar = _whole_machine_query(True, n_nodes, platform, mutate_at, window)
    assert columnar == scalar  # full payload: every rank, every sample


@pytest.mark.parametrize("platform", ["lassen", "elcapitan"])
def test_columnar_query_equality_with_restart(platform):
    """Crash/restart (dead-mask + ring freeze) keeps payload equality."""
    from repro.cluster import PowerManagedCluster
    from repro.faults import FaultEvent, FaultPlan
    from repro.flux.jobspec import Jobspec
    from repro.manager.cluster_manager import ManagerConfig

    def run(columnar: bool):
        cluster = PowerManagedCluster(
            platform=platform,
            n_nodes=8,
            seed=21,
            manager_config=ManagerConfig(
                global_cap_w=12_000.0,
                policy="proportional",
                static_node_cap_w=1800.0,
            ),
            fault_plan=FaultPlan(
                [
                    FaultEvent(t=7.5, kind="crash", rank=3),
                    FaultEvent(t=14.0, kind="restart", rank=3),
                ]
            ),
            monitor_columnar=columnar,
        )
        job = cluster.submit(Jobspec(app="gemm", nnodes=6))
        cluster.run_until_complete(timeout_s=1_000_000)
        cluster.run_for(4.0)
        return cluster.monitor.client.fetch(job.jobid, timeout_s=300.0).to_csv()

    assert run(True) == run(False)
