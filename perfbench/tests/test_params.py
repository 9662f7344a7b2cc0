"""Recorded run parameters are read back from the run, and the metric
names the workloads produce are the ones BENCHMARK.json declares.

The workloads run here at a few nodes, through the same code as the
benchmark, by shrinking their size constants."""

import json
import os

import pytest

from perfbench import policy_site, serving_mix, telemetry_sweep
from perfbench.spans import LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def assert_end_to_end(out):
    """Every declared end-to-end metric, in its declared unit, never 0."""
    declared = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {name: unit for name, (_v, unit) in out.metrics.items()} == declared
    assert all(value > 0 for value, _unit in out.metrics.values())


@pytest.fixture
def small_site(monkeypatch):
    monkeypatch.setattr(policy_site, "LASSEN_NODES", 6)
    monkeypatch.setattr(policy_site, "TIOGA_NODES", 3)
    monkeypatch.setattr(policy_site, "SITE_BUDGET_W", 6 * 1500.0 + 3 * 2500.0)
    monkeypatch.setattr(policy_site, "LASSEN_MIX", {"gemm": 2, "lammps": 1})
    monkeypatch.setattr(policy_site, "TIOGA_MIX", {"quicksilver": 1})
    monkeypatch.setattr(policy_site, "LASSEN_MAX_JOB_NODES", 3)
    monkeypatch.setattr(policy_site, "TIOGA_MAX_JOB_NODES", 2)


@pytest.fixture
def small_sweep(monkeypatch):
    monkeypatch.setattr(telemetry_sweep, "N_NODES", 40)
    monkeypatch.setattr(telemetry_sweep, "MAX_SLICE", 16)
    monkeypatch.setattr(telemetry_sweep, "SLICES_PER_BLOCK", 9)
    monkeypatch.setattr(telemetry_sweep, "SETUPS", 2)


def test_policy_site_params_are_the_runs(small_site):
    out = policy_site.run(5, 0.0, False, {})
    assert out.correct, out.problems
    p = out.params
    episodes = p["episodes"]
    assert episodes >= policy_site.MIN_EPISODES and episodes == len(p["sim_s"])
    assert p["epochs"] >= policy_site.MIN_EPOCHS
    submitted = sum(len(policy_site.episode_inputs(5, k)[1]) for k in range(episodes))
    assert p["jobs_submitted"] == out.attempted == submitted
    assert p["jobs_completed"] == submitted and out.failed == 0
    assert p["nodes"] == 9
    # Re-running episode 0 reproduces the recorded digest and end time.
    again = policy_site.run_episode(5, 0)
    assert p["site_digest_episode0"] == again.digest
    assert p["sim_s"][0] == again.sim_end_s
    assert_end_to_end(out)


def test_policy_site_traced_layers_are_declared(small_site):
    out = policy_site.run(5, 0.0, True, {})
    assert out.correct, out.problems
    declared = {m["name"] for m in spec()["per_layer"]}
    assert set(out.layers) <= declared
    assert {f"{layer}.self_s" for layer in LAYERS} <= declared
    assert out.layers["federation.rebalances"] > 0
    assert out.layers["hardware.power_reads"] > 0


def test_telemetry_sweep_params_are_the_runs(small_sweep):
    out = telemetry_sweep.run(2, 0.0, False, {})
    assert out.correct, out.problems
    p = out.params
    per_block = telemetry_sweep.SLICES_PER_BLOCK + 1  # + one whole-machine query
    n = p["queries"]
    assert n == out.attempted and n % per_block == 0 and n >= 100
    run_queries = [q for b in range(n // per_block)
                   for q in telemetry_sweep.block_queries(2, b)]
    assert p["ranks_queried"] == sum(r for _t, _f, r in run_queries)
    assert p["samples_returned"] == p["ranks_queried"] * 30
    assert p["setups"] == 2 and p["nodes"] == 40
    assert_end_to_end(out)


def test_block_queries_are_seeded_with_fixed_sizes():
    a = telemetry_sweep.block_queries(7, 0)
    assert a == telemetry_sweep.block_queries(7, 0)
    assert a != telemetry_sweep.block_queries(8, 0)
    sizes = sorted(r for _t, _f, r in a)
    assert sizes[-1] == telemetry_sweep.N_NODES
    assert sizes[0] == 1 and 3000 <= sizes[-2] <= telemetry_sweep.MAX_SLICE
    # Fixed points of the strata: every seed asks for the same sizes, and
    # the points cycle from block to block.
    def block_sizes(seed, block):
        return sorted(r for _t, _f, r in telemetry_sweep.block_queries(seed, block))

    assert block_sizes(8, 0) == sizes
    assert block_sizes(8, 1) != sizes
    assert block_sizes(8, telemetry_sweep.SIZE_PHASES) == sizes
    times = [t for t, _f, _r in a]
    assert times == sorted(times) and all(t % 1.0 == 0.5 for t in times)


def test_serving_requests_are_valid_by_construction():
    reqs = serving_mix.step_requests(3, 1000, 2000)
    assert reqs == serving_mix.step_requests(3, 1000, 2000)
    assert len(reqs) == 2000
    offsets = [r.offset_s for r in reqs]
    assert offsets == sorted(offsets)
    # The offered rate is the requested one, within sampling noise.
    assert abs(len(reqs) / offsets[-1] - 1000) < 100
    submits = [r for r in reqs if r.method == "POST" and r.target.endswith("/jobs")]
    assert 0.08 < len(submits) / len(reqs) < 0.16
    assert all(r.expect == (201, 202, 403) and "user" in r.body for r in submits)
    for r in reqs:
        if "/jobs/" in r.target:
            jobid = int(r.target.split("/")[5].split("?")[0])
            assert 1 <= jobid <= serving_mix.WARMUP_JOBS


def test_serving_mix_params_are_the_runs(monkeypatch):
    monkeypatch.setattr(serving_mix, "BOOTS", 1)
    monkeypatch.setattr(serving_mix, "LOAD_REQUESTS", 2000)
    out = serving_mix.run(4, 0.0, False, {})
    assert out.correct, out.problems
    p = out.params
    assert p["boots"] == 1
    assert p["requests"] == 2000 and out.attempted == 2000 + serving_mix.WARMUP_JOBS
    assert 0 < p["window_requests"] <= 2000
    # Achieved is measured, not copied from the offered rate.
    assert p["achieved_rps"] != p["offered_rps"]
    assert abs(p["achieved_rps"] - p["offered_rps"]) < 0.2 * p["offered_rps"]
    assert p["server_counts"]["tenancy.decisions"] > 0
    assert_end_to_end(out)
