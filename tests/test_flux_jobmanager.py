"""Unit tests for jobspecs and the job manager lifecycle."""

import pytest

from repro.flux.instance import FluxInstance
from repro.flux.jobspec import Jobspec, JobState


# ---------------------------------------------------------------------------
# Jobspec validation
# ---------------------------------------------------------------------------

def test_jobspec_requires_positive_nodes():
    with pytest.raises(ValueError):
        Jobspec(app="gemm", nnodes=0)


def test_jobspec_launcher_validated():
    with pytest.raises(ValueError):
        Jobspec(app="gemm", nnodes=1, launcher="slurm")


def test_jobspec_label():
    assert Jobspec(app="gemm", nnodes=2).label == "gemm-2n"
    assert Jobspec(app="gemm", nnodes=2, name="mine").label == "mine"


def test_jobstate_active_classification():
    assert JobState.RUNNING.active
    assert JobState.SUBMITTED.active
    assert not JobState.COMPLETED.active
    assert not JobState.CANCELLED.active


# ---------------------------------------------------------------------------
# Lifecycle on a real instance
# ---------------------------------------------------------------------------

def test_job_runs_to_completion(lassen4):
    rec = lassen4.submit(Jobspec(app="laghos", nnodes=2))
    lassen4.run_until_complete()
    assert rec.state is JobState.COMPLETED
    assert rec.t_start == 0.0
    assert rec.t_end == pytest.approx(12.55, abs=1.5)
    assert rec.ranks == [0, 1]


def test_fcfs_queues_when_full(lassen4):
    a = lassen4.submit(Jobspec(app="laghos", nnodes=3))
    b = lassen4.submit(Jobspec(app="laghos", nnodes=3))
    lassen4.run_until_complete()
    assert b.t_start >= a.t_end  # b waited for a's nodes


def test_parallel_jobs_share_cluster(lassen4):
    a = lassen4.submit(Jobspec(app="laghos", nnodes=2))
    b = lassen4.submit(Jobspec(app="laghos", nnodes=2))
    lassen4.run_until_complete()
    assert a.t_start == b.t_start == 0.0
    assert set(a.ranks).isdisjoint(b.ranks)


def test_job_too_large_rejected(lassen4):
    with pytest.raises(ValueError):
        lassen4.submit(Jobspec(app="laghos", nnodes=99))


def test_unknown_app_fails_at_execution(lassen4):
    with pytest.raises(KeyError):
        lassen4.submit(Jobspec(app="doom", nnodes=1))
        lassen4.run_until_complete()


def test_cancel_queued_job(lassen4):
    a = lassen4.submit(Jobspec(app="gemm", nnodes=4))
    b = lassen4.submit(Jobspec(app="laghos", nnodes=4))
    lassen4.jobmanager.cancel(b.jobid)
    lassen4.run_until_complete()
    assert b.state is JobState.CANCELLED
    assert a.state is JobState.COMPLETED


def test_cancel_running_job_rejected(lassen4):
    a = lassen4.submit(Jobspec(app="gemm", nnodes=1))
    lassen4.run_for(5.0)
    with pytest.raises(RuntimeError):
        lassen4.jobmanager.cancel(a.jobid)
    lassen4.run_until_complete()


def test_job_state_events_published(lassen4):
    topics = []
    lassen4.brokers[2].subscribe("job-state.", lambda m: topics.append(m.topic))
    lassen4.submit(Jobspec(app="laghos", nnodes=1))
    lassen4.run_until_complete()
    lassen4.run_for(1.0)  # let trailing events broadcast
    assert "job-state.submitted" in topics
    assert "job-state.scheduled" in topics
    assert "job-state.running" in topics
    assert "job-state.completed" in topics


def test_kvs_record_updated(lassen4):
    rec = lassen4.submit(Jobspec(app="laghos", nnodes=2))
    lassen4.run_until_complete()
    kvs_rec = lassen4.kvs.get(f"jobs.{rec.jobid}")
    assert kvs_rec["state"] == "completed"
    assert kvs_rec["ranks"] == rec.ranks
    assert kvs_rec["t_end"] is not None


def test_makespan(lassen4):
    lassen4.submit(Jobspec(app="laghos", nnodes=4))
    lassen4.submit(Jobspec(app="laghos", nnodes=4))
    lassen4.run_until_complete()
    assert lassen4.jobmanager.makespan_s() == pytest.approx(2 * 12.55, abs=2.0)


def test_submit_rpc_service(lassen4):
    fut = lassen4.brokers[3].rpc(
        0, "job-manager.submit", {"app": "laghos", "nnodes": 1}
    )
    lassen4.run_for(0.1)
    jobid = fut.value["jobid"]
    lassen4.run_until_complete()
    assert lassen4.jobmanager.jobs[jobid].state is JobState.COMPLETED


def test_list_rpc_service(lassen4):
    lassen4.submit(Jobspec(app="laghos", nnodes=1))
    lassen4.run_until_complete()
    fut = lassen4.brokers[1].rpc(0, "job-manager.list", {})
    lassen4.run_for(0.1)
    jobs = fut.value["jobs"]
    assert len(jobs) == 1 and jobs[0]["app"] == "laghos"


def test_runtime_property():
    rec_spec = Jobspec(app="laghos", nnodes=1)
    inst = FluxInstance(platform="lassen", n_nodes=1, seed=0)
    rec = inst.submit(rec_spec)
    assert rec.runtime_s is None
    inst.run_until_complete()
    assert rec.runtime_s == pytest.approx(rec.t_end - rec.t_start)


# ---------------------------------------------------------------------------
# Live-job set: all_complete() without a scan
# ---------------------------------------------------------------------------

def _scan_complete(jm) -> bool:
    return all(not r.state.active for r in jm.jobs.values())


def _step_checking(inst, jm, until=None) -> None:
    while not _scan_complete(jm) and (until is None or inst.sim.now < until):
        assert jm.all_complete() is False
        assert inst.sim.step()
    assert jm.all_complete() == _scan_complete(jm)


def test_all_complete_agrees_with_scan_across_every_transition(lassen4):
    """submit, cancel, broken-dependency cancel, job_failed, completion."""
    jm = lassen4.jobmanager
    assert jm.all_complete() and _scan_complete(jm)
    done = lassen4.submit(Jobspec(app="laghos", nnodes=2))
    crash = lassen4.submit(
        Jobspec(app="laghos", nnodes=2, params={"fail_at_s": 3.0})
    )
    queued = lassen4.submit(Jobspec(app="laghos", nnodes=4))
    orphan = jm.submit(Jobspec(app="gemm", nnodes=1), depends_on=[queued.jobid])
    failed_dep = jm.submit(Jobspec(app="gemm", nnodes=1), depends_on=[crash.jobid])
    assert jm.all_complete() is False
    _step_checking(lassen4, jm, until=1.0)
    jm.cancel(queued.jobid)
    assert queued.state is JobState.CANCELLED
    assert not jm.all_complete() and not _scan_complete(jm)
    _step_checking(lassen4, jm)
    assert done.state is JobState.COMPLETED
    assert crash.state is JobState.FAILED
    assert orphan.state is JobState.CANCELLED
    assert failed_dep.state is JobState.CANCELLED
    assert jm.all_complete() and _scan_complete(jm)
    # A fresh submit after everything drained makes the set live again.
    again = lassen4.submit(Jobspec(app="nqueens", nnodes=1))
    assert not jm.all_complete() and not _scan_complete(jm)
    _step_checking(lassen4, jm)
    assert again.state is JobState.COMPLETED


@pytest.mark.parametrize("sharded", [False, True])
def test_site_all_complete_waits_for_deferred_arrivals(sharded):
    from repro.federation import ClusterSpec, SiteConfig, create_site

    config = SiteConfig(
        site_budget_w=40000.0,
        rebalance_epoch_s=10.0,
        sharded=sharded,
        clusters=(
            ClusterSpec(name="alpha", platform="lassen", n_nodes=4,
                        node_peak_w=3050.0),
            ClusterSpec(name="beta", platform="tioga", n_nodes=2,
                        node_peak_w=3200.0),
        ),
    )
    site = create_site(config, 5)
    site.submit("alpha", Jobspec(app="laghos", nnodes=1))
    site.submit_at("beta", Jobspec(app="laghos", nnodes=1), 40.0)
    assert not site.all_complete()
    site.run_for(30.0)
    # alpha's job is done, beta's has not arrived: still incomplete.
    alpha = site.clusters["alpha"].instance.jobmanager
    beta = site.clusters["beta"].instance.jobmanager
    assert alpha.all_complete() and _scan_complete(alpha)
    assert len(beta.jobs) == 0
    assert not site.all_complete()
    site.run_until_complete()
    assert site.all_complete()
    for jm in (alpha, beta):
        assert len(jm.jobs) == 1
        assert jm.all_complete() and _scan_complete(jm)
