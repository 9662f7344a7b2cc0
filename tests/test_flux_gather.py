"""``Module.gather``: the monitor's fan-out primitive.

Pins what the gather must reproduce of the per-leg retry semantics
(backoff schedule, counters, late replies to replaced attempts) and
what it exists for: a fault-free fan-out costs about two engine events
per leg and leaves no deadline behind on the heap.
"""

from __future__ import annotations

import pytest

from repro.flux.instance import FluxInstance
from repro.flux.message import FluxRPCError, MessageType, RPCTimeoutError
from repro.flux.module import Module, RetryConfig
from repro.monitor.module import attach_monitor
from repro.monitor.node_agent import QUERY_TOPIC
from repro.monitor.root_agent import GET_JOB_POWER_TOPIC, SUBTREE_TOPIC
from repro.simkernel import Process, SimEvent, Simulator


def _counter_total(inst, name: str) -> float:
    return sum(m.value for m in inst.telemetry.metrics.series_for(name))


def _query(inst, ranks):
    """Drive one get-job-power query to completion; return its node list."""
    fut = inst.brokers[0].rpc(
        0, GET_JOB_POWER_TOPIC, {"ranks": ranks, "t_start": 0.0, "t_end": 10.0}
    )
    while not fut.triggered:
        assert inst.sim.step(), "simulation drained"
    return fut.value["nodes"]


def _monitored(strategy: str, n_nodes: int = 8) -> FluxInstance:
    inst = FluxInstance(platform="lassen", n_nodes=n_nodes, seed=7)
    attach_monitor(inst, strategy=strategy)
    inst.run_for(10.5)  # between sampling ticks
    return inst


def _install_hook(inst, hook) -> None:
    for broker in inst.brokers:
        broker.fault_hook = hook


# ----------------------------------------------------------------------
# SimEvent callbacks
# ----------------------------------------------------------------------
def test_callbacks_run_synchronously_without_engine_events():
    sim = Simulator()
    ev = SimEvent(sim)
    seen = []
    ev.add_callback(lambda e: seen.append(("a", e.value)))
    ev.add_callback(lambda e: seen.append(("b", e.value)))
    ev.succeed(42)
    assert seen == [("a", 42), ("b", 42)]
    assert sim.pending() == 0
    ev.add_callback(lambda e: seen.append(("late", e.value)))  # already done
    assert seen[-1] == ("late", 42)


def test_callbacks_see_failures():
    sim = Simulator()
    ev = SimEvent(sim)
    seen = []

    def cb(e):
        with pytest.raises(ValueError):
            e.value
        seen.append(True)

    ev.add_callback(cb)
    ev.fail(ValueError("boom"))
    assert seen == [True]


# ----------------------------------------------------------------------
# The gather primitive
# ----------------------------------------------------------------------
def _gather_module(inst) -> Module:
    module = Module(inst.brokers[0])
    inst.brokers[0].load_module(module)
    return module


def _wait(sim, event):
    out = []

    def waiter():
        out.append((yield event))

    Process(sim, waiter())
    return out


def test_gather_of_no_legs_is_empty():
    inst = FluxInstance(platform="lassen", n_nodes=2, seed=1)
    out = _wait(inst.sim, _gather_module(inst).gather([]))
    inst.run_for(1.0)
    assert out == [[]]


def test_error_responses_settle_without_retry():
    inst = FluxInstance(platform="lassen", n_nodes=4, seed=1)
    inst.brokers[2].register_service(
        "test.refuse", lambda b, msg: b.respond(msg, errnum=16, errmsg="busy")
    )
    inst.brokers[1].register_service(
        "test.echo", lambda b, msg: b.respond(msg, {"rank": b.rank})
    )
    cfg = RetryConfig(timeout_s=1.0, retries=2)
    out = _wait(inst.sim, _gather_module(inst).gather(
        [(1, "test.echo", {}, cfg), (2, "test.refuse", {}, cfg)]
    ))
    inst.run_for(10.0)
    [(echo, refused)] = out
    assert echo == {"rank": 1}
    assert isinstance(refused, FluxRPCError)
    assert not isinstance(refused, RPCTimeoutError)
    assert refused.errnum == 16
    assert _counter_total(inst, "rpc_timeouts_total") == 0
    assert _counter_total(inst, "rpc_retries_total") == 0


def test_unload_stops_an_in_flight_gather():
    """Teardown cancels the deadlines: no retry goes out after unload."""
    inst = FluxInstance(platform="lassen", n_nodes=4, seed=1)
    sent = []

    def hook(broker, msg):
        sent.append(msg.topic)
        return "drop"

    _install_hook(inst, hook)
    module = _gather_module(inst)
    done = module.gather([(3, "test.void", {}, RetryConfig(timeout_s=1.0))])
    inst.run_for(0.5)
    inst.brokers[0].unload_module(module.name)
    inst.run_for(60.0)
    assert sent == ["test.void"]
    assert not done.triggered
    assert _counter_total(inst, "rpc_timeouts_total") == 0


# ----------------------------------------------------------------------
# The monitor's fan-outs
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "strategy, completed_at",
    [("fanout", 16.50039943781895), ("tree", 16.500390234184884)],
)
def test_late_reply_to_replaced_attempt_is_ignored(strategy, completed_at):
    """Rank 5's first answer is held past the 5 s timeout, so it lands
    after the retry went out; the leg settles once, from the retry."""
    inst = _monitored(strategy)
    dead = 5
    delayed = []

    def hook(broker, msg):
        if (msg.msg_type is MessageType.RESPONSE and msg.topic == QUERY_TOPIC
                and msg.src_rank == dead and not delayed):
            delayed.append(broker.sim.now)
            return 6.0
        return None

    _install_hook(inst, hook)
    nodes = _query(inst, [0, 3, dead])
    assert inst.sim.now == completed_at
    assert len(delayed) == 1
    assert sorted(rec["rank"] for rec in nodes) == [0, 3, dead]
    for rec in nodes:
        assert not rec.get("error")
        assert len(rec["samples"]) == 6
    assert _counter_total(inst, "rpc_timeouts_total") == 1
    assert _counter_total(inst, "rpc_retries_total") == 1
    inst.run_for(60.0)  # no deadline outlives the query
    assert _counter_total(inst, "rpc_timeouts_total") == 1


@pytest.mark.parametrize("strategy", ["fanout", "tree"])
def test_dead_rank_degrades_after_the_full_backoff(strategy):
    """Default RetryConfig: attempts at t0, t0+5, t0+5+10; degraded at
    t0+5+10+20, when the collecting broker (the root for fanout, the
    rank's own aggregator for tree) sends its response."""
    inst = _monitored(strategy)
    dead = 5
    log = []

    def hook(broker, msg):
        log.append((broker.sim.now, broker.rank, msg.msg_type, msg.topic,
                    msg.dst_rank))
        if (msg.msg_type is MessageType.REQUEST and msg.topic == QUERY_TOPIC
                and msg.dst_rank == dead):
            return "drop"
        return None

    _install_hook(inst, hook)
    nodes = _query(inst, list(range(8)))
    sends = [(t, src) for t, src, kind, topic, dst in log
             if kind is MessageType.REQUEST and topic == QUERY_TOPIC and dst == dead]
    t0, collector = sends[0]
    assert [t for t, _ in sends] == [t0, t0 + 5, t0 + 5 + 10]
    if strategy == "fanout":
        assert collector == 0
        reply_topic = GET_JOB_POWER_TOPIC
    else:
        assert collector == dead
        reply_topic = SUBTREE_TOPIC
    answer = next(t for t, src, kind, topic, _dst in log
                  if src == collector and kind is MessageType.RESPONSE
                  and topic == reply_topic)
    assert answer == t0 + 5 + 10 + 20
    errors = [rec for rec in nodes if rec.get("error")]
    assert [(rec["rank"], rec["errnum"]) for rec in errors] == [(dead, 110)]
    assert sorted(rec["rank"] for rec in nodes) == list(range(8))
    assert _counter_total(inst, "rpc_timeouts_total") == 3
    assert _counter_total(inst, "rpc_retries_total") == 2


def test_fanout_query_costs_two_events_per_leg():
    """A fault-free fan-out over N ranks: one request and one response
    delivery per leg plus a constant, and no deadline left live."""
    n = 64
    inst = _monitored("fanout", n_nodes=n)
    events, pending = inst.sim.events_processed, inst.sim.pending()
    nodes = _query(inst, list(range(n)))
    assert len(nodes) == n and not any(rec.get("error") for rec in nodes)
    assert inst.sim.events_processed - events <= 2 * n + 8
    assert inst.sim.pending() == pending
