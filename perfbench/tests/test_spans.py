"""Per-layer attribution: module -> layer, span self time, and the
bit-for-bit equality of traced and untraced simulations."""

import functools

from perfbench.spans import LayerTracer, layer_of, layer_of_module


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def in_module(fn, module):
    fn.__module__ = module
    return fn


def test_layer_of_module():
    assert layer_of_module("repro.simkernel.engine") == "simkernel"
    assert layer_of_module("repro.flux.broker") == "flux"
    assert layer_of_module("repro.flux.jobmanager") == "jobmanager"
    assert layer_of_module("repro.flux.jobspec") == "jobmanager"
    assert layer_of_module("repro.monitor.columnar_agent") == "monitor"
    assert layer_of_module("repro.columnar.store") == "columnar"
    assert layer_of_module("repro.manager.policies.fpp") == "manager"
    assert layer_of_module("repro.cluster") == "other"
    assert layer_of_module("repro.fluxion") == "other"  # prefix, not substring
    assert layer_of_module("numpy.linalg") == "bench"
    assert layer_of_module(None) == "bench"


def test_callback_attributed_by_its_module():
    cb = in_module(lambda: None, "repro.hardware.node")
    assert layer_of(cb) == "hardware"
    assert layer_of(functools.partial(cb)) == "hardware"

    class Agent:
        def tick(self):
            pass

    Agent.__module__ = "repro.monitor.sampler"
    Agent.tick.__module__ = "repro.monitor.sampler"
    assert layer_of(Agent().tick) == "monitor"


def test_generator_process_attributed_to_its_generator_module():
    from repro.simkernel import Process, Simulator

    # A generator function whose globals say it lives in the manager.
    source = "def control():\n    yield None\n"
    namespace = {"__name__": "repro.manager.fake"}
    exec(compile(source, "<manager>", "exec"), namespace)
    proc = Process(Simulator(), namespace["control"]())
    assert layer_of(proc._resume) == "manager"


def test_periodic_timer_attributed_to_its_callback():
    from repro.simkernel import PeriodicTimer, Simulator

    timer = PeriodicTimer(Simulator(), 1.0, in_module(lambda t: None, "repro.apps.run"))
    assert layer_of(timer._fire) == "apps"


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def inner_flux():
        clock.work(3.0)

    def hardware_call():
        clock.work(2.0)
        same_layer(lambda: None)  # counted, not timed again
        inner()

    same_layer = tracer.span(lambda f: f(), "hardware", key="hw:nested")
    inner = tracer.span(inner_flux, "flux", key="flux:inner")
    hw = tracer.span(hardware_call, "hardware", key="hw:call")

    def outer_flux():
        clock.work(1.0)
        hw()
        clock.work(4.0)

    outer = tracer.span(outer_flux, "flux", key="flux:outer")
    tracer.start()
    clock.work(0.5)  # the benchmark's own time
    outer()
    tracer.stop()

    self_s = tracer.self_s()
    assert self_s["flux"] == 1.0 + 3.0 + 4.0
    assert self_s["hardware"] == 2.0
    assert self_s["bench"] == 0.5
    assert sum(self_s.values()) == tracer.wall_s == 10.5
    assert tracer.calls("hw:nested") == 1 and tracer.entries("hw:nested") == 0
    assert tracer.calls("flux:inner") == 1 and tracer.entries("flux:inner") == 1


def test_self_time_of_sibling_children_and_same_layer_reentry():
    # manager -> [hardware, flux -> manager (re-entry) -> hardware]:
    # siblings are both subtracted from the parent, and the re-entered
    # manager span is a separate child of flux, not part of the outer one.
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    hw = tracer.span(lambda s: clock.work(s), "hardware", key="hw:read")

    def reentry():
        clock.work(0.25)
        hw(1.0)

    mgr_inner = tracer.span(reentry, "manager", key="mgr:inner")

    def flux_call():
        clock.work(2.0)
        mgr_inner()
        clock.work(0.5)

    flux = tracer.span(flux_call, "flux", key="flux:call")

    def recompute():
        clock.work(1.0)
        hw(3.0)
        flux()
        hw(0.75)

    outer = tracer.span(recompute, "manager", key="mgr:outer")
    tracer.start()
    outer()
    tracer.stop()

    self_s = tracer.self_s()
    assert self_s["manager"] == 1.0 + 0.25
    assert self_s["hardware"] == 3.0 + 1.0 + 0.75
    assert self_s["flux"] == 2.0 + 0.5
    assert self_s["bench"] == 0.0
    assert sum(self_s.values()) == tracer.wall_s == 8.5
    assert tracer.entries("hw:read") == 3
    assert tracer.entries("mgr:inner") == 1


def test_exception_closes_the_span():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def boom():
        clock.work(1.0)
        raise KeyError("x")

    wrapped = tracer.span(boom, "manager")
    tracer.start()
    try:
        wrapped()
    except KeyError:
        pass
    tracer.stop()  # raises if the span were left open
    assert tracer.self_s()["manager"] == 1.0


def test_install_attributes_engine_callbacks_and_uninstall_restores():
    from repro.simkernel.engine import Simulator

    original = Simulator.__dict__["schedule_at"]
    tracer = LayerTracer()
    tracer.install()
    try:
        sim = Simulator()
        seen = []
        cb = in_module(lambda: seen.append(sim.now), "repro.tenancy.fake")
        sim.schedule(1.0, cb)
        tracer.start()
        sim.run()
        tracer.stop()
    finally:
        tracer.uninstall()
    assert seen == [1.0]
    assert tracer.self_s()["tenancy"] > 0.0
    assert tracer.calls("repro.simkernel.engine:Simulator.run") == 1
    assert Simulator.__dict__["schedule_at"] is original


def _small_run():
    from repro import Jobspec, ManagerConfig, PowerManagedCluster

    cluster = PowerManagedCluster(
        platform="lassen", n_nodes=4, seed=3,
        manager_config=ManagerConfig(global_cap_w=5000.0, policy="fpp",
                                     static_node_cap_w=1950.0),
    )
    job = cluster.submit(Jobspec(app="gemm", nnodes=3, params={"work_scale": 0.3}))
    cluster.run_until_complete()
    return cluster.trace.to_csv(), repr(cluster.metrics(job.jobid)), cluster.sim.now


def test_traced_run_reproduces_untraced_outputs_bit_for_bit():
    plain = _small_run()
    tracer = LayerTracer()
    tracer.install()
    try:
        tracer.start()
        traced = _small_run()
        tracer.stop()
    finally:
        tracer.uninstall()
    assert traced == plain
    self_s = tracer.self_s()
    assert self_s["hardware"] > 0 and self_s["manager"] > 0 and self_s["apps"] > 0
