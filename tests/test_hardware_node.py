"""Unit tests for the node model and platform specs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.domains import DomainKind, PowerDomain
from repro.hardware.platforms import PLATFORM_SPECS, make_node
from repro.hardware.platforms.lassen import make_lassen_node
from repro.hardware.platforms.tioga import make_tioga_node
from repro.hardware.platforms.generic import make_generic_node


# ---------------------------------------------------------------------------
# Lassen
# ---------------------------------------------------------------------------

def test_lassen_idle_power_is_400w():
    """Section IV-C: 'we assume an idle node power consumption of 400 W'."""
    node = make_lassen_node("n0")
    assert node.idle_power_w() == pytest.approx(400.0)


def test_lassen_has_four_gpus_two_sockets():
    node = make_lassen_node("n0")
    assert node.n_gpus == 4
    assert len(node.cpu_domains) == 2
    assert len(node.memory_domains) == 1


def test_lassen_node_sensor_and_capping_flags():
    node = make_lassen_node("n0")
    assert node.spec.node_power_measurable
    assert node.spec.node_cappable
    assert node.spec.node_max_w == 3050.0


def test_lassen_has_opal_and_nvml():
    node = make_lassen_node("n0")
    assert node.opal is not None
    assert node.nvml is not None
    assert node.esmi is None


# ---------------------------------------------------------------------------
# Tioga
# ---------------------------------------------------------------------------

def test_tioga_has_8_logical_gpus_in_4_oams():
    node = make_tioga_node("t0")
    assert len(node.by_kind(DomainKind.OAM)) == 4
    assert node.n_gpus == 8  # 2 GCDs per OAM


def test_tioga_memory_and_node_not_measurable():
    node = make_tioga_node("t0")
    assert not node.spec.node_power_measurable
    mem = node.memory_domains[0]
    assert not mem.spec.measurable


def test_tioga_oam_max_power_560():
    node = make_tioga_node("t0")
    oam = node.by_kind(DomainKind.OAM)[0]
    assert oam.spec.max_w == 560.0


def test_tioga_has_esmi_only():
    node = make_tioga_node("t0")
    assert node.esmi is not None
    assert node.opal is None
    assert node.nvml is None


# ---------------------------------------------------------------------------
# Generic + factory
# ---------------------------------------------------------------------------

def test_generic_node_with_gpus():
    node = make_generic_node("g0", n_gpus=2)
    assert node.n_gpus == 2
    assert node.nvml is not None


def test_make_node_dispatches_by_platform():
    assert make_node("lassen", "a").spec.platform == "lassen"
    assert make_node("tioga", "b").spec.platform == "tioga"
    assert make_node("generic", "c").spec.platform == "generic"


def test_make_node_rejects_unknown_platform():
    with pytest.raises(ValueError):
        make_node("cray-1", "x")


@pytest.mark.parametrize("platform", sorted(PLATFORM_SPECS))
def test_all_platform_specs_are_valid(platform):
    spec = PLATFORM_SPECS[platform]()
    assert spec.domains
    for ds in spec.domains:
        assert ds.max_w >= ds.idle_w >= 0


# ---------------------------------------------------------------------------
# Power aggregation
# ---------------------------------------------------------------------------

def test_total_power_sums_domains():
    node = make_lassen_node("n0")
    node.domains["gpu0"].set_demand(300.0)
    assert node.total_power_w() == pytest.approx(400.0 + 250.0)


def test_total_power_clipped_by_opal_cap():
    node = make_lassen_node("n0")
    node.opal.set_node_power_cap(1000.0)
    for name, dom in node.domains.items():
        dom.set_demand(dom.spec.max_w)
    assert node.total_power_w() == pytest.approx(1000.0)
    assert node.raw_power_w() > 1000.0


def test_apply_demand_by_name():
    node = make_lassen_node("n0")
    node.apply_demand({"cpu0": 200.0, "gpu1": 250.0})
    assert node.domains["cpu0"].demand_w == 200.0
    assert node.domains["gpu1"].demand_w == 250.0


def test_apply_demand_unknown_domain_raises():
    node = make_lassen_node("n0")
    with pytest.raises(KeyError):
        node.apply_demand({"gpu9": 100.0})


def test_clear_demand_returns_to_idle():
    node = make_lassen_node("n0")
    node.apply_demand({"gpu0": 300.0, "cpu0": 250.0})
    node.clear_demand()
    assert node.total_power_w() == pytest.approx(400.0)


def test_gpu_throttles_reflect_caps():
    node = make_lassen_node("n0")
    for dom in node.gpu_domains:
        dom.set_demand(300.0)
    node.nvml.set_power_limit(0, 175.0)  # dyn 125 of 250 -> 0.5
    throttles = node.gpu_throttles()
    assert throttles[0] == pytest.approx(0.5)
    assert throttles[1:] == [1.0, 1.0, 1.0]


def test_cpu_throttle_includes_opal_residual():
    node = make_lassen_node("n0")
    node.opal.set_node_power_cap(1000.0)
    for dom in node.cpu_domains:
        dom.set_demand(250.0)
    for dom in node.gpu_domains:
        dom.set_demand(300.0)
    assert node.cpu_throttle() < 1.0


# ---------------------------------------------------------------------------
# Power-revision memo: invalidation under every writer
# ---------------------------------------------------------------------------

#: Fractions of a dial's range; values outside [0, 1] exercise clamping,
#: and the small set makes repeated writes of one value common.
_fracs = st.sampled_from([-0.2, 0.0, 0.1, 0.37, 0.5, 0.8, 1.0, 1.25])
_idx = st.integers(0, 7)

_ops = st.one_of(
    st.tuples(st.just("demand"), _idx, _fracs),
    st.tuples(st.just("clear_demand"), _idx),
    st.tuples(st.just("node_clear_demand")),
    st.tuples(st.just("cap"), _idx, st.sampled_from(["a", "b"]), _fracs),
    st.tuples(st.just("uncap"), _idx, st.sampled_from(["a", "b"])),
    st.tuples(
        st.just("opal"),
        st.sampled_from([500.0, 1000.0, 1200.0, 1800.0, 1950.0, 3050.0]),
    ),
    st.tuples(st.just("opal_clear")),
    st.tuples(st.just("nvml"), _idx, _fracs),
    st.tuples(st.just("nvml_clear")),
    st.tuples(st.just("esmi_socket"), _idx, _fracs),
    st.tuples(st.just("esmi_oam"), _idx, _fracs),
    st.tuples(st.just("rapl"), _idx, _fracs),
)


def _memo_node(platform: str):
    if platform == "generic":
        node = make_generic_node("m0", n_gpus=2)
    else:
        node = make_node(platform, "m0")
    if node.esmi is not None:
        node.esmi.user_capping_enabled = True
    return node


def _pick(seq, i):
    return seq[i % len(seq)] if seq else None


def _in_range(dom, frac):
    spec = dom.spec
    lo = spec.min_cap_w if spec.min_cap_w is not None else 0.0
    hi = spec.max_cap_w if spec.max_cap_w is not None else spec.max_w
    return lo + min(max(frac, 0.0), 1.0) * (hi - lo)


def _apply(node, op) -> None:
    """Run one writer; writers the platform lacks are skipped."""
    kind = op[0]
    doms = list(node.domains.values())
    cappable = [d for d in doms if d.spec.cappable]
    if kind == "demand":
        dom = _pick(doms, op[1])
        dom.set_demand(dom.spec.idle_w + op[2] * (dom.spec.max_w - dom.spec.idle_w))
    elif kind == "clear_demand":
        _pick(doms, op[1]).clear_demand()
    elif kind == "node_clear_demand":
        node.clear_demand()
    elif kind == "cap" and cappable:
        dom = _pick(cappable, op[1])
        dom.set_cap(op[2], dom.spec.idle_w + op[3] * dom.spec.max_w)
    elif kind == "uncap" and cappable:
        _pick(cappable, op[1]).set_cap(op[2], None)
    elif kind == "opal" and node.opal is not None:
        node.opal.set_node_power_cap(op[1])
    elif kind == "opal_clear" and node.opal is not None:
        node.opal.clear_node_power_cap()
    elif kind == "nvml" and node.nvml is not None:
        i = op[1] % node.nvml.gpu_count()
        node.nvml.set_power_limit(i, _in_range(node.gpu_domains[i], op[2]))
    elif kind == "nvml_clear" and node.nvml is not None:
        node.nvml.clear_all()
    elif kind == "esmi_socket" and node.esmi is not None and node.cpu_domains:
        i = op[1] % len(node.cpu_domains)
        node.esmi.set_socket_power_cap(i, _in_range(node.cpu_domains[i], op[2]))
    elif kind == "esmi_oam" and node.esmi is not None:
        i = op[1] % len(node.gpu_domains)
        node.esmi.set_oam_power_cap(i, _in_range(node.gpu_domains[i], op[2]))
    elif kind == "rapl" and node.rapl is not None:
        i = op[1] % node.rapl.socket_count()
        node.rapl.set_socket_power_cap(i, _in_range(node.cpu_domains[i], op[2]))


def _from_scratch(node):
    """(raw, total, per-GPU) recomputed without the memo, as float hex."""
    raw = sum([d.actual_w for d in node.domains.values()])
    total = raw
    if node.opal is not None and node.opal.node_cap_w is not None:
        idle = sum(d.spec.idle_w for d in node.domains.values())
        total = min(raw, max(node.opal.node_cap_w, idle))
    gpus = tuple(d.actual_w for d in node.gpu_domains)
    return raw.hex(), total.hex(), tuple(g.hex() for g in gpus)


def _memoized(node):
    return (
        node.raw_power_w().hex(),
        node.total_power_w().hex(),
        tuple(g.hex() for g in node.gpu_power_w()),
    )


def check_power_memo(platform: str, load: float, ops) -> None:
    node = _memo_node(platform)
    assert _memoized(node) == _from_scratch(node)
    # Start from a loaded node so that caps bind from the first write.
    for i in range(len(node.domains)):
        _apply(node, ("demand", i, load))
    for op in ops:
        before, rev = _from_scratch(node), node.power_rev
        _apply(node, op)
        after = _from_scratch(node)
        if after != before:
            assert node.power_rev != rev, f"{op}: power changed, no bump"
        assert _memoized(node) == after, op
        # The same write again is a no-op: no revision, same values.
        rev = node.power_rev
        _apply(node, op)
        assert node.power_rev == rev, f"{op}: no-op write bumped power_rev"
        assert _memoized(node) == after, op


@settings(derandomize=True, max_examples=60, deadline=None, report_multiple_bugs=False)
@given(
    platform=st.sampled_from(["lassen", "tioga", "elcapitan", "generic"]),
    load=_fracs,
    ops=st.lists(_ops, min_size=1, max_size=25),
)
def test_power_memo_matches_recomputation(platform, load, ops):
    check_power_memo(platform, load, ops)


def _no_bump_set_demand(self, watts):
    self._demand_w = float(min(max(watts, self.spec.idle_w), self.spec.max_w))


def _no_bump_set_cap(self, source, watts):
    if watts is None:
        self._caps.pop(source, None)
    else:
        self._caps[source] = float(watts)


@pytest.mark.parametrize(
    "writer, planted",
    [("set_demand", _no_bump_set_demand), ("set_cap", _no_bump_set_cap)],
)
def test_power_memo_suite_catches_missing_bump(monkeypatch, writer, planted):
    """A writer that forgets its ``power_rev`` bump fails the suite."""
    monkeypatch.setattr(PowerDomain, writer, planted)
    with pytest.raises(AssertionError):
        test_power_memo_matches_recomputation()


def test_domain_views_are_built_once():
    node = make_lassen_node("n0")
    assert node.gpu_domains is node.gpu_domains
    assert isinstance(node.cpu_domains, tuple)
    assert node.by_kind(DomainKind.GPU) == list(node.gpu_domains)
