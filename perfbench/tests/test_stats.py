"""The benchmark's order statistics."""

import pytest

from perfbench import common

from perfbench.stats import TooFewSamples, median, min_samples_for, percentile


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(list(reversed(values)), 90) == 90


def test_p99_needs_ten_samples_beyond_it():
    assert min_samples_for(99) == 1000
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)
    # 1000 samples: rank 990, ten beyond it.
    assert percentile(list(range(1, 1001)), 99) == 990


@pytest.mark.parametrize("p, n", [(50, 20), (90, 100), (99, 1000)])
def test_min_samples_is_the_refusal_boundary(p, n):
    assert min_samples_for(p) == n
    percentile([1.0] * n, p)
    with pytest.raises(TooFewSamples):
        percentile([1.0] * (n - 1), p)


def test_percentile_rejects_bad_p_and_empty_samples():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 100)
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5



def test_ref_clock_scales_by_the_probes_beside_each_operation(monkeypatch):
    ref = common.REF_PROBE_S
    probes = iter([ref, 2 * ref, ref])
    cpu = iter([0.0, 3.0, 10.0, 12.0])
    monkeypatch.setattr(common, "probe_s", lambda: next(probes))
    monkeypatch.setattr(common, "cpu_clock", lambda: next(cpu))
    collected = iter([0.0, 0.5, 0.5, 0.5])
    monkeypatch.setattr(common, "collector_s", lambda: next(collected))
    clock = common.RefClock()
    # Probes ref then 2 ref: the host ran at 2/3 speed on average.
    assert clock.timed(lambda x: x + 1, 1) == (2, 3.0 * 2 / 3)
    assert clock.last_gc_s == 0.5 * 2 / 3
    assert clock.timed(lambda: None) == (None, 2.0 * 2 / 3)
    assert clock.last_gc_s == 0.0 and clock.gc_s == 0.5 * 2 / 3
    assert clock.raw_s == 5.0
    assert clock.speed() == pytest.approx(3 / 4)


def test_ref_clock_tick_scales_a_long_operation_piece_by_piece(monkeypatch):
    ref = common.REF_PROBE_S
    probes = iter([ref, 2 * ref, ref])
    cpu = iter([0.0, 0.01, 0.03, 0.03, 0.03, 0.04])
    monkeypatch.setattr(common, "probe_s", lambda: next(probes))
    monkeypatch.setattr(common, "cpu_clock", lambda: next(cpu))
    monkeypatch.setattr(common, "collector_s", lambda: 0.0)
    clock = common.RefClock()

    def op():
        clock.tick()  # 10 ms into the segment: too short to probe
        clock.tick()  # 30 ms: probe, new segment

    # 30 ms beside probes (ref, 2 ref), then 10 ms beside (2 ref, ref).
    _, seconds = clock.timed(op)
    assert seconds == pytest.approx(0.03 * 2 / 3 + 0.01 * 2 / 3)
    assert clock.raw_s == pytest.approx(0.04) and len(clock.probes) == 3
