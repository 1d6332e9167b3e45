"""Percentile, due-time and lateness arithmetic."""

import math
import random

import numpy as np
import pytest

from common import (
    cpu_scaled_latency,
    latency_from_due,
    lateness,
    lateness_grows,
    percentile,
    poisson_schedule,
    samples_beyond,
    stratified,
)


@pytest.mark.parametrize("q", [0, 1, 25, 50, 90, 97.5, 99, 100])
@pytest.mark.parametrize("n", [1, 2, 7, 200, 1001])
def test_percentile_matches_numpy(q, n):
    values = list(np.random.default_rng(n).exponential(5.0, size=n))
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_of_unsorted_input_and_failures():
    assert percentile([3, 1, 2], 50) == 2
    # A failed request counts as missing every limit: it sorts last.
    assert percentile([1.0, 2.0, math.inf], 100) == math.inf
    assert percentile([1.0, 2.0, 3.0, math.inf], 50) == 2.5
    assert percentile([1.0, math.inf], 75) == math.inf


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_a_percentile():
    # The open loop's 240 requests leave 12 beyond the 95th percentile;
    # a p99 with ten beyond it needs 1000.
    assert samples_beyond(240, 95) == 12
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(400, 99) == 4
    values = list(range(240))
    p95 = percentile(values, 95)
    assert sum(1 for v in values if v > p95) == samples_beyond(240, 95)


def test_poisson_schedule_is_seeded_and_has_the_rate():
    a = poisson_schedule(2000, 20.0, random.Random(7))
    b = poisson_schedule(2000, 20.0, random.Random(7))
    c = poisson_schedule(2000, 20.0, random.Random(8))
    assert a == b and a != c
    assert a[0] == 0.0 and len(a) == 2000
    gaps = np.diff(a)
    assert (gaps > 0).all()
    assert gaps.mean() == pytest.approx(1 / 20.0, rel=0.05)
    # Exponential gaps: the median gap is ln(2) / rate.
    assert np.median(gaps) == pytest.approx(math.log(2) / 20.0, rel=0.05)


def test_poisson_schedule_spread_is_steady_across_seeds():
    durations = [poisson_schedule(400, 20.0, random.Random(s))[-1]
                 for s in range(20)]
    assert max(durations) - min(durations) < 0.5  # of ~20 s


def test_poisson_schedule_rejects_bad_input():
    with pytest.raises(ValueError):
        poisson_schedule(0, 1.0, random.Random(0))
    with pytest.raises(ValueError):
        poisson_schedule(5, 0.0, random.Random(0))


def test_latency_counts_from_the_due_time():
    # Due at 1.0, sent late at 1.3 behind a stalled request, done at 1.35:
    # the user waited 350 ms, the generator was 300 ms late.
    assert latency_from_due(1.0, 1.35) == pytest.approx(0.35)
    assert lateness(1.0, 1.3) == pytest.approx(0.3)
    assert lateness(1.0, 0.999) == 0.0


def test_lateness_growth_marks_an_unsustainable_rate():
    due = [i * 0.05 for i in range(400)]
    flat = [0.002 + 0.001 * (i % 3) for i in range(400)]
    growing = [0.0005 * i for i in range(400)]
    assert not lateness_grows(due, flat, threshold=0.05)
    assert lateness_grows(due, growing, threshold=0.05)
    assert not lateness_grows(due[:4], growing[:4], threshold=0.0)


def test_host_speed_scales_units_by_the_probes_around_them(monkeypatch):
    import common

    probes = iter([p for p in [1.5, 3.0, 3.0, 1.5] for _ in range(3)])
    monkeypatch.setattr(common, "probe_ms", lambda: next(probes))
    monkeypatch.setattr(common, "REFERENCE_PROBE_MS", 1.5)
    speed = common.HostSpeed()
    with pytest.raises(RuntimeError):
        speed.adjust(1.0)
    speed.start()                        # probe 1.5 ms
    # The host ran at half speed around this unit (mean probe 2.25 ms
    # against the 1.5 ms reference), so 0.9 s reads as 0.6 s.
    assert speed.adjust(0.9) == pytest.approx(0.9 * 1.5 / 2.25)
    # The probe after one unit is the probe before the next.
    assert speed.adjust(0.6) == pytest.approx(0.6 * 1.5 / 3.0)
    assert speed.adjust(1.0) == pytest.approx(1.0 * 1.5 / 2.25)
    assert speed.probes == [1.5, 3.0, 3.0, 1.5]


def test_cpu_scaled_latency_keeps_the_batcher_wait():
    # 5 ms from due to reply, 2 ms of it in the batch window, on a host
    # at twice reference speed: the 3 ms of CPU work read as 6 ms.
    assert cpu_scaled_latency(0.005, 0.002, 2.0) == pytest.approx(0.008)
    assert cpu_scaled_latency(0.005, 0.002, 1.0) == pytest.approx(0.005)
    # A wait the clocks put beyond the latency (or below 0) is clamped.
    assert cpu_scaled_latency(0.003, 0.004, 3.0) == pytest.approx(0.003)
    assert cpu_scaled_latency(0.003, -0.001, 2.0) == pytest.approx(0.006)


def test_host_speed_factor_is_the_scale_adjust_applies(monkeypatch):
    import common

    # Each probe is the median of three samples: 9.0 and 6.0 are
    # samples slowed by an interrupt.
    probes = iter([1.0, 9.0, 1.0, 2.0, 2.0, 6.0, 1.0, 1.0, 1.0])
    monkeypatch.setattr(common, "probe_ms", lambda: next(probes))
    monkeypatch.setattr(common, "REFERENCE_PROBE_MS", 1.5)
    speed = common.HostSpeed()
    speed.start()
    assert speed.factor() == pytest.approx(1.5 / 1.5)
    assert speed.adjust(2.0) == pytest.approx(2.0 * 1.5 / 1.5)
    assert speed.probes == [1.0, 2.0, 1.0]
    assert speed.overall() == pytest.approx(1.5 / 1.0)


def test_host_speed_overall_needs_a_probe():
    import common

    with pytest.raises(RuntimeError):
        common.HostSpeed().overall()


def test_stratified_picks_keep_every_kinds_share():
    kinds = ["predict"] * 300 + ["neighbors"] * 100
    a = stratified(kinds, 240, random.Random(1))
    b = stratified(kinds, 240, random.Random(1))
    c = stratified(kinds, 240, random.Random(2))
    assert a == b and a != c
    assert len(set(a)) == 240
    assert sum(1 for i in a if kinds[i] == "neighbors") == 60
    # Largest remainders: 10 of a 2:1 mix is 7 and 3.
    few = stratified(["x", "x", "y"] * 4, 10, random.Random(0))
    assert sum(1 for i in few if i % 3 == 2) == 3
    # More picks than items: every item repeats before any repeats twice.
    many = stratified(kinds, 900, random.Random(3))
    assert min(many.count(i) for i in range(400)) == 2
    assert sum(1 for i in many if kinds[i] == "neighbors") == 225
