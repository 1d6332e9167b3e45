"""Tests for the model-quality drift watchdog.

The behavioral tests stream real records through a real
:class:`OnlineActor`: the stationary tests guard against false positives
(a healthy deployment must not page anyone), the shift tests inject an
actual distribution change — every record relocated to one corner plus a
runaway learning rate — and assert the PSI, probe-MRR and norm alarms
all trip through the genuine signal path.
"""

import dataclasses
import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.core import Actor, ActorConfig, OnlineActor
from repro.core.drift import (
    DriftWatchdog,
    EwmaZScore,
    make_probe_queries,
    population_stability_index,
)
from repro.data import generate_dataset
from repro.utils.logging import StructuredLogger
from repro.utils.telemetry_server import TelemetryServer


class TestEwmaZScore:
    def test_warmup_returns_zero(self):
        detector = EwmaZScore(alpha=0.3, warmup=5)
        values = [1.0, 2.0, 1.5, 2.5, 1.0]
        assert [detector.update(v) for v in values] == [0.0] * 5

    def test_jump_after_noisy_history_scores_high(self):
        rng = np.random.default_rng(0)
        detector = EwmaZScore(alpha=0.2, warmup=10)
        for _ in range(50):
            detector.update(10.0 + rng.normal(0, 0.5))
        assert abs(detector.update(10.0)) < 3.0
        assert detector.update(30.0) > 10.0

    def test_jump_after_constant_history_is_capped_not_nan(self):
        detector = EwmaZScore(alpha=0.3, warmup=2)
        for _ in range(5):
            detector.update(1.0)
        assert detector.update(10.0) == 99.0
        detector2 = EwmaZScore(alpha=0.3, warmup=2)
        for _ in range(5):
            detector2.update(1.0)
        assert detector2.update(-10.0) == -99.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            EwmaZScore(alpha=0.0)
        with pytest.raises(ValueError, match="warmup"):
            EwmaZScore(warmup=0)


class TestPSI:
    def test_identical_distributions_score_zero(self):
        counts = np.array([40.0, 30.0, 20.0, 10.0])
        assert population_stability_index(counts, counts) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_scale_invariant(self):
        p = np.array([40.0, 30.0, 20.0, 10.0])
        assert population_stability_index(p, p * 7) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_disjoint_mass_scores_large(self):
        p = np.array([100.0, 0.0, 0.0])
        q = np.array([0.0, 0.0, 100.0])
        assert population_stability_index(p, q) > 5.0

    def test_moderate_shift_in_conventional_band(self):
        p = np.array([50.0, 30.0, 20.0])
        q = np.array([40.0, 35.0, 25.0])
        psi = population_stability_index(p, q)
        assert 0.0 < psi < 0.25

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            population_stability_index(np.ones(3), np.ones(4))


@pytest.fixture(scope="module")
def warm():
    """A trained base actor plus held-out and fresh stationary streams."""
    data = generate_dataset("utgeo2011", n_records=1200, seed=21)
    actor = Actor(
        ActorConfig(
            dim=16, epochs=4, batches_per_epoch=6, line_samples=5_000, seed=2
        )
    ).fit(data.train)
    stream = list(
        generate_dataset("utgeo2011", n_records=1600, seed=77).corpus.records
    )
    return actor, data.test, stream


def _watchdog(online, probe_corpus, **overrides):
    """An OnlineActor watchdog with test-sized windows."""
    params = dict(
        probe_every=3,
        reference_batches=3,
        window_batches=3,
        psi_min_samples=200,
    )
    params.update(overrides)
    return online.enable_drift_watchdog(probe_corpus, **params)


class TestStationaryGuard:
    def test_stationary_stream_raises_no_alerts(self, warm):
        actor, probe_corpus, stream = warm
        online = OnlineActor(actor, online_lr=0.02, steps_per_batch=20, seed=3)
        watchdog = _watchdog(online, probe_corpus)
        for start in range(0, 1200, 100):
            online.partial_fit(stream[start : start + 100])
        assert list(watchdog.alerts) == []
        assert not watchdog.alarming
        assert watchdog.status()["status"] == "ok"
        # The signals were actually evaluated, not skipped.
        assert watchdog.spatial_psi is not None
        assert watchdog.spatial_psi < 0.25
        assert watchdog.probe_mrr is not None
        assert watchdog.probe_baseline is not None
        assert online.metrics.gauge("drift.alarm").value == 0.0

    def test_gauges_and_overhead_timer_are_populated(self, warm):
        actor, probe_corpus, stream = warm
        online = OnlineActor(actor, online_lr=0.02, steps_per_batch=20, seed=3)
        _watchdog(online, probe_corpus)
        for start in range(0, 600, 100):
            online.partial_fit(stream[start : start + 100])
        gauges = online.metrics.gauges()
        for name in (
            "drift.spatial_psi",
            "drift.probe_mrr",
            "drift.probe_mrr_baseline",
            "drift.norm_mean.time",
            "drift.norm_mean.location",
            "drift.norm_mean.word",
            "drift.norm_z.word",
            "drift.eviction_z",
            "drift.alarm",
        ):
            assert name in gauges, name
        assert online.metrics.histogram("drift.observe_seconds").count == 6
        assert online.metrics.histogram("drift.probe_seconds").count == 2


class TestInjectedShift:
    def test_shift_trips_psi_probe_and_norm_alarms(self, warm):
        actor, probe_corpus, stream = warm
        online = OnlineActor(actor, online_lr=0.02, steps_per_batch=20, seed=3)
        watchdog = _watchdog(
            online, probe_corpus, probe_every=2, norm_warmup=4
        )
        for start in range(0, 600, 100):
            online.partial_fit(stream[start : start + 100])
        assert list(watchdog.alerts) == []  # healthy before the shift

        # The injected shift: all activity collapses to one corner and
        # the online learning rate runs away, destroying ranking quality.
        online.online_lr = 1.0
        online.steps_per_batch = 400
        shifted = [
            dataclasses.replace(r, location=(0.25, 0.25))
            for r in stream[600:1400]
        ]
        for start in range(0, len(shifted), 100):
            online.partial_fit(shifted[start : start + 100])

        kinds = {alert["kind"] for alert in watchdog.alerts}
        assert "spatial_psi" in kinds
        assert "probe_mrr" in kinds
        assert any(kind.startswith("norm:") for kind in kinds)
        assert watchdog.spatial_psi > watchdog.psi_threshold
        assert watchdog.probe_mrr < watchdog.probe_baseline * (
            1 - watchdog.mrr_drop
        )
        assert watchdog.alarming
        assert watchdog.status()["status"] == "alerting"
        assert online.metrics.gauge("drift.alarm").value == 1.0
        assert online.metrics.counter("drift.alerts").value == len(
            watchdog.alerts
        )

    def test_alerts_are_edge_triggered_and_logged(self, warm):
        actor, probe_corpus, stream = warm
        online = OnlineActor(actor, online_lr=0.02, steps_per_batch=20, seed=3)
        logger = StructuredLogger(rate_limit_seconds=0.0)
        online.logger = logger
        watchdog = _watchdog(online, probe_corpus)
        for start in range(0, 600, 100):
            online.partial_fit(stream[start : start + 100])
        shifted = [
            dataclasses.replace(r, location=(0.25, 0.25))
            for r in stream[600:1400]
        ]
        for start in range(0, len(shifted), 100):
            online.partial_fit(shifted[start : start + 100])
        psi_alerts = [
            a for a in watchdog.alerts if a["kind"] == "spatial_psi"
        ]
        # The PSI stays above threshold for many consecutive batches but
        # the alarm fires once per excursion, not once per batch.
        assert len(psi_alerts) == 1
        events = [r["event"] for r in logger.recent]
        assert "drift.alert.spatial_psi" in events

    def test_eviction_spike_trips_anomaly_alarm(self, warm):
        actor, _probe, stream = warm
        online = OnlineActor(
            actor,
            online_lr=0.02,
            steps_per_batch=5,
            seed=3,
            buffer_size=3_000,
        )
        watchdog = online.enable_drift_watchdog(
            eviction_warmup=3, eviction_z_threshold=5.0
        )
        # Steady small batches establish the churn baseline; one burst
        # ten times the size spikes the eviction rate.
        for start in range(0, 1000, 50):
            online.partial_fit(stream[start : start + 50])
        online.partial_fit(stream[1000:1500])
        kinds = {alert["kind"] for alert in watchdog.alerts}
        assert "eviction_rate" in kinds


class TestWatchdogPlumbing:
    def test_parameter_validation(self, warm):
        actor, _probe, _stream = warm
        online = OnlineActor(actor, seed=0)
        with pytest.raises(ValueError, match="mrr_drop"):
            DriftWatchdog(online, mrr_drop=1.5)
        with pytest.raises(ValueError, match="psi_buckets"):
            DriftWatchdog(online, psi_buckets=1)
        with pytest.raises(ValueError, match="probe_every"):
            DriftWatchdog(online, probe_every=0)

    def test_detach(self, warm):
        actor, _probe, stream = warm
        online = OnlineActor(actor, seed=0)
        watchdog = online.enable_drift_watchdog()
        online.partial_fit(stream[:50])
        assert watchdog.n_batches == 1
        online.attach_drift_watchdog(None)
        online.partial_fit(stream[50:100])
        assert watchdog.n_batches == 1

    def test_make_probe_queries_from_corpus_and_records(self, warm):
        _actor, probe_corpus, stream = warm
        from_corpus = make_probe_queries(probe_corpus, max_queries=8, seed=1)
        from_records = make_probe_queries(stream[:200], max_queries=8, seed=1)
        assert 0 < len(from_corpus) <= 8
        assert 0 < len(from_records) <= 8

    def test_alert_retention_is_bounded(self, warm):
        actor, _probe, _stream = warm
        online = OnlineActor(actor, seed=0)
        watchdog = DriftWatchdog(online, max_alerts=2)
        for i in range(5):
            watchdog._transition(
                f"kind{i}", True, value=1.0, threshold=0.5, message="m"
            )
        assert len(watchdog.alerts) == 2
        assert watchdog.alerts[0]["kind"] == "kind3"

    def test_status_payload_is_json_safe(self, warm):
        actor, probe_corpus, stream = warm
        online = OnlineActor(actor, online_lr=0.02, steps_per_batch=10, seed=3)
        _watchdog(online, probe_corpus)
        for start in range(0, 400, 100):
            online.partial_fit(stream[start : start + 100])
        payload = online.drift.status()
        json.dumps(payload)  # must not raise
        assert payload["drift"]["batches"] == 4


class TestLiveScrapeDuringStreaming:
    def test_metrics_scrapes_race_partial_fit(self, warm):
        """/metrics served concurrently with an active partial_fit loop."""
        actor, probe_corpus, stream = warm
        online = OnlineActor(actor, online_lr=0.02, steps_per_batch=30, seed=3)
        _watchdog(online, probe_corpus)
        errors: list[Exception] = []
        done = threading.Event()

        def scrape(url):
            # Generous timeouts + a breather between scrapes: the point
            # is that responses stay well-formed during partial_fit, not
            # that the box can absorb a tight-loop load test.
            while not done.is_set():
                try:
                    with urllib.request.urlopen(
                        url + "/metrics", timeout=30
                    ) as response:
                        assert response.status == 200
                        body = response.read().decode("utf-8")
                        assert body.endswith("\n")
                    with urllib.request.urlopen(
                        url + "/healthz", timeout=30
                    ) as response:
                        json.loads(response.read())
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return
                done.wait(0.02)

        with TelemetryServer(online.metrics) as server:
            server.add_status_provider(online.drift.status)
            scrapers = [
                threading.Thread(target=scrape, args=(server.url,))
                for _ in range(3)
            ]
            for thread in scrapers:
                thread.start()
            for start in range(0, 1200, 60):
                online.partial_fit(stream[start : start + 60])
                server.heartbeat()
            done.set()
            for thread in scrapers:
                thread.join(timeout=10)
        assert errors == []
        assert online.drift.n_batches == 20
