"""One truth per stage: every timed stage is read once, and every sink
(histogram, span, Prometheus family) reports that one reading."""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request

import pytest

from repro.core import Actor, ActorConfig, OnlineActor
from repro.serving import QueryServer
from repro.utils.metrics import MetricsRegistry
from repro.utils.telemetry import render_prometheus
from repro.utils.tracing import Tracer, walk_spans


def _duplicate_families(text: str) -> list[str]:
    """Family names with more than one ``# TYPE`` line in an exposition."""
    families = [
        line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")
    ]
    assert families, "exposition has no families"
    return sorted({name for name in families if families.count(name) > 1})


@pytest.fixture(scope="module")
def traced_fit(dataset):
    """A fresh fit with both a registry and a recording tracer."""
    registry, tracer = MetricsRegistry(), Tracer()
    config = ActorConfig(
        dim=8, epochs=2, line_samples=2_000, batches_per_epoch=2, seed=7
    )
    actor = Actor(config).fit(dataset.train, metrics=registry, tracer=tracer)
    return actor, registry, tracer


class TestOneReadingPerStage:
    def test_fit_histograms_equal_their_spans(self, traced_fit):
        _actor, registry, tracer = traced_fit
        durations: dict[str, list[float]] = {}
        for _depth, span in walk_spans(tracer.roots):
            durations.setdefault(span.name, []).append(span.duration)
        histograms = registry.histograms()
        assert {
            "fit.build_graphs_seconds",
            "fit.initialize_seconds",
            "fit.train_seconds",
            "hotspot.spatial_fit_seconds",
            "hotspot.temporal_fit_seconds",
            "train.epoch_seconds",
            "train.task.plain:UT_seconds",
        } <= set(histograms)
        for name, hist in histograms.items():
            spans = durations.get(name.removesuffix("_seconds"), [])
            assert hist.count == len(spans) > 0, name
            # Two epochs give each stage at most two observations, so the
            # histogram's running total is exactly rounded, as fsum is.
            assert hist.total == math.fsum(spans), name
            assert (hist.min, hist.max) == (min(spans), max(spans)), name


class TestOneFamilyPerName:
    def test_fit_registry(self, traced_fit):
        text = render_prometheus(traced_fit[1])
        assert "# TYPE repro_train_epoch_seconds histogram" in text
        assert _duplicate_families(text) == []

    def test_online_registry(self, traced_fit, dataset):
        online = OnlineActor(traced_fit[0], steps_per_batch=5, seed=0)
        records = list(dataset.city.generate_corpus(60))
        online.partial_fit(records[:30])
        online.partial_fit(records[30:])
        text = render_prometheus(online.metrics)
        assert "# TYPE repro_stream_ingest_seconds histogram" in text
        assert "repro_stream_partial_fit_seconds_sum " in text
        assert _duplicate_families(text) == []

    def test_live_server_metrics(self, tiny_actor):
        bodies = [
            ("/v1/predict", {"target": "time", "candidates": [1.0, 9.0],
                             "time": 2.0}),
            ("/v1/neighbors", {"modality": "word", "time": 21.0, "k": 3}),
            ("/v1/predict", {"target": "venue", "candidates": [1.0]}),
        ]
        with QueryServer(tiny_actor, port=0) as server:
            for path, body in bodies:
                request = urllib.request.Request(
                    server.url + path,
                    data=json.dumps(body).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                try:
                    urllib.request.urlopen(request, timeout=30).close()
                except urllib.error.HTTPError as err:
                    assert err.code == 400
            with urllib.request.urlopen(
                server.url + "/metrics", timeout=30
            ) as response:
                text = response.read().decode("utf-8")
        assert "# TYPE repro_serve_request_seconds histogram" in text
        assert "# TYPE repro_query_score_seconds histogram" in text
        assert _duplicate_families(text) == []
