"""Tests for injecting an alternative discretization into Actor.fit."""

import numpy as np
import pytest

from repro.core import Actor, ActorConfig
from repro.hotspots import GridDetector


@pytest.fixture(scope="module")
def grid_actor(dataset):
    config = ActorConfig(
        dim=16, epochs=2, batches_per_epoch=4, line_samples=5_000, seed=9
    )
    detector = GridDetector(cell_km=1.0, bucket_hours=2.0, min_support=3)
    return Actor(config).fit(dataset.train, detector=detector)


class TestDetectorInjection:
    def test_grid_detector_used(self, grid_actor):
        assert isinstance(grid_actor.built.detector, GridDetector)

    def test_model_trains_and_queries(self, grid_actor, dataset):
        record = dataset.test[0]
        scores = grid_actor.score_candidates(
            target="location",
            candidates=[r.location for r in dataset.test.records[:5]],
            time=record.timestamp,
            words=record.words,
        )
        assert scores.shape == (5,)
        assert np.isfinite(scores).all()

    def test_unit_counts_come_from_grid(self, grid_actor):
        summary = grid_actor.built.activity.summary()
        assert summary["n_spatial"] == grid_actor.built.detector.n_spatial
        assert summary["n_temporal"] == grid_actor.built.detector.n_temporal

    def test_grid_fit_runs_in_the_hotspot_stages(self, dataset):
        """The grid's mode finders run inside the detector's own stages."""
        from repro.utils.metrics import MetricsRegistry
        from repro.utils.tracing import Tracer, walk_spans

        registry, tracer = MetricsRegistry(), Tracer()
        detector = GridDetector(cell_km=1.0, min_support=3)
        Actor(
            ActorConfig(dim=8, epochs=1, batches_per_epoch=2, seed=9)
        ).fit(dataset.train, detector=detector, metrics=registry, tracer=tracer)
        for name in ("hotspot.spatial_fit", "hotspot.temporal_fit"):
            assert registry.histogram(f"{name}_seconds").count == 1
        detect = [s for _d, s in walk_spans(tracer.roots)
                  if s.name == "hotspot.detect"]
        assert [s.attributes["n_spatial"] for s in detect] == [
            detector.n_spatial
        ]
        assert registry.gauge("hotspot.n_temporal").value == detector.n_temporal

    def test_default_detector_when_not_injected(self, tiny_actor):
        from repro.hotspots import HotspotDetector

        assert isinstance(tiny_actor.built.detector, HotspotDetector)
