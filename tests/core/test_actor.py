"""Tests for the Actor facade (fit, ablations, persistence)."""

import numpy as np
import pytest

from repro.core import Actor, ActorConfig
from repro.data import generate_dataset
from repro.utils.metrics import MetricsRegistry


class TestFit:
    def test_fit_returns_self_and_sets_state(self, tiny_actor):
        assert tiny_actor.is_fitted
        assert tiny_actor.center.shape == (
            tiny_actor.built.activity.n_nodes,
            tiny_actor.config.dim,
        )
        assert tiny_actor.trainer is not None

    def test_user_embeddings_pretrained_when_mentions_exist(self, tiny_actor):
        # the utgeo2011 preset has mentions -> LINE pretraining ran
        assert tiny_actor.user_embeddings is not None
        assert tiny_actor.user_embeddings.shape[1] == tiny_actor.config.dim

    def test_no_pretraining_without_mentions(self):
        data = generate_dataset("tweet", n_records=600, seed=0)
        model = Actor(
            ActorConfig(dim=8, epochs=1, batches_per_epoch=2, seed=0)
        ).fit(data.train)
        assert model.user_embeddings is None

    def test_no_pretraining_when_inter_disabled(self):
        data = generate_dataset("utgeo2011", n_records=600, seed=0)
        model = Actor(
            ActorConfig(
                dim=8, epochs=1, batches_per_epoch=2, use_inter=False, seed=0
            )
        ).fit(data.train)
        assert model.user_embeddings is None

    def test_seeded_fit_reproducible(self):
        data = generate_dataset("utgeo2011", n_records=600, seed=1)
        config = ActorConfig(
            dim=8, epochs=1, batches_per_epoch=2, line_samples=2000, seed=4
        )
        a = Actor(config).fit(data.train)
        b = Actor(config).fit(data.train)
        np.testing.assert_array_equal(a.center, b.center)

    def test_default_config_used_when_none(self):
        model = Actor()
        assert model.config.dim == ActorConfig().dim

    def test_supports_time_and_name(self):
        assert Actor.supports_time
        assert Actor.name == "ACTOR"


class TestAblations:
    def test_wo_intra_trains(self):
        data = generate_dataset("utgeo2011", n_records=600, seed=2)
        model = Actor(
            ActorConfig(
                dim=8,
                epochs=1,
                batches_per_epoch=2,
                use_intra_bow=False,
                line_samples=2000,
                seed=0,
            )
        ).fit(data.train)
        assert model.is_fitted
        task_names = {t.name for t in model.trainer.tasks}
        assert not any(n.startswith("bow:") for n in task_names)


class TestPersistence:
    def test_save_load_roundtrip(self, tiny_actor, tmp_path, dataset):
        path = tmp_path / "actor.pkl"
        tiny_actor.save(path)
        loaded = Actor.load(path)
        np.testing.assert_array_equal(loaded.center, tiny_actor.center)
        # The graph travels as edge arrays: no accumulator, no edge dicts.
        graph = loaded.built.activity
        assert graph._pending is None
        assert "_edges" not in vars(graph)
        assert list(graph.edge_sets) == list(tiny_actor.built.activity.edge_sets)
        record = dataset.test[0]
        original = tiny_actor.score_candidates(
            target="text",
            candidates=[record.words],
            time=record.timestamp,
            location=record.location,
        )
        reloaded = loaded.score_candidates(
            target="text",
            candidates=[record.words],
            time=record.timestamp,
            location=record.location,
        )
        np.testing.assert_allclose(original, reloaded)

    def test_saved_model_carries_no_metrics_registry(self, tmp_path):
        """The registry a fit reports into belongs to the run, not the model."""
        data = generate_dataset("utgeo2011", n_records=600, seed=5)
        config = ActorConfig(
            dim=8, epochs=1, batches_per_epoch=2, line_samples=2000, seed=0
        )
        plain, metered = tmp_path / "plain.pkl", tmp_path / "metered.pkl"
        Actor(config).fit(data.train).save(plain)
        Actor(config).fit(data.train, metrics=MetricsRegistry()).save(metered)
        assert metered.stat().st_size == plain.stat().st_size
        loaded = Actor.load(metered)
        assert loaded.built.detector.metrics is None
        assert loaded.trainer.metrics is None

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="unfitted"):
            Actor().save(tmp_path / "x.pkl")

    def test_load_wrong_type_raises(self, tmp_path):
        import pickle

        path = tmp_path / "junk.pkl"
        with path.open("wb") as handle:
            pickle.dump({"not": "an actor"}, handle)
        with pytest.raises(TypeError, match="Actor"):
            Actor.load(path)
