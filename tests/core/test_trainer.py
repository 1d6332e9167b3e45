"""Tests for the ACTOR training loop and its task construction."""

import numpy as np
import pytest

import repro.core.trainer as trainer_module
from repro.core import Actor, ActorConfig
from repro.core.hierarchical import random_init
from repro.core.trainer import ActorTrainer
from repro.embedding import fork_available
from repro.graphs import GraphBuilder
from repro.hotspots import HotspotDetector
from repro.storage import DenseStore, SharedMatrix


@pytest.fixture(scope="module")
def small_built(corpus):
    return GraphBuilder(
        detector=HotspotDetector(min_support=2),
    ).build(corpus)


def make_trainer(built, config):
    rng = np.random.default_rng(config.seed)
    center, context = random_init(built.activity.n_nodes, config.dim, rng)
    return ActorTrainer(built, config, center, context)


class TestTaskConstruction:
    def test_complete_model_tasks(self, small_built):
        trainer = make_trainer(small_built, ActorConfig(dim=8, epochs=1))
        names = {t.name for t in trainer.tasks}
        # inter tasks
        assert {"plain:UT", "plain:UW", "plain:UL"} <= names
        # intra with bag-of-words structure
        assert "plain:TL" in names
        assert "bow:LW" in names and "bow:WT" in names and "bow:WW" in names

    def test_wo_inter_drops_user_tasks(self, small_built):
        trainer = make_trainer(
            small_built, ActorConfig(dim=8, epochs=1, use_inter=False)
        )
        names = {t.name for t in trainer.tasks}
        assert not any(n.startswith("plain:U") for n in names)

    def test_wo_intra_uses_plain_word_tasks(self, small_built):
        trainer = make_trainer(
            small_built, ActorConfig(dim=8, epochs=1, use_intra_bow=False)
        )
        names = {t.name for t in trainer.tasks}
        assert "plain:LW" in names and "plain:WT" in names and "plain:WW" in names
        assert not any(n.startswith("bow:") for n in names)

    def test_shape_mismatch_rejected(self, small_built):
        config = ActorConfig(dim=8, epochs=1)
        rng = np.random.default_rng(0)
        center, context = random_init(small_built.activity.n_nodes, 8, rng)
        with pytest.raises(ValueError, match="equal shapes"):
            ActorTrainer(small_built, config, center, context[:, :4])
        center_bad, _ = random_init(3, 8, rng)
        with pytest.raises(ValueError, match="graph nodes"):
            ActorTrainer(small_built, config, center_bad, center_bad.copy())


class TestTraining:
    def test_loss_decreases(self, small_built):
        config = ActorConfig(dim=16, epochs=8, batches_per_epoch=8, seed=0)
        trainer = make_trainer(small_built, config).train()
        assert len(trainer.loss_history) == 8
        assert trainer.loss_history[-1] < trainer.loss_history[0]

    def test_embeddings_stay_finite(self, small_built):
        config = ActorConfig(
            dim=16, epochs=3, batches_per_epoch=4, lr=0.1, seed=0
        )
        trainer = make_trainer(small_built, config).train()
        assert np.isfinite(trainer.center).all()
        assert np.isfinite(trainer.context).all()

    def test_training_moves_embeddings(self, small_built):
        config = ActorConfig(dim=8, epochs=1, batches_per_epoch=2, seed=0)
        trainer = make_trainer(small_built, config)
        before = trainer.center.copy()
        trainer.train()
        assert not np.array_equal(before, trainer.center)

    def test_seeded_single_thread_reproducible(self, small_built):
        config = ActorConfig(dim=8, epochs=2, batches_per_epoch=3, seed=5)
        a = make_trainer(small_built, config).train()
        b = make_trainer(small_built, config).train()
        np.testing.assert_array_equal(a.center, b.center)

    def test_multithreaded_training_runs(self, small_built):
        config = ActorConfig(
            dim=8, epochs=2, batches_per_epoch=4, n_threads=2, seed=0
        )
        trainer = make_trainer(small_built, config).train()
        assert np.isfinite(trainer.center).all()
        assert len(trainer.loss_history) == 2

    def test_batches_per_epoch_default_scales_with_edges(self, small_built):
        trainer = make_trainer(small_built, ActorConfig(dim=8, epochs=1))
        batches = trainer.batches_per_epoch()
        expected = small_built.activity.n_edges / (
            256 * len(trainer.tasks)
        )
        assert batches == max(1, int(np.ceil(expected)))

    def test_batches_per_epoch_override(self, small_built):
        trainer = make_trainer(
            small_built, ActorConfig(dim=8, epochs=1, batches_per_epoch=7)
        )
        assert trainer.batches_per_epoch() == 7


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
class TestParallelStaging:
    def test_fit_copies_back_into_the_dense_store(self, dataset, monkeypatch):
        """Hogwild trains on private shared memory, then hands it back.

        Both matrices are staged in :class:`SharedMatrix` segments for the
        pool's lifetime; the trained values land in the model's own
        arrays, and both segments are unlinked afterwards.
        """
        from multiprocessing import shared_memory

        staged = []

        class Recording(SharedMatrix):
            def __init__(self, initial):
                super().__init__(initial)
                self.initial = np.array(initial)
                self.name = self._shm.name
                staged.append(self)

            def close(self):
                if self.array is not None:
                    self.final = self.copy()
                super().close()

        monkeypatch.setattr(trainer_module, "SharedMatrix", Recording)
        config = ActorConfig(
            dim=8, epochs=2, line_samples=1_000, batches_per_epoch=4,
            n_threads=2, seed=3,
        )
        model = Actor(config).fit(dataset.train)
        assert type(model.store) is DenseStore
        assert len(staged) == 2
        for matrix, name in zip(staged, ("center", "context")):
            live = model.store.as_array(name)
            # The very array the trainer was built over...
            assert live is getattr(model.trainer, name)
            # ...moved off its initialization, to the staged result.
            assert not np.array_equal(live, matrix.initial)
            np.testing.assert_array_equal(live, matrix.final)
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=matrix.name)
