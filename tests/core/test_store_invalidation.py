"""Property tests: every mutation path bumps ``store.version``.

Satellite of the storage refactor — the query engine's modality caches
key off one monotonic counter, so the invariant that matters is "any way
the embeddings can change advances the counter and the caches rebuild".
Covered paths: wholesale refit, ``partial_fit`` growth, in-place SGD
bursts, and buffer-evicting streaming updates.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Actor, ActorConfig, OnlineActor
from repro.eval.mrr import make_queries, query_rank
from repro.storage import DenseStore, normalize_rows

mutation_ops = st.lists(
    st.sampled_from(["put_row", "set_center", "set_context", "grow", "bump"]),
    min_size=1,
    max_size=8,
)


class TestStoreVersionProperty:
    @settings(max_examples=25, deadline=None)
    @given(ops=mutation_ops)
    def test_every_mutation_bumps_and_normalized_tracks(self, ops):
        """Arbitrary op sequences: version +1 per op, normalized fresh."""
        rng = np.random.default_rng(7)
        store = DenseStore(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        try:
            for op in ops:
                before = store.version
                if op == "put_row":
                    store.put_row(0, rng.normal(size=3))
                elif op == "set_center":
                    store.set_matrix(
                        "center", rng.normal(size=store.center.shape)
                    )
                elif op == "set_context":
                    store.set_matrix(
                        "context", rng.normal(size=store.context.shape)
                    )
                elif op == "grow":
                    store.grow(
                        rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
                    )
                else:
                    store.bump()
                assert store.version == before + 1
                np.testing.assert_array_equal(
                    store.normalized("center"), normalize_rows(store.center)
                )
                np.testing.assert_array_equal(
                    store.normalized("context"), normalize_rows(store.context)
                )
        finally:
            store.close()


@pytest.fixture(scope="module")
def refit_actor(dataset):
    """A cheap, privately-owned actor (tests here mutate it)."""
    config = ActorConfig(
        dim=8,
        epochs=1,
        line_samples=1_000,
        batches_per_epoch=2,
        seed=9,
    )
    return Actor(config).fit(dataset.train)


def _assert_caches_fresh(model, stale):
    """Every modality cache rebuilt and consistent with the live store."""
    for modality in ("time", "location", "word"):
        cache = model.modality_cache(modality)
        assert cache is not stale[modality]
        _keys, rows = model.modality_rows(modality)
        np.testing.assert_array_equal(cache.matrix, model.store.view(rows))
        np.testing.assert_array_equal(
            cache.normalized, model.store.normalized("center")[rows]
        )


def _stale_caches(model):
    return {m: model.modality_cache(m) for m in ("time", "location", "word")}


class TestModelMutationPaths:
    def test_refit_reuses_store_and_invalidates(self, refit_actor, dataset):
        store = refit_actor.store
        stale = _stale_caches(refit_actor)
        version = store.version
        refit_actor.fit(dataset.train)
        assert refit_actor.store is store  # refit keeps the same store
        assert store.version > version
        _assert_caches_fresh(refit_actor, stale)

    def test_inplace_burst_then_bump_invalidates(self, refit_actor):
        stale = _stale_caches(refit_actor)
        version = refit_actor.store.version
        refit_actor.center[:] += 0.01  # SGD-style scatter write
        refit_actor.invalidate_query_cache()
        assert refit_actor.store.version == version + 1
        _assert_caches_fresh(refit_actor, stale)

    def test_partial_fit_growth_invalidates(self, refit_actor, dataset):
        online = OnlineActor(refit_actor, seed=0)
        stale = _stale_caches(online)
        version = online.store.version
        rows_before = online.store.n_rows
        novel = [
            replace(
                r,
                words=tuple(f"fresh_{i}_{w}" for w in r.words)
                or (f"fresh_{i}",),
            )
            for i, r in enumerate(dataset.test.records[:30])
        ]
        online.partial_fit(novel)
        assert online.store.version > version
        assert online.store.n_rows > rows_before  # novel words grew rows
        _assert_caches_fresh(online, stale)

    def test_eviction_churn_stays_fresh(self, refit_actor, dataset):
        """A buffer small enough to evict every batch still serves fresh ranks."""
        online = OnlineActor(
            refit_actor,
            seed=1,
            buffer_size=64,
            steps_per_batch=5,
        )
        queries = make_queries(
            dataset.test, "location", n_noise=6, max_queries=10, seed=2
        )
        engine = online.query_engine()
        for start in (0, 25, 50):
            stale = _stale_caches(online)
            version = online.store.version
            online.partial_fit(dataset.test.records[start : start + 25])
            assert online.store.version > version
            _assert_caches_fresh(online, stale)
            batched = engine.rank_batch(queries)
            assert batched.tolist() == [query_rank(online, q) for q in queries]
        assert online.buffer.evictions > 0
