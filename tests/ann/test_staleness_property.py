"""Property test: the ANN index never serves stale rows under streaming.

Interleaves the two serving-time mutation paths — ``partial_fit`` growth
(new vocabulary rows appended to the store) and in-place SGD bursts
(rows scattered in place, then ``invalidate_query_cache``) — with ANN
and exact queries.  After *every* step, a full-coverage ANN probe
(``nprobe == nlist``) must reproduce, bit for bit, an exact einsum scan
over the store's *current* normalized rows: any stale index — old row
values, old row count, old key order — fails the comparison.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import IndexedQueryEngine
from repro.core import Actor, ActorConfig, OnlineActor
from repro.core.prediction import normalize_rows, top_k
from repro.utils.metrics import MetricsRegistry

ops_strategy = st.lists(
    st.sampled_from(["grow", "burst", "query", "query"]),
    min_size=3,
    max_size=7,
)


@pytest.fixture(scope="module")
def base_actor(dataset):
    config = ActorConfig(
        dim=8,
        epochs=1,
        line_samples=1_000,
        batches_per_epoch=2,
        seed=21,
    )
    return Actor(config).fit(dataset.train)


def exact_reference(model, query, k):
    """Fresh exact top-``k`` over the live store, einsum kernel."""
    cache = model.modality_cache("word")
    q = normalize_rows(np.asarray(query, dtype=float)[None, :])[0]
    scores = np.einsum("nd,d->n", cache.normalized, q)
    order = top_k(scores, k)
    return [(cache.keys[int(i)], float(scores[i])) for i in order]


class TestStalenessProperty:
    @settings(max_examples=8, deadline=None)
    @given(ops=ops_strategy, seed=st.integers(0, 10_000))
    def test_property_index_tracks_every_mutation(
        self, dataset, base_actor, ops, seed
    ):
        rng = np.random.default_rng(seed)
        online = OnlineActor(
            base_actor, seed=seed, steps_per_batch=2, buffer_size=256
        )
        engine = IndexedQueryEngine(
            online, nlist=4, nprobe=4, metrics=MetricsRegistry()
        )
        grown = 0
        for step, op in enumerate(ops):
            if op == "grow":
                novel = [
                    replace(
                        r,
                        words=tuple(
                            f"novel_{seed}_{grown}_{j}"
                            for j in range(len(r.words) or 1)
                        ),
                    )
                    for r in dataset.test.records[
                        5 * step : 5 * step + 3
                    ]
                ]
                grown += 1
                rows_before = online.store.n_rows
                online.partial_fit(novel)
                assert online.store.n_rows > rows_before
            elif op == "burst":
                _keys, rows = online.modality_rows("word")
                pick = rows[int(rng.integers(0, len(rows)))]
                online.center[pick] += rng.normal(
                    scale=0.5, size=online.center.shape[1]
                )
                online.invalidate_query_cache()
            # After every op (including right after mutations) the ANN
            # answer must match an exact scan of the *current* store.
            query = rng.normal(size=online.center.shape[1])
            got = engine.neighbors(query, "word", 5)
            want = exact_reference(online, query, 5)
            assert [k for k, _ in got] == [k for k, _ in want]
            assert [s for _, s in got] == [s for _, s in want]
        if grown:
            # grown vocabulary is retrievable through the index: probing
            # with a novel word's own embedding returns that word first.
            cache = online.modality_cache("word")
            novel_keys = [
                k for k in cache.keys if str(k).startswith("novel_")
            ]
            key = novel_keys[-1]
            vec = np.asarray(
                cache.matrix[cache.position_of[key]], dtype=float
            )
            if np.linalg.norm(vec) > 0:
                assert engine.neighbors(vec, "word", 1)[0][0] == key
