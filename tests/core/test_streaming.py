"""Tests for the online/streaming ACTOR extension."""

import pickle

import numpy as np
import pytest

from repro.core import Actor, ActorConfig
from repro.core.streaming import OnlineActor, RecencyBuffer
from repro.data import Record, generate_dataset
from repro.data.records import Corpus
from repro.hotspots.detector import HotspotDetector


class TestRecencyBuffer:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecencyBuffer(half_life=0)
        with pytest.raises(ValueError):
            RecencyBuffer(max_size=0)
        buffer = RecencyBuffer()
        with pytest.raises(ValueError, match="weight"):
            buffer.add_edge(0, 1, weight=0.0)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="empty"):
            RecencyBuffer().sample(4, np.random.default_rng(0))

    def test_decay_halves_at_half_life(self):
        buffer = RecencyBuffer(half_life=5.0)
        buffer.add_edge(0, 1, weight=2.0)
        for _ in range(5):
            buffer.tick()
        assert buffer.decayed_weights()[0] == pytest.approx(1.0)

    def test_recent_edges_dominate_sampling(self):
        buffer = RecencyBuffer(half_life=1.0)
        buffer.add_edge(0, 1)  # old edge
        for _ in range(10):
            buffer.tick()
        buffer.add_edge(2, 3)  # fresh edge
        src, dst = buffer.sample(2000, np.random.default_rng(0))
        fresh = np.mean([(s, d) in ((2, 3), (3, 2)) for s, d in zip(src, dst)])
        assert fresh > 0.95

    def test_sampling_respects_weight(self):
        buffer = RecencyBuffer(half_life=100.0)
        buffer.add_edge(0, 1, weight=3.0)
        buffer.add_edge(2, 3, weight=1.0)
        src, dst = buffer.sample(20_000, np.random.default_rng(1))
        heavy = np.mean([(s, d) in ((0, 1), (1, 0)) for s, d in zip(src, dst)])
        assert heavy == pytest.approx(0.75, abs=0.02)

    def test_eviction_at_capacity(self):
        buffer = RecencyBuffer(max_size=3)
        for i in range(5):
            buffer.add_edge(i, i + 10)
        assert len(buffer) == 3
        src, _ = buffer.sample(100, np.random.default_rng(0))
        assert set(np.unique(src)) <= {2, 3, 4, 12, 13, 14}

    def test_both_orientations_sampled(self):
        buffer = RecencyBuffer()
        buffer.add_edge(0, 1)
        src, _dst = buffer.sample(500, np.random.default_rng(2))
        assert {0, 1} == set(np.unique(src))

    def test_decay_bit_exact_with_scalar_formula(self):
        """Regression for the recency-decay drift bug: decayed weights must
        equal ``weight * 0.5 ** (age / half_life)`` computed with *scalar*
        arithmetic, bit for bit (``==``, not approx).  The vectorized
        ``np.power`` path disagreed in the last ulp for some ages."""
        half_life = 3.0
        buffer = RecencyBuffer(half_life=half_life)
        ages = [0, 1, 2, 5, 7, 11, 23]
        for insert_order, age in enumerate(sorted(ages, reverse=True)):
            buffer.clock = max(ages) - age
            buffer.add_edge(insert_order, insert_order + 100, weight=1.7)
        buffer.clock = max(ages)
        weights = buffer.decayed_weights()
        expected = [1.7 * 0.5 ** (age / half_life) for age in sorted(ages, reverse=True)]
        for got, want in zip(weights, expected):
            assert got == want  # exact, no tolerance

    def test_ring_wraparound_preserves_logical_order(self):
        buffer = RecencyBuffer(max_size=4)
        for i in range(10):
            buffer.add_edge(i, i + 100)
            buffer.tick()
        assert len(buffer) == 4
        assert buffer.evictions == 6
        state = buffer.state()
        np.testing.assert_array_equal(state["src"], [6, 7, 8, 9])
        np.testing.assert_array_equal(state["dst"], [106, 107, 108, 109])
        np.testing.assert_array_equal(state["born"], [6, 7, 8, 9])

    def test_add_edges_bulk_matches_scalar_appends(self):
        bulk = RecencyBuffer(half_life=4.0)
        loop = RecencyBuffer(half_life=4.0)
        src = np.arange(7)
        bulk.add_edges(src, src + 50, weight=2.5)
        for i in range(7):
            loop.add_edge(i, i + 50, weight=2.5)
        for key in ("src", "dst", "weight", "born"):
            np.testing.assert_array_equal(bulk.state()[key], loop.state()[key])

    def test_add_edges_batch_larger_than_capacity_keeps_newest(self):
        buffer = RecencyBuffer(max_size=3)
        buffer.add_edge(999, 998)  # will be evicted with the batch overflow
        src = np.arange(10)
        buffer.add_edges(src, src + 100)
        assert len(buffer) == 3
        assert buffer.evictions == 8  # the pre-existing edge + 7 of the batch
        np.testing.assert_array_equal(buffer.state()["src"], [7, 8, 9])

    def test_add_edges_rejects_nonpositive_weights(self):
        buffer = RecencyBuffer()
        with pytest.raises(ValueError, match="positive"):
            buffer.add_edges([0, 1], [2, 3], weight=0.0)
        with pytest.raises(ValueError, match="positive"):
            buffer.add_edges([0, 1], [2, 3], weight=np.array([1.0, -2.0]))
        with pytest.raises(ValueError, match="length"):
            buffer.add_edges([0, 1], [2])

    def test_state_roundtrip(self):
        buffer = RecencyBuffer(half_life=2.0, max_size=50)
        for i in range(8):
            buffer.add_edge(i, i + 10, weight=1.0 + i)
            if i % 2:
                buffer.tick()
        restored = RecencyBuffer.from_state(
            buffer.state(), half_life=2.0, max_size=50
        )
        assert len(restored) == len(buffer)
        assert restored.clock == buffer.clock
        np.testing.assert_array_equal(
            restored.decayed_weights(), buffer.decayed_weights()
        )
        s1 = buffer.sample(40, np.random.default_rng(7))
        s2 = restored.sample(40, np.random.default_rng(7))
        np.testing.assert_array_equal(s1[0], s2[0])
        np.testing.assert_array_equal(s1[1], s2[1])

    def test_from_state_rejects_corrupt_state(self):
        buffer = RecencyBuffer()
        buffer.add_edge(0, 1)
        state = buffer.state()
        with pytest.raises(ValueError, match="max_size"):
            RecencyBuffer.from_state(
                {**state, "src": np.arange(9), "dst": np.arange(9),
                 "weight": np.ones(9), "born": np.zeros(9, dtype=int)},
                half_life=1.0, max_size=4,
            )
        with pytest.raises(ValueError, match="mismatched"):
            RecencyBuffer.from_state(
                {**state, "dst": np.arange(3)}, half_life=1.0, max_size=10
            )
        with pytest.raises(ValueError, match="born after"):
            RecencyBuffer.from_state(
                {**state, "born": np.array([99])}, half_life=1.0, max_size=10
            )


@pytest.fixture(scope="module")
def warm_actor():
    data = generate_dataset("utgeo2011", n_records=1200, seed=21)
    actor = Actor(
        ActorConfig(
            dim=16, epochs=4, batches_per_epoch=6, line_samples=5_000, seed=2
        )
    ).fit(data.train)
    return data, actor


def make_stream_records(base_id, words, location, hour, user="stream_user"):
    return [
        Record(
            record_id=base_id + i,
            user=user,
            timestamp=float(hour + 24 * i),
            location=location,
            words=tuple(words),
        )
        for i in range(20)
    ]


class TestOnlineActor:
    def test_requires_fitted_base(self):
        with pytest.raises(ValueError, match="fitted"):
            OnlineActor(Actor())

    def test_base_model_not_mutated(self, warm_actor):
        _data, actor = warm_actor
        before = actor.center.copy()
        online = OnlineActor(actor, seed=0)
        online.partial_fit(
            make_stream_records(10_000, ["nightlife_00"], (5.0, 5.0), 22.0)
        )
        np.testing.assert_array_equal(actor.center, before)
        assert online.n_ingested == 20

    def test_base_vocabulary_not_mutated(self, warm_actor, tmp_path):
        """Streamed-in words go to the online model's own word index, on
        partial_fit and on checkpoint restore alike."""
        _data, actor = warm_actor
        fresh_base = pickle.loads(pickle.dumps(actor))
        words_before = actor.built.vocab.words
        online = OnlineActor(actor, seed=0)
        online.partial_fit(
            make_stream_records(
                90_000, ["vocab_probe_a", "vocab_probe_b"], (5.0, 5.0), 9.0
            )
        )
        assert "vocab_probe_a" in online.built.vocab
        assert actor.built.vocab.words == words_before
        online.save_checkpoint(tmp_path / "ckpt")
        restored = OnlineActor.restore(fresh_base, tmp_path / "ckpt")
        assert restored.built.vocab.words == online.built.vocab.words
        assert fresh_base.built.vocab.words == words_before

    def test_empty_batch_is_noop(self, warm_actor):
        _data, actor = warm_actor
        online = OnlineActor(actor, seed=0)
        before = online.center.copy()
        online.partial_fit([])
        np.testing.assert_array_equal(online.center, before)

    def test_new_word_gets_embedding_row(self, warm_actor):
        _data, actor = warm_actor
        online = OnlineActor(actor, seed=0)
        rows_before = online.center.shape[0]
        assert online.unit_vector("word", "brand_new_venue") is None
        online.partial_fit(
            make_stream_records(
                20_000, ["brand_new_venue", "nightlife_00"], (5.0, 5.0), 22.0
            )
        )
        assert online.center.shape[0] > rows_before
        assert online.unit_vector("word", "brand_new_venue") is not None

    def test_new_user_resolvable(self, warm_actor):
        _data, actor = warm_actor
        online = OnlineActor(actor, seed=0)
        online.partial_fit(
            make_stream_records(
                30_000, ["nightlife_00"], (5.0, 5.0), 22.0, user="u_brand_new"
            )
        )
        assert online.unit_vector("user", "u_brand_new") is not None

    def test_streamed_word_associates_with_its_context(self, warm_actor):
        """After enough updates the new word's nearest time unit is the
        hour it streamed in with."""
        data, actor = warm_actor
        online = OnlineActor(
            actor, seed=0, steps_per_batch=150, online_lr=0.05
        )
        hour = 22.0
        location = data.train[0].location
        for round_id in range(5):
            online.partial_fit(
                make_stream_records(
                    40_000 + 100 * round_id, ["fresh_event"], location, hour
                )
            )
        vec = online.unit_vector("word", "fresh_event")
        top_times = online.neighbors(vec, "time", k=3)
        hotspots = online.built.detector.temporal_hotspots
        gaps = [
            min(abs(hotspots[int(i)] - hour), 24 - abs(hotspots[int(i)] - hour))
            for i, _s in top_times
        ]
        assert min(gaps) < 4.0, (top_times, hotspots)

    def test_new_word_appears_in_modality_vectors(self, warm_actor):
        _data, actor = warm_actor
        online = OnlineActor(actor, seed=0)
        online.partial_fit(
            make_stream_records(50_000, ["another_new_word"], (5.0, 5.0), 9.0)
        )
        keys, matrix = online.modality_vectors("word")
        assert "another_new_word" in keys
        assert matrix.shape[0] == len(keys)

    def test_capped_vocabulary_refuses_growth(self, warm_actor):
        data, _actor = warm_actor
        capped = Actor(
            ActorConfig(
                dim=8,
                epochs=1,
                batches_per_epoch=2,
                line_samples=2_000,
                vocab_max_size=5,  # tiny cap: the stream word cannot enter
                vocab_min_count=1,
                seed=3,
            )
        ).fit(data.train)
        online = OnlineActor(capped, seed=0)
        rows_before = online.center.shape[0]
        online.partial_fit(
            make_stream_records(60_000, ["word_beyond_cap"], (5.0, 5.0), 9.0)
        )
        # word not admitted; only (possibly) the new user row was added
        assert online.unit_vector("word", "word_beyond_cap") is None
        assert online.center.shape[0] <= rows_before + 1


def make_tiny_corpus(n=30):
    """Hand-built corpus: one spatial cluster, one temporal cluster."""
    records = [
        Record(
            record_id=i,
            user=f"u{i % 3}",
            timestamp=12.0 + 24.0 * i + 0.1 * (i % 5),
            location=(1.0 + 0.05 * (i % 4), 1.0),
            words=("alpha", "beta", "gamma"),
        )
        for i in range(n)
    ]
    return Corpus.from_records(records)


def fit_tiny_actor(detector=None, **config_overrides):
    config = ActorConfig(
        dim=8,
        epochs=1,
        batches_per_epoch=2,
        line_samples=2_000,
        vocab_min_count=1,
        seed=3,
        **config_overrides,
    )
    return Actor(config).fit(make_tiny_corpus(), detector=detector)


class TestWordAdmissionCap:
    def test_cap_reached_mid_batch_refuses_remainder(self):
        # Trained vocabulary holds 3 words; the cap leaves room for exactly
        # 2 more.  A single batch carrying 4 new words must admit the first
        # 2 it encounters and refuse the rest *within the same batch*.
        actor = fit_tiny_actor(vocab_max_size=5)
        assert len(actor.built.vocab) == 3
        online = OnlineActor(actor, seed=0)
        records = [
            Record(
                record_id=100 + i,
                user="u0",
                timestamp=12.0 + 24.0 * i,
                location=(1.0, 1.0),
                words=("new_a", "new_b", "new_c", "new_d"),
            )
            for i in range(3)
        ]
        online.partial_fit(records)
        assert len(online.built.vocab) == 5
        assert online.unit_vector("word", "new_a") is not None
        assert online.unit_vector("word", "new_b") is not None
        assert online.unit_vector("word", "new_c") is None
        assert online.unit_vector("word", "new_d") is None
        # Later batches cannot sneak past the cap either.
        online.partial_fit(
            [
                Record(
                    record_id=200,
                    user="u0",
                    timestamp=12.0,
                    location=(1.0, 1.0),
                    words=("new_e",),
                )
            ]
        )
        assert online.unit_vector("word", "new_e") is None
        assert len(online.built.vocab) == 5


class TestNodeResolution:
    def test_node_of_resolves_all_modalities_gracefully(self):
        """After hotspot drift the detector knows hotspots the base graph
        has no nodes for.  Base and online models both degrade to None
        (-> zero query vector) there — matching the batched engine's
        ``index_map`` fallback — and the online model resolves the units
        once records stream in."""
        actor = fit_tiny_actor(
            detector=HotspotDetector.from_arrays(
                np.array([[1.0, 1.0]]), np.array([12.0])
            )
        )
        # Simulate a detector refresh that discovered a second district and
        # a night-time hotspot the training corpus never produced.
        actor.built.detector = HotspotDetector.from_arrays(
            np.array([[1.0, 1.0], [9.0, 9.0]]), np.array([12.0, 3.0])
        )
        assert actor.unit_vector("time", 3.0) is None
        assert actor.unit_vector("location", (9.0, 9.0)) is None

        online = OnlineActor(actor, seed=0)
        assert online.unit_vector("time", 3.0) is None
        assert online.unit_vector("location", (9.0, 9.0)) is None
        assert online.unit_vector("word", "unseen_word") is None
        assert online.unit_vector("user", "unseen_user") is None
        with pytest.raises(ValueError, match="modality"):
            online.unit_vector("planet", "mars")

        online.partial_fit(
            [
                Record(
                    record_id=300 + i,
                    user="night_user",
                    timestamp=3.0 + 24.0 * i,
                    location=(9.0, 9.0),
                    words=("night_word",),
                )
                for i in range(5)
            ]
        )
        assert online.unit_vector("time", 3.0) is not None
        assert online.unit_vector("location", (9.0, 9.0)) is not None
        assert online.unit_vector("word", "night_word") is not None
        assert online.unit_vector("user", "night_user") is not None
        # Known base units still resolve to their base rows.
        assert online.unit_vector("time", 12.0) is not None


class TestCheckpointRoundtrip:
    def test_roundtrip_preserves_predictions_and_stream(
        self, warm_actor, tmp_path
    ):
        _data, actor = warm_actor
        online = OnlineActor(actor, seed=5, steps_per_batch=30)
        online.partial_fit(
            make_stream_records(
                70_000, ["ckpt_word"], (5.0, 5.0), 22.0, user="ckpt_user"
            )
        )
        ckpt = tmp_path / "ckpt"
        online.save_checkpoint(ckpt)
        restored = OnlineActor.restore(actor, ckpt)

        np.testing.assert_array_equal(restored.center, online.center)
        np.testing.assert_array_equal(restored.context, online.context)
        assert restored.n_ingested == online.n_ingested
        assert restored._extra_nodes == online._extra_nodes
        for modality, key in (("word", "ckpt_word"), ("user", "ckpt_user")):
            np.testing.assert_array_equal(
                restored.unit_vector(modality, key),
                online.unit_vector(modality, key),
            )
        # Buffer contents round-trip: identical draws under identical rngs.
        s1 = online.buffer.sample(60, np.random.default_rng(3))
        s2 = restored.buffer.sample(60, np.random.default_rng(3))
        np.testing.assert_array_equal(s1[0], s2[0])
        np.testing.assert_array_equal(s1[1], s2[1])
        # The RNG stream resumes too: continued streaming stays bit-aligned.
        more = make_stream_records(71_000, ["ckpt_word"], (5.0, 5.0), 22.0)
        online.partial_fit(more)
        restored.partial_fit(more)
        np.testing.assert_array_equal(restored.center, online.center)

    def test_restore_rejects_mismatched_base(self, warm_actor, tmp_path):
        _data, actor = warm_actor
        online = OnlineActor(actor, seed=5)
        online.partial_fit(
            make_stream_records(80_000, ["mismatch_word"], (5.0, 5.0), 9.0)
        )
        ckpt = tmp_path / "ckpt"
        online.save_checkpoint(ckpt)
        other = fit_tiny_actor()
        with pytest.raises(ValueError, match="base model"):
            OnlineActor.restore(other, ckpt)
        with pytest.raises(ValueError, match="fitted"):
            OnlineActor.restore(Actor(), ckpt)
