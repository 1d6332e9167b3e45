"""Bundle format v3: sharded sidecars, back-compat, and the shard guard."""

from __future__ import annotations

import json
import urllib.request

import numpy as np
import pytest

from repro.ann import IndexedQueryEngine
from repro.core import QueryEngine, load_bundle, save_bundle
from repro.core.serialize import BundleFormatError, SHARDED_FORMAT_VERSION
from repro.lifecycle import BundlePublisher
from repro.serving import QueryServer
from repro.sharding import ShardedStore, shard_subdir

# A fixed request set covering every neighbor modality, a word bag with an
# unknown word, and both predict targets.
REQUESTS = [
    ("/v1/neighbors", {"modality": "word", "time": 21.0, "k": 7}),
    ("/v1/neighbors", {"modality": "word", "location": [2.0, 3.0], "k": 10}),
    ("/v1/neighbors", {"modality": "time", "words": ["common_000"], "k": 3}),
    ("/v1/neighbors", {"modality": "location", "time": 3.0, "k": 5}),
    (
        "/v1/neighbors",
        {"modality": "word", "words": ["common_001", "no_such_word"], "k": 4},
    ),
    (
        "/v1/predict",
        {
            "target": "time",
            "candidates": [2.0, 9.5, 13.0, 21.5],
            "words": ["common_000"],
            "location": [1.0, 2.0],
        },
    ),
    (
        "/v1/predict",
        {
            "target": "location",
            "candidates": [[0.5, 0.5], [10.0, 12.0], [3.3, 7.7]],
            "time": 20.0,
        },
    ),
]


def _post_raw(url: str, body) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST"
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read()


@pytest.fixture()
def v3_root(tmp_path, tiny_actor):
    root = tmp_path / "v3"
    save_bundle(tiny_actor, root, shards=4)
    return root


class TestLayout:
    def test_manifest_and_sidecars(self, v3_root):
        manifest = json.loads((v3_root / "manifest.json").read_text())
        assert manifest["format_version"] == SHARDED_FORMAT_VERSION
        assert manifest["sharding"] == {
            "n_shards": 4,
            "partitioner": "splitmix64",
        }
        # Matrices live only in the per-shard sidecars.
        assert not (v3_root / "center.npy").exists()
        for s in range(4):
            assert (shard_subdir(v3_root, s) / "center.npy").exists()
            assert (shard_subdir(v3_root, s) / "context.npy").exists()

    def test_unsharded_export_stays_v2(self, tmp_path, tiny_actor):
        save_bundle(tiny_actor, tmp_path / "v2", shards=1)
        manifest = json.loads(
            (tmp_path / "v2" / "manifest.json").read_text()
        )
        assert manifest["format_version"] == 2
        assert "sharding" not in manifest
        assert (tmp_path / "v2" / "center.npy").exists()


class TestRoundTrip:
    @pytest.mark.parametrize("mmap", [False, True])
    def test_loads_sharded_and_matches_source(
        self, v3_root, tiny_actor, mmap
    ):
        model = load_bundle(v3_root, mmap=mmap)
        assert isinstance(model._store, ShardedStore)
        assert model._store.n_shards == 4
        np.testing.assert_array_equal(
            np.asarray(model.center), np.asarray(tiny_actor.center)
        )
        np.testing.assert_array_equal(
            np.asarray(model.context), np.asarray(tiny_actor.context)
        )

    def test_neighbors_parity_with_v2(self, v3_root, tmp_path, tiny_actor):
        save_bundle(tiny_actor, tmp_path / "v2")
        eager = QueryEngine(load_bundle(v3_root))
        mapped = QueryEngine(load_bundle(v3_root, mmap=True))
        flat = QueryEngine(load_bundle(tmp_path / "v2"))
        rng = np.random.default_rng(21)
        for modality in ("word", "time", "location", "user"):
            query = rng.standard_normal(tiny_actor.dim)
            want = flat.neighbors(query, modality, 10)
            assert eager.neighbors(query, modality, 10) == want
            assert mapped.neighbors(query, modality, 10) == want

        # Served over HTTP, the v3 bundle goes through the same engine
        # class as the v2 one and answers with the same bytes, exact and
        # ANN (nprobe < nlist: a per-shard index would rank differently).
        for ann, engine_cls in ((False, QueryEngine), (True, IndexedQueryEngine)):
            bodies = {}
            for name, root in (("v2", tmp_path / "v2"), ("v3", v3_root)):
                model = load_bundle(root, mmap=True)
                with QueryServer(
                    model, port=0, ann=ann, ann_nlist=8, ann_nprobe=2
                ) as server:
                    assert type(server.engine) is engine_cls
                    bodies[name] = [
                        _post_raw(server.url + path, body)
                        for path, body in REQUESTS
                    ]
            assert all(status == 200 for status, _ in bodies["v2"])
            assert bodies["v3"] == bodies["v2"], f"ann={ann}"


class TestValidation:
    def test_missing_shard_sidecar_fails_loudly(self, v3_root):
        target = shard_subdir(v3_root, 2) / "center.npy"
        target.unlink()
        with pytest.raises(BundleFormatError, match="shard sidecar"):
            load_bundle(v3_root, mmap=True)
        with pytest.raises(BundleFormatError, match="missing"):
            load_bundle(v3_root)

    def test_wrong_shard_count_is_mis_sharded(self, v3_root):
        manifest = json.loads((v3_root / "manifest.json").read_text())
        manifest["sharding"]["n_shards"] = 3
        (v3_root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleFormatError):
            load_bundle(v3_root)

    def test_unknown_partitioner_rejected(self, v3_root):
        manifest = json.loads((v3_root / "manifest.json").read_text())
        manifest["sharding"]["partitioner"] = "crc32"
        (v3_root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleFormatError, match="partitioner"):
            load_bundle(v3_root)


class TestFleetGuard:
    def test_invalid_counts_rejected(self, tmp_path, tiny_actor):
        for shards in (0, -1):
            with pytest.raises(ValueError, match="shards must be >= 1"):
                save_bundle(tiny_actor, tmp_path / "nope", shards=shards)
        # Checked before any directory is created.
        assert not (tmp_path / "nope").exists()


class TestPublisher:
    def test_publishes_sharded_epochs(self, tmp_path, tiny_actor):
        publisher = BundlePublisher(tmp_path / "bundles", shards=2)
        path = publisher.publish(tiny_actor)
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format_version"] == SHARDED_FORMAT_VERSION
        model = load_bundle(path, mmap=True)
        assert isinstance(model._store, ShardedStore)
        assert model._store.n_shards == 2

    def test_rejects_bad_shard_count(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            BundlePublisher(tmp_path / "bundles", shards=0)
