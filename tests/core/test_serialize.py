"""Tests for the portable (pickle-free) model bundle."""

import json
import shutil

import numpy as np
import pytest

from repro.core.serialize import (
    FORMAT_VERSION,
    BundleFormatError,
    QueryModel,
    load_bundle,
    save_bundle,
)
from repro.storage import MmapStore


@pytest.fixture(scope="module")
def bundle_dir(tiny_actor, tmp_path_factory):
    directory = tmp_path_factory.mktemp("bundle") / "model"
    save_bundle(tiny_actor, directory)
    return directory


@pytest.fixture()
def v1_bundle(bundle_dir, tmp_path):
    """A format-v1 bundle (compressed embeddings.npz) built from the v2 one."""
    old = tmp_path / "v1"
    shutil.copytree(bundle_dir, old)
    center = np.load(old / "center.npy")
    context = np.load(old / "context.npy")
    np.savez_compressed(
        old / "embeddings.npz", center=center, context=context
    )
    (old / "center.npy").unlink()
    (old / "context.npy").unlink()
    manifest = json.loads((old / "manifest.json").read_text())
    manifest["format_version"] = 1
    (old / "manifest.json").write_text(json.dumps(manifest))
    return old


class TestSaveBundle:
    def test_writes_expected_files(self, bundle_dir):
        names = {p.name for p in bundle_dir.iterdir()}
        assert names == {
            "manifest.json", "center.npy", "context.npy", "hotspots.npz",
            "nodes.json", "vocab.json",
        }

    def test_manifest_contents(self, bundle_dir, tiny_actor):
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["dim"] == tiny_actor.dim
        assert manifest["n_nodes"] == tiny_actor.center.shape[0]
        assert manifest["config"]["dim"] == tiny_actor.config.dim

    def test_unfitted_model_rejected(self, tmp_path):
        from repro.core import Actor

        with pytest.raises(ValueError, match="unfitted"):
            save_bundle(Actor(), tmp_path / "x")

    def test_no_pickle_files(self, bundle_dir):
        for path in bundle_dir.iterdir():
            assert path.suffix in (".json", ".npz", ".npy")


class TestLoadBundle:
    def test_roundtrip_embeddings(self, bundle_dir, tiny_actor):
        model = load_bundle(bundle_dir)
        np.testing.assert_array_equal(model.center, tiny_actor.center)
        np.testing.assert_array_equal(model.context, tiny_actor.context)

    def test_query_surface_identical(self, bundle_dir, tiny_actor, dataset):
        model = load_bundle(bundle_dir)
        record = dataset.test[0]
        candidates = [r.location for r in dataset.test.records[:6]]
        original = tiny_actor.score_candidates(
            target="location",
            candidates=candidates,
            time=record.timestamp,
            words=record.words,
        )
        restored = model.score_candidates(
            target="location",
            candidates=candidates,
            time=record.timestamp,
            words=record.words,
        )
        np.testing.assert_allclose(original, restored)

    def test_neighbor_search_identical(self, bundle_dir, tiny_actor):
        model = load_bundle(bundle_dir)
        word = tiny_actor.built.vocab.words[0]
        original = tiny_actor.neighbors(
            tiny_actor.unit_vector("word", word), "word", k=5
        )
        restored = model.neighbors(
            model.unit_vector("word", word), "word", k=5
        )
        assert [w for w, _s in original] == [w for w, _s in restored]

    def test_vocab_order_preserved(self, bundle_dir, tiny_actor):
        model = load_bundle(bundle_dir)
        assert model.built.vocab.words == tiny_actor.built.vocab.words

    def test_unknown_format_version_rejected(self, bundle_dir, tmp_path):
        bad = tmp_path / "bad"
        shutil.copytree(bundle_dir, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        manifest["format_version"] = 999
        (bad / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleFormatError, match="unsupported bundle format"):
            load_bundle(bad)

    def test_inconsistent_bundle_rejected(self, bundle_dir, tmp_path):
        bad = tmp_path / "inconsistent"
        shutil.copytree(bundle_dir, bad)
        nodes = json.loads((bad / "nodes.json").read_text())
        (bad / "nodes.json").write_text(json.dumps(nodes[:-1]))
        with pytest.raises(BundleFormatError, match="inconsistent"):
            load_bundle(bad)

    def test_loaded_model_is_query_model(self, bundle_dir):
        model = load_bundle(bundle_dir)
        assert isinstance(model, QueryModel)
        assert model.supports_time
        assert model.name == "ACTOR(bundle)"

    def test_bundle_roundtrips_itself(self, bundle_dir, tmp_path):
        """A loaded QueryModel can be re-serialized identically."""
        model = load_bundle(bundle_dir)
        second = tmp_path / "second"
        save_bundle(model, second)
        again = load_bundle(second)
        np.testing.assert_array_equal(model.center, again.center)


class TestBundleFormatErrors:
    """Malformed bundles fail with errors naming field and version."""

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(BundleFormatError, match="manifest.json"):
            load_bundle(tmp_path)

    def test_truncated_manifest(self, bundle_dir, tmp_path):
        bad = tmp_path / "truncated"
        shutil.copytree(bundle_dir, bad)
        text = (bad / "manifest.json").read_text()
        (bad / "manifest.json").write_text(text[: len(text) // 2])
        with pytest.raises(BundleFormatError, match="corrupt or truncated"):
            load_bundle(bad)

    def test_missing_manifest_field_named(self, bundle_dir, tmp_path):
        bad = tmp_path / "nofield"
        shutil.copytree(bundle_dir, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        del manifest["period"]
        (bad / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleFormatError, match="'period'") as excinfo:
            load_bundle(bad)
        assert f"format v{FORMAT_VERSION}" in str(excinfo.value)

    def test_truncated_embeddings_file(self, bundle_dir, tmp_path):
        bad = tmp_path / "tructrunc"
        shutil.copytree(bundle_dir, bad)
        raw = (bad / "center.npy").read_bytes()
        (bad / "center.npy").write_bytes(raw[: len(raw) // 3])
        with pytest.raises(BundleFormatError, match="center.npy"):
            load_bundle(bad)

    def test_missing_embeddings_file(self, bundle_dir, tmp_path):
        bad = tmp_path / "noembed"
        shutil.copytree(bundle_dir, bad)
        (bad / "context.npy").unlink()
        with pytest.raises(BundleFormatError, match="context.npy"):
            load_bundle(bad)

    def test_error_is_a_value_error(self):
        """Callers catching the historical ValueError keep working."""
        assert issubclass(BundleFormatError, ValueError)


class TestV1Compatibility:
    def test_v1_bundle_still_loads(self, v1_bundle, tiny_actor):
        model = load_bundle(v1_bundle)
        np.testing.assert_array_equal(model.center, tiny_actor.center)
        np.testing.assert_array_equal(model.context, tiny_actor.context)

    def test_v1_mmap_rejected_with_migration_hint(self, v1_bundle):
        with pytest.raises(BundleFormatError, match="re-export"):
            load_bundle(v1_bundle, mmap=True)

    def test_v1_missing_npz_named(self, v1_bundle):
        (v1_bundle / "embeddings.npz").unlink()
        with pytest.raises(BundleFormatError, match="embeddings.npz"):
            load_bundle(v1_bundle)


class TestMmapLoad:
    def test_mmap_serves_identical_ranks(self, bundle_dir, tiny_actor, dataset):
        eager = load_bundle(bundle_dir)
        mapped = load_bundle(bundle_dir, mmap=True)
        assert isinstance(mapped.store, MmapStore)
        record = dataset.test[0]
        candidates = [r.location for r in dataset.test.records[:6]]
        kwargs = dict(
            target="location",
            candidates=candidates,
            time=record.timestamp,
            words=record.words,
        )
        np.testing.assert_array_equal(
            eager.score_candidates(**kwargs), mapped.score_candidates(**kwargs)
        )

    def test_mmap_matrices_are_readonly_maps(self, bundle_dir):
        mapped = load_bundle(bundle_dir, mmap=True)
        assert isinstance(mapped.center, np.memmap)
        with pytest.raises((ValueError, OSError)):
            mapped.center[0, 0] = 1.0

    def test_mmap_neighbors_match(self, bundle_dir, tiny_actor):
        mapped = load_bundle(bundle_dir, mmap=True)
        word = tiny_actor.built.vocab.words[0]
        original = tiny_actor.neighbors(
            tiny_actor.unit_vector("word", word), "word", k=5
        )
        served = mapped.neighbors(
            mapped.unit_vector("word", word), "word", k=5
        )
        assert [w for w, _s in original] == [w for w, _s in served]
