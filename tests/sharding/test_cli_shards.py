"""CLI surface of the sharding layer: the export --shards flag."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import Actor, QueryEngine, load_bundle
from repro.sharding import ShardedStore


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-shards") / "corpus.jsonl"
    code = main(
        [
            "generate",
            "--preset", "utgeo2011",
            "--n-records", "600",
            "--seed", "9",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, corpus_path):
    path = tmp_path_factory.mktemp("cli-shards-model") / "actor.pkl"
    code = main(
        [
            "train",
            "--corpus", str(corpus_path),
            "--out", str(path),
            "--dim", "8",
            "--epochs", "1",
        ]
    )
    assert code == 0
    return path


class TestExport:
    def test_exports_sharded_bundle(self, model_path, tmp_path):
        out = tmp_path / "bundle"
        code = main(
            [
                "export",
                "--model", str(model_path),
                "--out", str(out),
                "--shards", "4",
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sharding"]["n_shards"] == 4
        # The sidecars hold the trained rows: the bundle loads read-only
        # as the pickled model's matrices.
        model = load_bundle(out, mmap=True)
        assert isinstance(model.store, ShardedStore)
        np.testing.assert_array_equal(
            model.center, Actor.load(model_path).center
        )

    def test_nonpositive_shards_exits_2(
        self, model_path, tmp_path, capsys
    ):
        code = main(
            [
                "export",
                "--model", str(model_path),
                "--out", str(tmp_path / "bundle"),
                "--shards", "0",
            ]
        )
        assert code == 2
        assert "shards" in capsys.readouterr().err


class TestServe:
    def test_serves_sharded_bundle_with_shard_varz(
        self, model_path, tmp_path
    ):
        import urllib.request

        out = tmp_path / "bundle"
        assert main(
            [
                "export",
                "--model", str(model_path),
                "--out", str(out),
                "--shards", "2",
            ]
        ) == 0

        from repro.serving import QueryServer

        model = load_bundle(out, mmap=True)
        server = QueryServer(model, port=0)
        assert server.shards_for(model) == 2
        # A sharded bundle is served by the standard engine; /varz reports
        # the store's layout, with no fan-out of its own to describe.
        assert type(server.engine) is QueryEngine
        with server:
            with urllib.request.urlopen(
                server.url + "/varz", timeout=10
            ) as resp:
                varz = json.loads(resp.read())
        assert varz["sharding"] == {"n_shards": 2, "partitioner": "splitmix64"}
