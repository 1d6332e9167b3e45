"""CLI surface of the sharding layer: --shards flags and the fleet guard."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import Actor, QueryEngine
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
def sharded_model_path(tmp_path_factory, corpus_path):
    path = tmp_path_factory.mktemp("cli-shards-model") / "actor.pkl"
    code = main(
        [
            "train",
            "--corpus", str(corpus_path),
            "--out", str(path),
            "--dim", "8",
            "--epochs", "1",
            "--shards", "2",
        ]
    )
    assert code == 0
    return path


class TestTrain:
    def test_trains_onto_a_sharded_store(self, sharded_model_path):
        model = Actor.load(sharded_model_path)
        assert isinstance(model.store, ShardedStore)
        assert model.store.n_shards == 2


class TestExport:
    def test_exports_sharded_bundle(self, sharded_model_path, tmp_path):
        out = tmp_path / "bundle"
        code = main(
            [
                "export",
                "--model", str(sharded_model_path),
                "--out", str(out),
                "--shards", "4",
                "--fleet-size", "2",
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sharding"]["n_shards"] == 4

    def test_indivisible_fleet_exits_2_with_guidance(
        self, sharded_model_path, tmp_path, capsys
    ):
        code = main(
            [
                "export",
                "--model", str(sharded_model_path),
                "--out", str(tmp_path / "bundle"),
                "--shards", "6",
                "--fleet-size", "4",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "does not divide evenly" in captured.err
        assert "multiple of 4" in captured.err
        assert not (tmp_path / "bundle").exists()

    def test_nonpositive_shards_exits_2(
        self, sharded_model_path, tmp_path, capsys
    ):
        code = main(
            [
                "export",
                "--model", str(sharded_model_path),
                "--out", str(tmp_path / "bundle"),
                "--shards", "0",
            ]
        )
        assert code == 2
        assert "shards" in capsys.readouterr().err


class TestServe:
    def test_serves_sharded_bundle_with_shard_varz(
        self, sharded_model_path, tmp_path
    ):
        import urllib.request

        out = tmp_path / "bundle"
        assert main(
            [
                "export",
                "--model", str(sharded_model_path),
                "--out", str(out),
                "--shards", "2",
            ]
        ) == 0

        from repro.core import load_bundle
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
