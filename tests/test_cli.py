"""Tests for the command-line interface (generate/stats/train/evaluate/query)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    code = main(
        [
            "generate",
            "--preset", "utgeo2011",
            "--n-records", "800",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def stream_corpus(tmp_path_factory):
    """A stationary 1600-record stream, big enough for drift windows."""
    path = tmp_path_factory.mktemp("cli-stream") / "stream.jsonl"
    code = main(
        [
            "generate",
            "--preset", "utgeo2011",
            "--n-records", "1600",
            "--seed", "78",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, corpus_path):
    path = tmp_path_factory.mktemp("cli-model") / "actor.pkl"
    code = main(
        [
            "train",
            "--corpus", str(corpus_path),
            "--out", str(path),
            "--dim", "16",
            "--epochs", "3",
            "--seed", "0",
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--preset", "nope", "--out", "x"]
            )

    def test_query_modalities_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--model", "m", "--word", "w", "--time", "5"]
            )


class TestGenerate:
    def test_writes_jsonl(self, corpus_path):
        assert corpus_path.exists()
        lines = corpus_path.read_text().strip().split("\n")
        assert len(lines) == 800

    def test_split_selection(self, tmp_path):
        out = tmp_path / "test.jsonl"
        code = main(
            [
                "generate",
                "--preset", "4sq",
                "--n-records", "300",
                "--out", str(out),
                "--split", "test",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert 0 < len(lines) < 300


class TestStats:
    def test_prints_statistics(self, corpus_path, capsys):
        assert main(["stats", "--corpus", str(corpus_path)]) == 0
        out = capsys.readouterr().out
        assert "records" in out
        assert "800" in out
        assert "mention rate" in out


class TestTrainEvaluateQuery:
    def test_train_saves_model(self, model_path):
        assert model_path.exists()

    def test_evaluate_prints_mrr(self, model_path, corpus_path, capsys):
        code = main(
            [
                "evaluate",
                "--model", str(model_path),
                "--corpus", str(corpus_path),
                "--max-queries", "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MRR" in out
        for task in ("text", "location", "time"):
            assert task in out

    def test_query_time(self, model_path, capsys):
        code = main(
            ["query", "--model", str(model_path), "--time", "21.5", "--k", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nearest words" in out
        assert "nearest locations" in out

    def test_query_location(self, model_path, capsys):
        code = main(
            [
                "query",
                "--model", str(model_path),
                "--location", "10.0,10.0",
                "--k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nearest words" in out
        assert "nearest times" in out

    def test_query_bad_location_format(self, model_path, capsys):
        code = main(
            ["query", "--model", str(model_path), "--location", "oops"]
        )
        assert code == 2

    def test_query_word(self, model_path, capsys):
        from repro.core import Actor

        model = Actor.load(model_path)
        word = model.built.vocab.words[0]
        code = main(
            ["query", "--model", str(model_path), "--word", word, "--k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nearest words" in out

    def test_train_ablation_flags(self, corpus_path, tmp_path):
        out = tmp_path / "ablated.pkl"
        code = main(
            [
                "train",
                "--corpus", str(corpus_path),
                "--out", str(out),
                "--dim", "8",
                "--epochs", "1",
                "--no-inter",
                "--no-intra-bow",
            ]
        )
        assert code == 0
        from repro.core import Actor

        model = Actor.load(out)
        assert not model.config.use_inter
        assert not model.config.use_intra_bow


class TestStream:
    @pytest.fixture(scope="class")
    def stream_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-stream") / "stream.jsonl"
        code = main(
            [
                "generate",
                "--preset", "utgeo2011",
                "--n-records", "120",
                "--seed", "77",
                "--out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_stream_rejects_nonpositive_batch_size(self, capsys):
        # validated before the model is touched, so fake paths suffice
        code = main(
            ["stream", "--model", "m", "--corpus", "c", "--batch-size", "0"]
        )
        assert code == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_stream_prints_summary_and_metrics(
        self, model_path, stream_path, capsys
    ):
        code = main(
            [
                "stream",
                "--model", str(model_path),
                "--corpus", str(stream_path),
                "--batch-size", "60",
                "--steps-per-batch", "10",
                "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streamed 120 records" in out
        assert "streaming metrics" in out
        assert "stream.records" in out
        assert "buffer.occupancy" in out

    def test_stream_checkpoint_and_resume(
        self, model_path, stream_path, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        code = main(
            [
                "stream",
                "--model", str(model_path),
                "--corpus", str(stream_path),
                "--batch-size", "60",
                "--steps-per-batch", "10",
                "--checkpoint", str(ckpt),
            ]
        )
        assert code == 0
        assert (ckpt / "online_manifest.json").exists()
        assert (ckpt / "online_state.npz").exists()
        capsys.readouterr()
        code = main(
            [
                "stream",
                "--model", str(model_path),
                "--corpus", str(stream_path),
                "--batch-size", "60",
                "--steps-per-batch", "10",
                "--resume", str(ckpt),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # resumed deployment carries the earlier ingestion total forward
        assert "240 ingested total" in out


class TestTelemetry:
    @pytest.fixture(scope="class")
    def stream_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-telemetry") / "stream.jsonl"
        code = main(
            [
                "generate",
                "--preset", "utgeo2011",
                "--n-records", "120",
                "--seed", "78",
                "--out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_train_writes_metrics_and_trace(
        self, corpus_path, tmp_path, capsys
    ):
        tel = tmp_path / "tel"
        code = main(
            [
                "train",
                "--corpus", str(corpus_path),
                "--out", str(tmp_path / "m.pkl"),
                "--dim", "8",
                "--epochs", "1",
                "--telemetry-dir", str(tel),
            ]
        )
        assert code == 0
        assert "wrote telemetry" in capsys.readouterr().out
        text = (tel / "metrics.prom").read_text()
        assert "# TYPE repro_fit_train_seconds histogram" in text
        assert "repro_graph_activity_nodes" in text
        from repro.utils.tracing import load_trace

        (root,) = load_trace(tel / "trace.jsonl")
        assert root.name == "actor.fit"
        names = {c.name for c in root.children}
        assert {"fit.build_graphs", "fit.initialize", "fit.train"} <= names

    def test_stream_trace_consistent_with_timer(
        self, model_path, stream_path, tmp_path
    ):
        """Root span durations must agree with the partial_fit timer."""
        tel = tmp_path / "tel"
        code = main(
            [
                "stream",
                "--model", str(model_path),
                "--corpus", str(stream_path),
                "--batch-size", "40",
                "--steps-per-batch", "10",
                "--telemetry-dir", str(tel),
            ]
        )
        assert code == 0
        from repro.utils.tracing import load_trace

        spans = load_trace(tel / "trace.jsonl")
        assert len(spans) == 3  # 120 records / 40 per batch
        assert all(s.name == "stream.partial_fit" for s in spans)
        span_total = sum(s.duration for s in spans)
        # Children never exceed their parent.
        for span in spans:
            assert span.child_seconds() <= span.duration

        timer_sum = None
        for line in (tel / "metrics.prom").read_text().splitlines():
            if line.startswith("repro_stream_partial_fit_seconds_sum "):
                timer_sum = float(line.split()[1])
        assert timer_sum is not None
        # One clock reading per batch feeds both the span and the
        # histogram, summed in the same order.
        assert timer_sum == span_total

    def test_telemetry_prints_slowest_query_batch_trees(
        self, model_path, corpus_path, tmp_path, capsys
    ):
        """`repro telemetry` outlines an evaluate run's slowest
        ``query.batch`` span trees, each with its ``query.score`` child."""
        import re

        tel = tmp_path / "tel"
        code = main(
            [
                "evaluate",
                "--model", str(model_path),
                "--corpus", str(corpus_path),
                "--max-queries", "20",
                "--telemetry-dir", str(tel),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert sorted(p.name for p in tel.iterdir()) == [
            "metrics.prom", "trace.jsonl"
        ]
        assert "repro_query_batch_seconds_bucket" in (
            tel / "metrics.prom"
        ).read_text()

        code = main(["telemetry", "--dir", str(tel)])
        assert code == 0
        out = capsys.readouterr().out
        # One rank_batch per task: text, location, time.
        title = "slowest query.batch spans (3 of 3)"
        assert title in out
        lines = out.split(title, 1)[1].splitlines()[2:]
        roots = [
            float(m.group(1))
            for m in map(re.compile(r"query\.batch  (\d+\.\d\d)ms ").match,
                         lines)
            if m
        ]
        assert len(roots) == 3
        assert roots == sorted(roots, reverse=True)
        scores = [
            line for line in lines
            if re.match(r"  query\.score  \d+\.\d\dms \{\"target\"", line)
        ]
        assert len(scores) == 3
        assert any(line.startswith("    query.snap  ") for line in lines)

    def test_telemetry_raw_dump(self, corpus_path, tmp_path, capsys):
        tel = tmp_path / "tel"
        main(
            [
                "train",
                "--corpus", str(corpus_path),
                "--out", str(tmp_path / "m.pkl"),
                "--dim", "8",
                "--epochs", "1",
                "--telemetry-dir", str(tel),
            ]
        )
        capsys.readouterr()
        assert main(["telemetry", "--dir", str(tel), "--raw"]) == 0
        assert "# TYPE" in capsys.readouterr().out

    def test_telemetry_missing_directory(self, tmp_path, capsys):
        code = main(["telemetry", "--dir", str(tmp_path / "nope")])
        assert code == 2
        assert "no telemetry" in capsys.readouterr().err


class TestLiveObservability:
    def test_stream_serve_metrics_live_scrape(
        self, model_path, stream_corpus, capsys
    ):
        """/metrics and /healthz answer while `repro stream` is running."""
        import json
        import socket
        import threading
        import time
        import urllib.request

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]

        scrapes = []

        def run():
            main(
                [
                    "stream",
                    "--model", str(model_path),
                    "--corpus", str(stream_corpus),
                    "--batch-size", "40",
                    "--steps-per-batch", "300",
                    "--serve-metrics", str(port),
                    "--drift",
                ]
            )

        worker = threading.Thread(target=run)
        worker.start()
        url = f"http://127.0.0.1:{port}"
        deadline = time.monotonic() + 30
        while worker.is_alive() and time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    url + "/metrics", timeout=1
                ) as response:
                    body = response.read().decode("utf-8")
                with urllib.request.urlopen(
                    url + "/healthz", timeout=1
                ) as response:
                    health = json.loads(response.read())
                scrapes.append((body, health))
            except OSError:
                time.sleep(0.01)
        worker.join(timeout=60)
        assert not worker.is_alive()
        capsys.readouterr()
        assert scrapes, "server never answered while streaming"
        body, health = scrapes[-1]
        assert "# TYPE repro_stream_records_total counter" in body
        assert health["status"] in {"ok", "stale", "alerting"}
        assert "uptime_seconds" in health
        assert "buffer" in health

    def test_stream_drift_alerts_written_and_displayed(
        self, model_path, tmp_path, capsys
    ):
        """An injected spatial shift lands in alerts.jsonl and the CLI."""
        import json

        from repro.data import load_corpus, save_corpus

        main(
            [
                "generate",
                "--preset", "utgeo2011",
                "--n-records", "1600",
                "--seed", "91",
                "--out", str(tmp_path / "base.jsonl"),
            ]
        )
        records = list(load_corpus(tmp_path / "base.jsonl"))
        import dataclasses

        shifted = records[:800] + [
            dataclasses.replace(r, location=(0.25, 0.25))
            for r in records[800:]
        ]
        save_corpus(shifted, tmp_path / "shifted.jsonl")
        tel = tmp_path / "tel"
        capsys.readouterr()
        code = main(
            [
                "stream",
                "--model", str(model_path),
                "--corpus", str(tmp_path / "shifted.jsonl"),
                "--batch-size", "100",
                "--steps-per-batch", "10",
                "--drift",
                "--telemetry-dir", str(tel),
                "--telemetry-flush-every", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "drift watchdog raised" in out
        alerts = [
            json.loads(line)
            for line in (tel / "alerts.jsonl").read_text().splitlines()
        ]
        assert any(a["kind"] == "spatial_psi" for a in alerts)
        assert (tel / "events.jsonl").exists()

        code = main(["telemetry", "--dir", str(tel)])
        assert code == 0
        out = capsys.readouterr().out
        assert "drift alerts" in out
        assert "spatial_psi" in out

    def test_stationary_stream_writes_no_alerts(
        self, model_path, stream_corpus, tmp_path, capsys
    ):
        tel = tmp_path / "tel"
        code = main(
            [
                "stream",
                "--model", str(model_path),
                "--corpus", str(stream_corpus),
                "--batch-size", "100",
                "--steps-per-batch", "10",
                "--drift",
                "--telemetry-dir", str(tel),
            ]
        )
        assert code == 0
        assert "drift watchdog raised" not in capsys.readouterr().out
        assert not (tel / "alerts.jsonl").exists()

    def test_evaluate_serve_metrics_round_trip(
        self, model_path, corpus_path, capsys
    ):
        code = main(
            [
                "evaluate",
                "--model", str(model_path),
                "--corpus", str(corpus_path),
                "--max-queries", "20",
                "--serve-metrics", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving live telemetry" in out
        assert "MRR" in out


class TestExportBundle:
    def test_export_and_query_bundle(self, model_path, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle"
        assert main(
            ["export", "--model", str(model_path), "--out", str(bundle_dir)]
        ) == 0
        assert (bundle_dir / "manifest.json").exists()
        capsys.readouterr()
        code = main(
            ["query", "--model", str(bundle_dir), "--time", "21.0", "--k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nearest words" in out

    def test_evaluate_with_bundle(self, model_path, corpus_path, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle2"
        main(["export", "--model", str(model_path), "--out", str(bundle_dir)])
        capsys.readouterr()
        code = main(
            [
                "evaluate",
                "--model", str(bundle_dir),
                "--corpus", str(corpus_path),
                "--max-queries", "20",
            ]
        )
        assert code == 0
        assert "MRR" in capsys.readouterr().out


class TestStoreFlags:
    def test_evaluate_mmap_bundle(self, model_path, corpus_path, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle-mmap"
        main(["export", "--model", str(model_path), "--out", str(bundle_dir)])
        capsys.readouterr()
        code = main(
            [
                "evaluate",
                "--model", str(bundle_dir),
                "--corpus", str(corpus_path),
                "--max-queries", "20",
                "--mmap",
            ]
        )
        assert code == 0
        assert "MRR" in capsys.readouterr().out

    def test_evaluate_mmap_matches_eager(
        self, model_path, corpus_path, tmp_path, capsys
    ):
        """--mmap is a loading strategy, not a model change: same MRR table."""
        bundle_dir = tmp_path / "bundle-parity"
        main(["export", "--model", str(model_path), "--out", str(bundle_dir)])
        capsys.readouterr()
        common = [
            "evaluate",
            "--model", str(bundle_dir),
            "--corpus", str(corpus_path),
            "--max-queries", "15",
        ]
        assert main(common) == 0
        eager_out = capsys.readouterr().out
        assert main(common + ["--mmap"]) == 0
        mmap_out = capsys.readouterr().out
        assert mmap_out == eager_out

    def test_evaluate_mmap_rejects_pickled_model(
        self, model_path, corpus_path, capsys
    ):
        code = main(
            [
                "evaluate",
                "--model", str(model_path),
                "--corpus", str(corpus_path),
                "--mmap",
            ]
        )
        assert code == 2
        assert "bundle directory" in capsys.readouterr().err

    def test_export_migrates_bundle_for_mmap(
        self, model_path, corpus_path, tmp_path, capsys
    ):
        """An existing bundle re-exports in place of a pickle (v1 -> v2 path)."""
        first = tmp_path / "first"
        second = tmp_path / "second"
        main(["export", "--model", str(model_path), "--out", str(first)])
        assert main(
            ["export", "--model", str(first), "--out", str(second)]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "evaluate",
                "--model", str(second),
                "--corpus", str(corpus_path),
                "--max-queries", "10",
                "--mmap",
            ]
        )
        assert code == 0
        assert "MRR" in capsys.readouterr().out


class TestServeLoadgen:
    @pytest.fixture(scope="class")
    def bundle_path(self, model_path, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-serve") / "bundle"
        assert main(["export", "--model", str(model_path), "--out", str(path)]) == 0
        return path

    def test_serve_then_loadgen_round_trip(
        self, bundle_path, tmp_path, capsys
    ):
        """serve --mmap, loadgen burst against it, clean deadline drain."""
        import json
        import socket
        import threading
        import urllib.request

        tel_dir = tmp_path / "tel"
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        outcome = {}

        def run_server():
            outcome["code"] = main(
                [
                    "serve",
                    "--model", str(bundle_path),
                    "--mmap",
                    "--port", str(port),
                    "--max-seconds", "8",
                    "--telemetry-dir", str(tel_dir),
                ]
            )

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{port}"
        deadline = threading.Event()
        for _ in range(100):
            try:
                with urllib.request.urlopen(f"{url}/healthz", timeout=5) as r:
                    assert json.loads(r.read())["status"] == "ok"
                break
            except OSError:
                deadline.wait(0.05)
        else:
            pytest.fail("server never came up")
        capsys.readouterr()
        code = main(
            [
                "loadgen",
                "--url", url,
                "--n-queries", "40",
                "--duration", "0.5",
                "--concurrency", "4",
                "--fail-on-server-error",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "qps" in out
        assert "server errors (5xx)  0" in out
        # Live tail attribution against the still-running server.
        assert main(["tail", "--url", url]) == 0
        tail_out = capsys.readouterr().out
        assert "stages by tail contribution" in tail_out
        assert "slowest requests" in tail_out
        # The embedded server exits on its --max-seconds deadline.
        thread.join(timeout=30)
        assert outcome["code"] == 0
        assert (tel_dir / "metrics.prom").exists()
        assert (tel_dir / "events.jsonl").exists()
        # The trace ring exported at shutdown replays through tail.  Drain
        # the server thread's shutdown banner first so the captured stream
        # holds nothing but the JSON summary.
        assert (tel_dir / "requests.jsonl").exists()
        capsys.readouterr()
        assert main(
            ["tail", "--trace", str(tel_dir / "requests.jsonl"), "--json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n"] > 0
        assert summary["stages"]

    def test_tail_reports_missing_trace(self, capsys):
        code = main(["tail", "--trace", "/nonexistent/requests.jsonl"])
        assert code == 2
        assert "could not read" in capsys.readouterr().err

    def test_serve_mmap_requires_bundle(self, model_path, capsys):
        code = main(
            ["serve", "--model", str(model_path), "--mmap", "--max-seconds", "1"]
        )
        assert code == 2
        assert "--mmap requires a bundle directory" in capsys.readouterr().err

    def test_serve_names_damaged_bundle_file(
        self, bundle_path, tmp_path, capsys
    ):
        import shutil

        bad = tmp_path / "bad-bundle"
        shutil.copytree(bundle_path, bad)
        text = (bad / "vocab.json").read_text()
        (bad / "vocab.json").write_text(text[: len(text) // 2])
        code = main(
            ["serve", "--model", str(bad), "--mmap", "--max-seconds", "1"]
        )
        assert code == 2
        assert "vocab.json" in capsys.readouterr().err

    def test_loadgen_reports_transport_failure(self, capsys):
        code = main(
            [
                "loadgen",
                "--url", "http://127.0.0.1:9",
                "--n-queries", "3",
                "--duration", "0.1",
                "--concurrency", "2",
                "--timeout", "2",
                "--fail-on-server-error",
                "--json",
            ]
        )
        assert code == 1
        assert '"transport_errors": 3' in capsys.readouterr().out
