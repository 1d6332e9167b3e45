"""Command-line interface: generate / train / evaluate / query / stats.

Usage (also available as ``python -m repro``)::

    repro generate --preset utgeo2011 --n-records 5000 --out corpus.jsonl
    repro stats    --corpus corpus.jsonl
    repro train    --corpus corpus.jsonl --out model.pkl --dim 64 --epochs 20
    repro train    --corpus corpus.jsonl --out model.pkl --threads 2  # Hogwild
    repro evaluate --model model.pkl --corpus test.jsonl
    repro evaluate --model bundle/ --corpus test.jsonl --mmap  # zero-copy load
    repro query    --model model.pkl --word harbor_00
    repro query    --model model.pkl --time 22.0
    repro query    --model model.pkl --location 3.5,7.2
    repro export   --model model.pkl --out bundle/   # pickle-free bundle
    repro export   --model model.pkl --out bundle/ --shards 4  # v3 bundle
    repro serve    --model bundle/ --mmap            # any format, any K
    repro stream   --model model.pkl --corpus new.jsonl --metrics \
                   --checkpoint ckpt/               # online adaptation
    repro stream   --model model.pkl --corpus more.jsonl --resume ckpt/
    repro train    --corpus corpus.jsonl --out model.pkl --telemetry-dir tel/
    repro stream   --model model.pkl --corpus live.jsonl --drift \
                   --serve-metrics 9100 --telemetry-dir tel/ \
                   --telemetry-flush-every 20   # live ops: scrape + alerts
    repro telemetry --dir tel/                       # inspect a telemetry dump
    repro serve    --model bundle/ --mmap --port 8099  # HTTP query serving
    repro loadgen  --url http://127.0.0.1:8099 --concurrency 8
    repro tail     --url http://127.0.0.1:8099       # live tail attribution
    repro tail     --trace tel/requests.jsonl        # post-mortem from disk
    repro stream   --model model.pkl --corpus live.jsonl \
                   --publish-bundles bundles/ --publish-every 5
    repro serve    --watch-bundles bundles/ --probe-corpus probe.jsonl \
                   --port 8099                # zero-downtime lifecycle
    repro promote  --model model.pkl --bundles bundles/  # next epoch
    repro rollback --bundles bundles/        # revert to last-good

``--telemetry-dir DIR`` (on ``train``, ``evaluate`` and ``stream``) writes a
Prometheus text-format ``metrics.prom`` plus a ``trace.jsonl`` span dump
(and, for ``stream``, structured ``events.jsonl`` logs and drift
``alerts.jsonl``) to ``DIR`` (see ``docs/observability.md``);
``repro telemetry`` pretty-prints such a directory, down to the span
trees of the slowest ``query.batch`` calls.
``--serve-metrics PORT`` (on ``stream`` and ``evaluate``) additionally
serves the *live* registry over HTTP — ``/metrics`` for Prometheus
scrapes, ``/healthz`` for liveness probes, ``/varz`` for raw debug state —
for the duration of the run.  ``--drift`` (on ``stream``) arms the
model-quality drift watchdog (``repro.core.drift``).  Every command prints
plain text to stdout; exit code 0 on success, 2 on argument errors
(argparse convention).
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from collections.abc import Sequence

from pathlib import Path

from repro.core import (
    Actor,
    ActorConfig,
    OnlineActor,
    load_bundle,
    load_online_checkpoint,
    save_bundle,
    spatial_query,
    temporal_query,
    textual_query,
)
from repro.data import generate_dataset, load_corpus, save_corpus
from repro.eval import build_task_queries, evaluate_model, format_table
from repro.utils.logging import StructuredLogger
from repro.utils.metrics import MetricsRegistry
from repro.utils.telemetry import (
    read_telemetry,
    render_span_tree,
    render_trace_summary,
    write_telemetry,
)
from repro.utils.telemetry_server import TelemetryServer
from repro.utils.tracing import NULL_TRACER, Tracer, walk_spans

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ACTOR: spatiotemporal activity modeling "
        "(TKDE 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="generate a synthetic corpus and write it as JSONL"
    )
    gen.add_argument(
        "--preset",
        default="utgeo2011",
        choices=["utgeo2011", "tweet", "4sq"],
        help="dataset preset (see repro.data.datasets)",
    )
    gen.add_argument("--n-records", type=int, default=5000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output JSONL path")
    gen.add_argument(
        "--split",
        choices=["all", "train", "test"],
        default="all",
        help="which split to write (default: the full corpus)",
    )

    stats = sub.add_parser("stats", help="print Table-1-style corpus statistics")
    stats.add_argument("--corpus", required=True, help="JSONL corpus path")

    train = sub.add_parser("train", help="train ACTOR on a JSONL corpus")
    train.add_argument("--corpus", required=True)
    train.add_argument("--out", required=True, help="output model path (.pkl)")
    train.add_argument("--dim", type=int, default=64)
    train.add_argument("--epochs", type=int, default=30)
    train.add_argument("--lr", type=float, default=0.02)
    train.add_argument("--negatives", type=int, default=1)
    train.add_argument("--threads", type=int, default=1)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--no-inter", action="store_true",
        help="disable the inter-record structure (Table-4 ablation)",
    )
    train.add_argument(
        "--no-intra-bow", action="store_true",
        help="disable the bag-of-words structure (Table-4 ablation)",
    )
    train.add_argument(
        "--metrics", action="store_true",
        help="print the training metrics table (per-epoch loss/time)",
    )
    train.add_argument(
        "--telemetry-dir", metavar="DIR",
        help="write Prometheus metrics + a JSONL span trace to DIR",
    )

    ev = sub.add_parser(
        "evaluate", help="MRR over the three cross-modal prediction tasks"
    )
    ev.add_argument("--model", required=True, help="trained model path")
    ev.add_argument("--corpus", required=True, help="JSONL test corpus path")
    ev.add_argument("--n-noise", type=int, default=10)
    ev.add_argument("--max-queries", type=int, default=300)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument(
        "--telemetry-dir", metavar="DIR",
        help="write Prometheus metrics + a JSONL span trace to DIR "
        "('repro telemetry' lists its slowest query batches)",
    )
    ev.add_argument(
        "--serve-metrics", type=int, metavar="PORT",
        help="serve live /metrics, /healthz and /varz on 127.0.0.1:PORT "
        "for the duration of the evaluation (0 picks a free port)",
    )
    ev.add_argument(
        "--mmap", action="store_true",
        help="memory-map the model's embedding matrices instead of loading "
        "them into RAM (requires a format-v2 bundle directory from "
        "'repro export')",
    )

    export = sub.add_parser(
        "export",
        help="convert a pickled model into a portable (pickle-free) bundle",
    )
    export.add_argument(
        "--model", required=True,
        help="pickled model path, or an existing bundle directory to "
        "re-export in the current format",
    )
    export.add_argument("--out", required=True, help="bundle directory")
    export.add_argument(
        "--force", action="store_true",
        help="overwrite an existing bundle at --out; without it, export "
        "refuses to rewrite a directory that already holds a bundle "
        "(see docs/operations.md §7 for migration semantics)",
    )
    export.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="write a format-v3 sharded bundle: the embedding matrices "
        "are hash-partitioned into K per-shard sidecars; it serves the "
        "same rankings as a v2 bundle (default: 1 = plain v2 bundle)",
    )

    stream = sub.add_parser(
        "stream",
        help="adapt a trained model to a new JSONL stream (OnlineActor)",
    )
    stream.add_argument("--model", required=True, help="trained base model")
    stream.add_argument("--corpus", required=True, help="JSONL stream path")
    stream.add_argument("--batch-size", type=int, default=256)
    stream.add_argument("--half-life", type=float, default=10.0)
    stream.add_argument("--lr", type=float, default=0.01)
    stream.add_argument("--steps-per-batch", type=int, default=50)
    stream.add_argument("--negatives", type=int, default=2)
    stream.add_argument("--buffer-size", type=int, default=200_000)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--metrics", action="store_true",
        help="print the streaming metrics table after ingestion",
    )
    stream.add_argument(
        "--checkpoint", metavar="DIR",
        help="write a resumable checkpoint directory when done",
    )
    stream.add_argument(
        "--resume", metavar="DIR",
        help="resume from a checkpoint directory instead of starting fresh "
        "(checkpoint hyper-parameters override the flags above)",
    )
    stream.add_argument(
        "--telemetry-dir", metavar="DIR",
        help="write Prometheus metrics + a JSONL span trace to DIR",
    )
    stream.add_argument(
        "--telemetry-flush-every", type=int, metavar="N",
        help="rewrite the --telemetry-dir files every N batches instead "
        "of only at exit, so a crash keeps recent telemetry",
    )
    stream.add_argument(
        "--serve-metrics", type=int, metavar="PORT",
        help="serve live /metrics, /healthz and /varz on 127.0.0.1:PORT "
        "while streaming (0 picks a free port)",
    )
    stream.add_argument(
        "--drift", action="store_true",
        help="enable the model-quality drift watchdog (probe MRR, "
        "embedding-norm EWMA, hotspot PSI, eviction anomalies); alerts "
        "land in --telemetry-dir/alerts.jsonl and /healthz",
    )
    stream.add_argument(
        "--drift-probe-every", type=int, default=10, metavar="N",
        help="score the held-out probe query set every N batches "
        "(default: 10; effective only with --drift)",
    )
    stream.add_argument(
        "--stale-after", type=float, default=60.0, metavar="SECONDS",
        help="/healthz degrades to 'stale' when no batch completed for "
        "this long (default: 60; effective only with --serve-metrics)",
    )
    stream.add_argument(
        "--publish-bundles", metavar="DIR",
        help="publish versioned v2 bundles into the lifecycle bundle root "
        "DIR (atomic epoch directories a 'repro serve --watch-bundles' "
        "instance promotes from); one bundle is always published when "
        "the stream ends",
    )
    stream.add_argument(
        "--publish-every", type=int, metavar="N",
        help="additionally publish a bundle every N ingested batches "
        "(effective only with --publish-bundles)",
    )
    stream.add_argument(
        "--publish-retain", type=int, default=8, metavar="N",
        help="keep at most N published epochs in the bundle root; older "
        "ones are pruned, but the CURRENT/LATEST pointer targets never "
        "are (default: 8)",
    )

    tel = sub.add_parser(
        "telemetry",
        help="pretty-print a telemetry directory written by --telemetry-dir",
    )
    tel.add_argument("--dir", required=True, help="telemetry directory")
    tel.add_argument(
        "--raw", action="store_true",
        help="dump the raw Prometheus exposition text instead of summaries",
    )

    serve = sub.add_parser(
        "serve",
        help="serve cross-modal queries over HTTP (predict + neighbors)",
    )
    serve.add_argument(
        "--model",
        help="trained model path (use a bundle directory with --mmap for "
        "zero-copy read-only serving); optional with --watch-bundles, "
        "which then serves the root's CURRENT epoch",
    )
    serve.add_argument(
        "--mmap", action="store_true",
        help="memory-map the bundle's embedding matrices instead of "
        "loading them into RAM (requires a format-v2 bundle directory)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8099,
        help="TCP port (0 picks a free ephemeral port; default: 8099)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="largest coalesced batch dispatched to the engine at once",
    )
    serve.add_argument(
        "--ann", action="store_true",
        help="serve /v1/neighbors from IVF ANN indexes (built per "
        "modality at startup) instead of exact dense scans; /v1/predict "
        "keeps the exact path",
    )
    serve.add_argument(
        "--ann-nlist", type=int, default=256, metavar="N",
        help="inverted lists per modality index (default: 256; clamped "
        "to the modality's vocabulary size)",
    )
    serve.add_argument(
        "--ann-nprobe", type=int, default=8, metavar="N",
        help="lists probed per neighbor query (default: 8; nprobe == "
        "nlist is exact coverage — see docs/operations.md for tuning)",
    )
    serve.add_argument(
        "--stale-after", type=float, metavar="SECONDS",
        help="/healthz degrades to 'stale' when no query completed for "
        "this long (default: never)",
    )
    serve.add_argument(
        "--max-seconds", type=float, metavar="SECONDS",
        help="exit (gracefully) after this long instead of waiting for "
        "SIGINT/SIGTERM — for CI smoke tests",
    )
    serve.add_argument(
        "--telemetry-dir", metavar="DIR",
        help="write Prometheus metrics + structured events.jsonl logs to "
        "DIR at shutdown",
    )
    serve.add_argument(
        "--watch-bundles", metavar="DIR",
        help="enable the zero-downtime lifecycle: poll the bundle root "
        "DIR for new epochs, gate each candidate (probe MRR + drift "
        "checks) and hot-swap it under live traffic, rolling back to "
        "last-good on regression (see docs/operations.md §7)",
    )
    serve.add_argument(
        "--probe-corpus", metavar="PATH",
        help="JSONL corpus whose frozen probe sample powers the gate's "
        "MRR check and the post-promotion regression monitor (with "
        "--watch-bundles; without it only structural gate checks run)",
    )
    serve.add_argument(
        "--poll-interval", type=float, default=2.0, metavar="SECONDS",
        help="bundle-root poll period (default: 2.0; with --watch-bundles)",
    )
    serve.add_argument(
        "--gate-mrr-drop", type=float, default=0.2, metavar="FRACTION",
        help="relative probe-MRR regression that vetoes a candidate "
        "(default: 0.2 = veto below 80%% of baseline)",
    )
    serve.add_argument(
        "--monitor-mrr-drop", type=float, default=0.2, metavar="FRACTION",
        help="relative probe-MRR regression of the *active* model that "
        "triggers auto-rollback to last-good (default: 0.2)",
    )
    serve.add_argument(
        "--monitor-every", type=int, default=5, metavar="N",
        help="re-probe the active model every N idle polls (default: 5)",
    )
    serve.add_argument(
        "--no-request-trace", action="store_true",
        help="disable per-request tracing: the /debug/requests ring, "
        "stage attribution and the X-Request-Id / X-Queue-Wait-Ms "
        "response headers; SLO accounting stays on",
    )
    serve.add_argument(
        "--trace-ring-size", type=int, default=256, metavar="N",
        help="finished requests retained in the /debug/requests ring "
        "(default: 256)",
    )
    serve.add_argument(
        "--slo-availability-target", type=float, default=0.999,
        metavar="FRACTION",
        help="availability SLO: fraction of responses that must be "
        "non-5xx (default: 0.999)",
    )
    serve.add_argument(
        "--slo-latency-target", type=float, default=0.99, metavar="FRACTION",
        help="latency SLO: fraction of requests that must finish under "
        "the latency threshold (default: 0.99)",
    )
    serve.add_argument(
        "--slo-latency-threshold-ms", type=float, default=250.0,
        metavar="MS",
        help="latency SLO threshold in milliseconds (default: 250)",
    )

    promote = sub.add_parser(
        "promote",
        help="publish a model as the next lifecycle epoch (atomic; a "
        "watching server gates and hot-swaps it)",
    )
    promote.add_argument(
        "--model", required=True,
        help="pickled model path or bundle directory to publish",
    )
    promote.add_argument(
        "--bundles", required=True, metavar="DIR",
        help="lifecycle bundle root to publish into",
    )
    promote.add_argument(
        "--force", action="store_true",
        help="record a force flag in the epoch's promote.json: the "
        "serving gate logs failing checks but promotes anyway "
        "(operator override)",
    )
    promote.add_argument(
        "--retain", type=int, default=8, metavar="N",
        help="keep at most N published epochs (pointer targets are never "
        "pruned; default: 8)",
    )
    promote.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="publish the epoch as a K-shard format-v3 bundle "
        "(default: 1, plain format v2)",
    )

    rollback = sub.add_parser(
        "rollback",
        help="ask the watching server to revert to its last-good model",
    )
    rollback.add_argument(
        "--bundles", required=True, metavar="DIR",
        help="lifecycle bundle root the server watches",
    )
    rollback.add_argument(
        "--reason", default="operator",
        help="free-text reason recorded in decisions.jsonl",
    )

    lg = sub.add_parser(
        "loadgen",
        help="replay a synthetic per-user query stream against a server",
    )
    lg.add_argument(
        "--url", required=True,
        help="base URL of a running 'repro serve' (e.g. "
        "http://127.0.0.1:8099)",
    )
    lg.add_argument(
        "--preset",
        default="utgeo2011",
        choices=["utgeo2011", "tweet", "4sq"],
        help="city preset the traffic is drawn from (match the corpus the "
        "served model was trained on for in-vocabulary queries)",
    )
    lg.add_argument("--n-queries", type=int, default=200)
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument(
        "--duration", type=float, default=5.0, metavar="SECONDS",
        help="replay-time length the diurnal day is compressed into",
    )
    lg.add_argument(
        "--speedup", type=float, default=1.0,
        help="time-compression factor applied to event offsets",
    )
    lg.add_argument(
        "--concurrency", type=int, default=8,
        help="number of concurrent client worker threads",
    )
    lg.add_argument("--n-noise", type=int, default=10)
    lg.add_argument(
        "--neighbor-fraction", type=float, default=0.25,
        help="fraction of queries hitting /v1/neighbors instead of "
        "/v1/predict",
    )
    lg.add_argument("--k", type=int, default=10)
    lg.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request HTTP timeout in seconds",
    )
    lg.add_argument(
        "--json", action="store_true",
        help="print the raw report as JSON instead of a table",
    )
    lg.add_argument(
        "--fail-on-server-error", action="store_true",
        help="exit 1 if any request drew a 5xx or a transport error",
    )

    tail = sub.add_parser(
        "tail",
        help="tail-latency attribution: which stages the slow requests "
        "spent their time in, from a live server or a trace export",
    )
    tail_source = tail.add_mutually_exclusive_group(required=True)
    tail_source.add_argument(
        "--url", metavar="BASE",
        help="base URL of a running 'repro serve'; reads its live "
        "/debug/requests ring",
    )
    tail_source.add_argument(
        "--trace", metavar="PATH",
        help="requests.jsonl file exported by 'repro serve "
        "--telemetry-dir' (or TraceRing.export_jsonl)",
    )
    tail.add_argument(
        "--q", type=float, default=99.0, metavar="PCT",
        help="percentile defining the tail set (default: 99)",
    )
    tail.add_argument(
        "--slowest", type=int, default=8, metavar="N",
        help="slowest exemplar requests to print (default: 8)",
    )
    tail.add_argument(
        "--json", action="store_true",
        help="print the raw attribution summary as JSON",
    )

    q = sub.add_parser("query", help="neighbor search around one unit")
    q.add_argument("--model", required=True)
    q.add_argument("--k", type=int, default=10)
    modality = q.add_mutually_exclusive_group(required=True)
    modality.add_argument("--word", help="textual query keyword")
    modality.add_argument("--time", type=float, help="temporal query (hours)")
    modality.add_argument(
        "--location", help="spatial query as 'x,y' in km"
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    bundle = generate_dataset(
        args.preset, n_records=args.n_records, seed=args.seed
    )
    corpus = {
        "all": bundle.corpus,
        "train": bundle.train,
        "test": bundle.test,
    }[args.split]
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} records ({args.split} split) to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    counts = corpus.word_counts()
    rows = [
        ["records", len(corpus)],
        ["users", len(corpus.users())],
        ["distinct keywords", len(counts)],
        ["keyword occurrences", sum(counts.values())],
        ["mention rate", round(corpus.mention_rate(), 4)],
    ]
    print(format_table(["statistic", "value"], rows, title=args.corpus))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    config = ActorConfig(
        dim=args.dim,
        epochs=args.epochs,
        lr=args.lr,
        negatives=args.negatives,
        n_threads=args.threads,
        use_inter=not args.no_inter,
        use_intra_bow=not args.no_intra_bow,
        seed=args.seed,
    )
    telemetry_dir = getattr(args, "telemetry_dir", None)
    registry = (
        MetricsRegistry() if (args.metrics or telemetry_dir) else None
    )
    tracer = Tracer() if telemetry_dir else None
    model = Actor(config).fit(corpus, metrics=registry, tracer=tracer)
    model.save(args.out)
    summary = model.built.activity.summary()
    print(
        f"trained ACTOR (d={args.dim}, epochs={args.epochs}) on "
        f"{len(corpus)} records: {summary['n_nodes']} nodes, "
        f"{summary['n_edges']} edges; saved to {args.out}"
    )
    if args.metrics and registry is not None:
        print(registry.render(title="training metrics"))
    if telemetry_dir:
        written = write_telemetry(telemetry_dir, registry, tracer)
        print(f"wrote telemetry to {', '.join(sorted(written))}")
    return 0


def _load_model(path: str, *, mmap: bool = False):
    """Load either a pickled Actor or a portable bundle directory."""
    if Path(path).is_dir():
        return load_bundle(path, mmap=mmap)
    if mmap:
        raise ValueError(
            f"--mmap requires a bundle directory (got file {path}); "
            "create one with 'repro export'"
        )
    return Actor.load(path)


def _cmd_export(args: argparse.Namespace) -> int:
    # Accepts a bundle directory too, so v1 bundles migrate to the current
    # format with one `repro export --model old/ --out new/` round trip.
    out = Path(args.out)
    if (out / "manifest.json").exists() and not args.force:
        print(
            f"{args.out} already holds a bundle; re-exporting in place "
            "would silently replace it (and yank mmap pages out from "
            "under any server mapping it). Pass --force to overwrite, "
            "or export to a fresh directory — lifecycle deployments "
            "should publish new epochs with 'repro promote' instead "
            "(docs/operations.md §7).",
            file=sys.stderr,
        )
        return 2
    model = _load_model(args.model)
    try:
        save_bundle(model, out, shards=args.shards)
    except ValueError as exc:
        # e.g. a non-positive --shards value — an argument problem, so
        # argparse's exit code, not a traceback.
        print(str(exc), file=sys.stderr)
        return 2
    shard_note = f" ({args.shards} shards)" if args.shards > 1 else ""
    print(f"exported portable bundle to {args.out}{shard_note}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        model = _load_model(args.model, mmap=args.mmap)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    corpus = load_corpus(args.corpus)
    queries = build_task_queries(
        corpus,
        n_noise=args.n_noise,
        max_queries=args.max_queries,
        seed=args.seed,
    )
    engine = None
    if args.telemetry_dir or args.serve_metrics is not None:
        from repro.core import QueryEngine

        engine = QueryEngine(model, metrics=MetricsRegistry(), tracer=Tracer())
        # The eval path resolves model.query_engine(); pre-seed its cache
        # so every batch flows through the instrumented engine.
        model._query_engine = engine
    server = None
    if args.serve_metrics is not None:
        server = TelemetryServer(engine.metrics, port=args.serve_metrics)
        server.start()
        print(
            f"serving live telemetry on {server.url} "
            "(/metrics /healthz /varz)"
        )
    try:
        result = evaluate_model(model, queries)
    finally:
        if server is not None:
            server.stop()
    rows = [[task, mrr] for task, mrr in result.items()]
    print(format_table(["task", "MRR"], rows, title=f"MRR ({args.corpus})"))
    if engine is not None and args.telemetry_dir:
        written = write_telemetry(
            args.telemetry_dir, engine.metrics, engine.tracer
        )
        print(f"wrote telemetry to {', '.join(sorted(written))}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    if args.word is not None:
        result = textual_query(model, args.word, k=args.k)
    elif args.time is not None:
        result = temporal_query(model, args.time, k=args.k)
    else:
        try:
            x, y = (float(v) for v in args.location.split(","))
        except ValueError:
            print("--location must be 'x,y' (two floats)", file=sys.stderr)
            return 2
        result = spatial_query(model, (x, y), k=args.k)

    print(f"query: {result.query_description}")
    if result.words:
        rows = [[w, s] for w, s in result.words]
        print(format_table(["word", "cosine"], rows, title="nearest words"))
    if result.times:
        rows = [[f"{h:.2f}", s] for h, s in result.times]
        print(format_table(["hour", "cosine"], rows, title="nearest times"))
    if result.locations:
        hotspots = model.built.detector.spatial_hotspots
        rows = [
            [idx, f"({hotspots[idx][0]:.2f}, {hotspots[idx][1]:.2f})", s]
            for idx, s in result.locations
        ]
        print(
            format_table(
                ["hotspot", "centre (km)", "cosine"],
                rows,
                title="nearest locations",
            )
        )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    if args.batch_size <= 0:
        print("--batch-size must be a positive integer", file=sys.stderr)
        return 2
    base = Actor.load(args.model)
    corpus = load_corpus(args.corpus)
    if args.resume:
        try:
            model = load_online_checkpoint(base, args.resume)
        except ValueError as exc:  # incl. BundleFormatError
            print(str(exc), file=sys.stderr)
            return 2
    else:
        model = OnlineActor(
            base,
            half_life=args.half_life,
            online_lr=args.lr,
            steps_per_batch=args.steps_per_batch,
            batch_size=args.batch_size,
            negatives=args.negatives,
            buffer_size=args.buffer_size,
            seed=args.seed,
        )
    tracer = None
    logger = None
    if args.telemetry_dir:
        tracer = Tracer()
        model.tracer = tracer
        logger = StructuredLogger(
            path=Path(args.telemetry_dir) / "events.jsonl", tracer=tracer
        )
        model.logger = logger
    watchdog = None
    if args.drift:
        # The stream corpus doubles as the probe source: a frozen sample
        # of it measures whether the model keeps ranking *this*
        # distribution well as training continues.
        watchdog = model.enable_drift_watchdog(
            corpus, probe_every=args.drift_probe_every
        )
    server = None
    if args.serve_metrics is not None:
        server = TelemetryServer(
            model.metrics,
            port=args.serve_metrics,
            logger=logger,
            stale_after=args.stale_after,
        )
        if watchdog is not None:
            server.add_status_provider(watchdog.status)
        server.add_status_provider(
            lambda: {
                "buffer": {
                    "size": len(model.buffer),
                    "occupancy": round(model.buffer.occupancy, 4),
                }
            }
        )
        server.start()
        print(
            f"serving live telemetry on {server.url} "
            "(/metrics /healthz /varz)"
        )

    def _flush() -> dict:
        return write_telemetry(
            args.telemetry_dir,
            model.metrics,
            tracer,
            alerts=list(watchdog.alerts) if watchdog is not None else None,
        )

    publisher = None
    if args.publish_bundles:
        from repro.lifecycle import BundlePublisher

        publisher = BundlePublisher(
            args.publish_bundles,
            retain=args.publish_retain,
            metrics=model.metrics,
            logger=logger,
        )

    records = list(corpus)
    try:
        for n_batch, start in enumerate(
            range(0, len(records), args.batch_size), start=1
        ):
            model.partial_fit(records[start : start + args.batch_size])
            if server is not None:
                server.heartbeat()
            if (
                publisher is not None
                and args.publish_every
                and n_batch % args.publish_every == 0
            ):
                path = publisher.publish(model)
                print(f"published bundle epoch {path.name} to {path}")
            if (
                args.telemetry_dir
                and args.telemetry_flush_every
                and n_batch % args.telemetry_flush_every == 0
            ):
                _flush()
        if publisher is not None:
            # The final model state always ships, so a watching server
            # picks up everything this stream learned even when the
            # record count doesn't land on a --publish-every boundary.
            path = publisher.publish(model)
            print(f"published bundle epoch {path.name} to {path}")
    finally:
        if server is not None:
            server.stop()
    print(
        f"streamed {len(records)} records into {args.model}: "
        f"{model.n_ingested} ingested total, "
        f"{model.center.shape[0]} rows, buffer {len(model.buffer)}/"
        f"{model.buffer.max_size} (evictions={model.buffer.evictions})"
    )
    if watchdog is not None and watchdog.alerts:
        print(f"drift watchdog raised {len(watchdog.alerts)} alert(s):")
        for alert in watchdog.alerts:
            print(f"  [batch {alert['batch']}] {alert['message']}")
    if args.metrics:
        print(model.metrics.render(title="streaming metrics"))
    if args.telemetry_dir:
        # Detach the tracer before checkpointing so the span forest never
        # rides along into serialized state.
        model.tracer = NULL_TRACER
        written = _flush()
        print(f"wrote telemetry to {', '.join(sorted(written))}")
        logger.close()
    if args.checkpoint:
        model.save_checkpoint(args.checkpoint)
        print(f"wrote checkpoint to {args.checkpoint}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serving import QueryServer

    initial_epoch = 0
    model_desc = args.model
    try:
        if args.model is not None:
            model = _load_model(args.model, mmap=args.mmap)
        elif args.watch_bundles:
            # No explicit model: serve the bundle root's CURRENT epoch
            # (or the newest non-vetoed one) and hot-swap from there.
            from repro.lifecycle import BundleWatcher

            watcher = BundleWatcher(args.watch_bundles)
            epoch = watcher.serving_epoch()
            if epoch is None:
                print(
                    f"bundle root {args.watch_bundles} holds no "
                    "promotable epoch; publish one with 'repro promote' "
                    "or pass --model",
                    file=sys.stderr,
                )
                return 2
            initial_epoch = epoch
            model_desc = str(watcher.epoch_path(epoch))
            model = load_bundle(watcher.epoch_path(epoch), mmap=True)
        else:
            print(
                "serve requires --model (or --watch-bundles with a "
                "published epoch to serve from)",
                file=sys.stderr,
            )
            return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    logger = None
    if args.telemetry_dir:
        Path(args.telemetry_dir).mkdir(parents=True, exist_ok=True)
        logger = StructuredLogger(
            path=Path(args.telemetry_dir) / "events.jsonl"
        )
    server = QueryServer(
        model,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        logger=logger,
        stale_after=args.stale_after,
        ann=args.ann,
        ann_nlist=args.ann_nlist,
        ann_nprobe=args.ann_nprobe,
        trace_requests=not args.no_request_trace,
        trace_ring_size=args.trace_ring_size,
        slo_availability_target=args.slo_availability_target,
        slo_latency_target=args.slo_latency_target,
        slo_latency_threshold_ms=args.slo_latency_threshold_ms,
    )
    server.start()
    manager = None
    if args.watch_bundles:
        from repro.core.drift import make_probe_queries
        from repro.lifecycle import LifecycleManager

        probe_queries = None
        if args.probe_corpus:
            probe_queries = make_probe_queries(load_corpus(args.probe_corpus))
        manager = LifecycleManager(
            server,
            args.watch_bundles,
            initial_epoch=initial_epoch,
            probe_queries=probe_queries,
            poll_interval=args.poll_interval,
            gate_mrr_drop=args.gate_mrr_drop,
            monitor_mrr_drop=args.monitor_mrr_drop,
            monitor_every=args.monitor_every,
            logger=logger,
        )
        manager.start()
    mode = "coalesced"
    n_shards = server.shards_for(model)
    if n_shards > 1:
        mode += f"; {n_shards}-shard bundle"
    if args.ann:
        status = server.engine.ann_status()
        built = ", ".join(
            f"{modality}: {entry['rows']} rows / {entry['nlist']} lists "
            f"in {entry['build_seconds']:.3f}s"
            for modality, entry in sorted(status["indexes"].items())
        )
        mode += f"; ann nprobe={status['nprobe']} ({built})"
    if manager is not None:
        mode += (
            f"; lifecycle epoch {initial_epoch} watching "
            f"{args.watch_bundles} every {args.poll_interval:g}s"
        )
    print(
        f"serving {model_desc} on {server.url} ({mode}; "
        "POST /v1/predict /v1/neighbors, GET /metrics /healthz /varz "
        "/debug/requests)",
        flush=True,
    )
    stop_event = threading.Event()

    def _on_signal(signum, frame) -> None:
        """Turn SIGINT/SIGTERM into a graceful drain-and-exit."""
        stop_event.set()

    # Signal handlers can only be installed from the main thread; when
    # embedded (tests driving main() from a worker thread) the
    # --max-seconds deadline is the only exit trigger.
    previous = {}
    if threading.current_thread() is threading.main_thread():
        previous = {
            sig: signal.signal(sig, _on_signal)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
    try:
        stop_event.wait(timeout=args.max_seconds)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if manager is not None:
            manager.stop()
        server.stop()
        if args.telemetry_dir:
            requests = None
            if server.trace_ring is not None:
                # Requests first, then the batch spans they link to —
                # the same order TraceRing.export_jsonl writes.
                requests = (
                    server.trace_ring.entries()
                    + server.trace_ring.batch_entries()
                )
            written = write_telemetry(
                args.telemetry_dir,
                server.metrics,
                None,
                requests=requests,
            )
            print(f"wrote telemetry to {', '.join(sorted(written))}")
        if logger is not None:
            logger.close()
    print("server drained and stopped")
    return 0


def _cmd_promote(args: argparse.Namespace) -> int:
    from repro.lifecycle import BundlePublisher

    try:
        model = _load_model(args.model)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        publisher = BundlePublisher(
            args.bundles, retain=args.retain, shards=args.shards
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    path = publisher.publish(model, force=args.force)
    flag = " (forced: gate failures will not veto)" if args.force else ""
    print(
        f"published epoch {path.name} to {path}{flag}; a watching "
        "server will gate and promote it"
    )
    return 0


def _cmd_rollback(args: argparse.Namespace) -> int:
    from repro.lifecycle import BundleWatcher

    watcher = BundleWatcher(args.bundles)
    watcher.request_rollback(args.reason)
    print(
        f"rollback requested in {args.bundles}; the watching server "
        "reverts to last-good on its next poll (verdict lands in "
        "decisions.jsonl and /varz)"
    )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.data.datasets import preset_config
    from repro.data.synthetic import CityModel
    from repro.serving import LoadGenerator, http_transport

    city = CityModel(preset_config(args.preset), seed=args.seed)
    events = city.generate_query_stream(
        args.n_queries,
        duration=args.duration,
        n_noise=args.n_noise,
        neighbor_fraction=args.neighbor_fraction,
        k=args.k,
    )
    generator = LoadGenerator(
        events,
        http_transport(args.url, timeout=args.timeout),
        concurrency=args.concurrency,
        speedup=args.speedup,
    )
    report = generator.run()
    if args.json:
        print(json_module.dumps(report, indent=2, sort_keys=True))
    else:
        rows = [
            ["requests", report["n_requests"]],
            ["concurrency", report["concurrency"]],
            ["wall seconds", report["wall_seconds"]],
            ["qps", report["qps"]],
            ["p50 ms", report["p50_ms"]],
            ["p90 ms", report["p90_ms"]],
            ["p99 ms", report["p99_ms"]],
            ["server errors (5xx)", report["server_errors"]],
            ["client errors (4xx)", report["client_errors"]],
            ["transport errors", report["transport_errors"]],
        ]
        print(format_table(["metric", "value"], rows, title=args.url))
        if report["failures"]:
            failure_rows = [
                [
                    sample["status"],
                    sample["endpoint"],
                    sample.get("request_id", "-"),
                    sample.get("error", "-"),
                ]
                for sample in report["failures"]
            ]
            print(
                format_table(
                    ["status", "endpoint", "request id", "error"],
                    failure_rows,
                    title="failures (look ids up at /debug/requests)",
                )
            )
        if report["slowest"]:
            slow_rows = [
                [
                    sample["latency_ms"],
                    sample["endpoint"],
                    sample.get("queue_wait_ms", "-"),
                    sample.get("request_id", "-"),
                ]
                for sample in report["slowest"][:5]
            ]
            print(
                format_table(
                    ["latency ms", "endpoint", "queue wait ms", "request id"],
                    slow_rows,
                    title="slowest requests",
                )
            )
    if args.fail_on_server_error and (
        report["server_errors"] or report["transport_errors"]
    ):
        print(
            f"FAIL: {report['server_errors']} server error(s), "
            f"{report['transport_errors']} transport error(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    dump = read_telemetry(args.dir)
    if dump["metrics_text"] is None and not (dump["spans"] or dump["alerts"]):
        print(f"no telemetry found in {args.dir}", file=sys.stderr)
        return 2
    if args.raw:
        if dump["metrics_text"] is not None:
            print(dump["metrics_text"], end="")
        return 0
    if dump["metrics_text"] is not None:
        samples = sum(
            1
            for line in dump["metrics_text"].splitlines()
            if line and not line.startswith("#")
        )
        print(f"metrics.prom: {samples} samples")
    if dump["spans"]:
        print(render_trace_summary(dump["spans"]))
    batches = sorted(
        (
            span
            for _depth, span in walk_spans(dump["spans"])
            if span.name == "query.batch" and span.duration is not None
        ),
        key=lambda span: span.duration,
        reverse=True,
    )
    if batches:
        title = (
            f"slowest query.batch spans ({min(5, len(batches))} of "
            f"{len(batches)})"
        )
        print(f"{title}\n{'-' * len(title)}")
        for span in batches[:5]:
            print(render_span_tree(span))
    if dump["alerts"]:
        rows = [
            [
                entry.get("batch", "?"),
                entry.get("kind", "?"),
                entry.get("value", 0.0),
                entry.get("threshold", 0.0),
            ]
            for entry in dump["alerts"]
        ]
        print(
            format_table(
                ["batch", "kind", "value", "threshold"],
                rows,
                title="drift alerts",
            )
        )
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    import json as json_module
    import urllib.request

    from repro.serving.reqtrace import (
        load_request_trace,
        render_tail_summary,
        summarize_tail,
    )

    if args.url:
        url = args.url.rstrip("/") + "/debug/requests"
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                snapshot = json_module.loads(response.read())
        except OSError as exc:
            print(f"could not read {url}: {exc}", file=sys.stderr)
            return 2
        # The snapshot's sections overlap (a slow request is usually
        # also recent); dedup by id so each request counts once.
        requests, seen = [], set()
        for section in ("recent", "slowest", "errors"):
            for entry in snapshot.get(section, []):
                if entry.get("id") not in seen:
                    seen.add(entry.get("id"))
                    requests.append(entry)
        source = url
    else:
        try:
            requests, _batches = load_request_trace(args.trace)
        except (OSError, ValueError) as exc:
            print(f"could not read {args.trace}: {exc}", file=sys.stderr)
            return 2
        source = args.trace
    if not requests:
        print(f"no request traces in {source}", file=sys.stderr)
        return 2
    summary = summarize_tail(requests, q=args.q, slowest=args.slowest)
    if args.json:
        print(json_module.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_tail_summary(summary, title=source))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "query": _cmd_query,
    "export": _cmd_export,
    "stream": _cmd_stream,
    "serve": _cmd_serve,
    "promote": _cmd_promote,
    "rollback": _cmd_rollback,
    "loadgen": _cmd_loadgen,
    "telemetry": _cmd_telemetry,
    "tail": _cmd_tail,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pipe closed early (`repro tail | head`); redirect
        # stdout at the descriptor level so the interpreter's shutdown
        # flush doesn't raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
