"""Serving latency/throughput: the coalesced HTTP path under client load.

Trains a small ACTOR model, starts a :class:`repro.serving.QueryServer`
(the ``repro serve`` daemon) on an ephemeral port, and measures three
things:

1. **HTTP latency under concurrent clients** — a
   :class:`~repro.serving.loadgen.LoadGenerator` replays a synthetic
   per-user query stream (Zipf popularity, diurnal pacing, mixed
   modality targets) from ``--concurrency`` worker threads; gates
   p99 latency, achieved queries/sec and a zero-5xx requirement.
2. **Coalescing speedup** — the same typed requests are pushed through
   the dispatch layer under saturation, once as one-request-per-call
   (the naive per-request path) and once through the
   :class:`~repro.serving.batcher.RequestBatcher`; gates the
   coalesced/per-request qps ratio (``--min-speedup``).  Trials run as
   interleaved (per-request, coalesced) pairs and the gate honors the
   documented best-of-N rule on the *ratio itself*: machine noise that
   hits both paths in the same trial cancels instead of skewing the
   gate.  The JSON records the threshold actually enforced alongside
   the documented default, so a relaxed smoke run can never be misread
   as a full-scale pass.
3. **Exact response parity** — every coalesced HTTP response is compared
   ``==`` against a direct single-request dispatch on a private
   service; Python's shortest-round-trip float printing makes this a
   bit-exactness check of every score.
4. **Tracing overhead** — the saturated dispatch phase re-runs through
   two live servers, one with request tracing on and one with it off,
   as interleaved trial pairs; gates the traced/untraced qps ratio
   (``--max-trace-overhead``, default <5% drop) so the observability
   layer can never quietly tax the serving path.

Emits ``BENCH_serve_latency.json``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_serve_latency.py \
        --records 2000 --out BENCH_serve_latency.json

CI runs a tiny smoke version (see ``tools/ci_serve_smoke.sh``); the
latency/qps acceptance gates apply at the default benchmark scale.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

from repro import Actor, ActorConfig, generate_dataset
from repro.serving import LoadGenerator, QueryServer, http_transport
from repro.serving.batcher import RequestBatcher
from repro.serving.service import QueryService
from repro.utils.metrics import MetricsRegistry
from repro.utils.tracing import stage

# The documented full-scale coalescing gate (docs/operations.md); smoke
# runs may enforce a relaxed --min-speedup but the JSON always records
# this default next to the threshold actually enforced.
DEFAULT_MIN_SPEEDUP = 3.0
# The documented full-scale tracing-overhead ceiling: request tracing
# may cost at most this fraction of saturated dispatch throughput.
DEFAULT_MAX_TRACE_OVERHEAD = 0.05


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=2_000)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--line-samples", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-queries", type=int, default=400)
    parser.add_argument("--n-noise", type=int, default=10)
    parser.add_argument(
        "--duration", type=float, default=2.0,
        help="replay-time seconds the diurnal stream is compressed into",
    )
    parser.add_argument(
        "--concurrency", type=int, default=8,
        help="concurrent load-generator clients (the >=8 acceptance gate "
        "runs at the default)",
    )
    parser.add_argument(
        "--saturation-threads", type=int, default=64,
        help="worker threads for the dispatch-layer throughput phase",
    )
    parser.add_argument(
        "--throughput-trials", type=int, default=3,
        help="repeat each throughput measurement this many times and "
        "keep the best (cuts scheduler noise)",
    )
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument(
        "--parity-sample", type=int, default=80,
        help="how many requests the exact-parity phase replays over HTTP",
    )
    parser.add_argument(
        "--max-p99-ms", type=float, default=200.0,
        help="gate: HTTP p99 latency ceiling (milliseconds)",
    )
    parser.add_argument(
        "--min-qps", type=float, default=40.0,
        help="gate: HTTP queries/sec floor under --concurrency clients",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=DEFAULT_MIN_SPEEDUP,
        help="gate: coalesced vs per-request dispatch qps ratio floor "
        f"(documented full-scale default: {DEFAULT_MIN_SPEEDUP}x)",
    )
    parser.add_argument(
        "--max-trace-overhead", type=float,
        default=DEFAULT_MAX_TRACE_OVERHEAD,
        help="gate: max fractional qps drop with request tracing on "
        f"(documented full-scale default: {DEFAULT_MAX_TRACE_OVERHEAD})",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_serve_latency.json")
    )
    return parser.parse_args(argv)


def _typed_requests(service: QueryService, events) -> list:
    """Validate every loadgen event into its typed request."""
    typed = []
    for event in events:
        if event.endpoint == "/v1/predict":
            typed.append(service.validate_predict(event.body))
        else:
            typed.append(service.validate_neighbors(event.body))
    return typed


def _saturate(worker_count: int, requests, execute) -> float:
    """Fire ``requests`` from ``worker_count`` threads; returns qps."""
    cursor = {"i": 0}
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                i = cursor["i"]
                if i >= len(requests):
                    return
                cursor["i"] = i + 1
            execute(requests[i])

    threads = [threading.Thread(target=worker) for _ in range(worker_count)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return len(requests) / wall


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bundle = generate_dataset(
        "utgeo2011", n_records=args.records, seed=args.seed
    )
    config = ActorConfig(
        dim=args.dim,
        epochs=args.epochs,
        line_samples=args.line_samples,
        seed=args.seed,
    )
    model = Actor(config).fit(bundle.train)
    events = bundle.city.generate_query_stream(
        args.n_queries,
        duration=args.duration,
        n_noise=args.n_noise,
    )
    service = QueryService(model, metrics=MetricsRegistry())
    typed = _typed_requests(service, events)
    # Warm the engine's normalized-matrix caches so every phase measures
    # steady-state serving, not the first-call cache build.
    service.dispatch(typed[: min(len(typed), 16)])

    report: dict = {
        "records": args.records,
        "dim": args.dim,
        "n_queries": args.n_queries,
        "concurrency": args.concurrency,
    }

    # ---- Phase 1: HTTP latency under concurrent paced clients ----------
    with QueryServer(model, port=0, max_batch=args.max_batch) as server:
        http_report = LoadGenerator(
            events,
            http_transport(server.url),
            concurrency=args.concurrency,
        ).run()
    report["http"] = http_report

    # ---- Phase 2: dispatch-layer throughput, saturated -----------------
    # The per-request path executes each request as its own engine call;
    # the coalesced path parks callers in the batcher and rides the
    # vectorized batch dispatch.  Saturation (more threads than batch
    # capacity) is where coalescing pays: each batch is what queued
    # during the previous dispatch.
    # Interleaved (per-request, coalesced) trial pairs: the gate takes
    # the best per-trial *ratio*, so noise that slows the whole machine
    # for one trial hits both paths and cancels, instead of pairing one
    # path's best trial against the other's worst.
    batcher = RequestBatcher(service.dispatch, max_batch=args.max_batch)
    trial_pairs: list[tuple[float, float]] = []
    try:
        for _ in range(args.throughput_trials):
            per_request = _saturate(
                args.saturation_threads,
                typed,
                lambda r: service.dispatch([r])[0],
            )
            coalesced = _saturate(
                args.saturation_threads, typed, batcher.submit
            )
            trial_pairs.append((per_request, coalesced))
    finally:
        batcher.close()
    per_request_qps = max(pr for pr, _ in trial_pairs)
    coalesced_qps = max(co for _, co in trial_pairs)
    speedup = max(co / pr for pr, co in trial_pairs)
    report["throughput"] = {
        "saturation_threads": args.saturation_threads,
        "per_request_qps": round(per_request_qps, 2),
        "coalesced_qps": round(coalesced_qps, 2),
        "speedup": round(speedup, 3),
        "trials": [
            {
                "per_request_qps": round(pr, 2),
                "coalesced_qps": round(co, 2),
                "speedup": round(co / pr, 3),
            }
            for pr, co in trial_pairs
        ],
    }

    # ---- Phase 3: exact response parity over HTTP ----------------------
    sample = events[: args.parity_sample]
    reference = QueryService(model, metrics=MetricsRegistry())
    expected = [
        reference.dispatch([r])[0] for r in _typed_requests(reference, sample)
    ]
    mismatches = 0
    with QueryServer(model, port=0, max_batch=args.max_batch) as server:
        transport = http_transport(server.url)
        results: list = [None] * len(sample)

        def client(i: int) -> None:
            results[i] = transport(sample[i].endpoint, sample[i].body)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(sample))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for (status, payload, _info), want in zip(results, expected):
        if status != 200 or payload != want:
            mismatches += 1
    report["parity"] = {
        "n_checked": len(sample),
        "mismatches": mismatches,
        "exact": mismatches == 0,
    }

    # ---- Phase 4: request-tracing overhead, saturated -------------------
    # Same saturation harness, through the server's own execute path (the
    # context creation, request stage, batch stamping, stage collection
    # and ring append the HTTP handler would do), traced vs untraced.
    # Interleaved pairs with a best-of ratio, like Phase 2: whole-machine
    # noise cancels.
    def _server_executor(server):
        """A per-request closure running the full traced request path."""

        def execute(request) -> None:
            ctx = server.new_request_context("/bench", None)
            with stage("serve.request", metrics=server.metrics):
                server.execute(request, ctx)
            server.finalize_request(ctx, 200)

        return execute

    trace_pairs: list[tuple[float, float]] = []
    with QueryServer(
        model, port=0, max_batch=args.max_batch
    ) as traced_server, QueryServer(
        model,
        port=0,
        max_batch=args.max_batch,
        trace_requests=False,
    ) as untraced_server:
        traced_execute = _server_executor(traced_server)
        untraced_execute = _server_executor(untraced_server)
        for _ in range(args.throughput_trials):
            untraced = _saturate(
                args.saturation_threads, typed, untraced_execute
            )
            traced = _saturate(
                args.saturation_threads, typed, traced_execute
            )
            trace_pairs.append((untraced, traced))
    best_ratio = max(tr / un for un, tr in trace_pairs)
    overhead = 1.0 - best_ratio
    report["tracing"] = {
        "untraced_qps": round(max(un for un, _ in trace_pairs), 2),
        "traced_qps": round(max(tr for _, tr in trace_pairs), 2),
        "overhead": round(overhead, 4),
        "trials": [
            {
                "untraced_qps": round(un, 2),
                "traced_qps": round(tr, 2),
                "overhead": round(1.0 - tr / un, 4),
            }
            for un, tr in trace_pairs
        ],
    }

    # ---- Gates ---------------------------------------------------------
    errors = (
        http_report["server_errors"] + http_report["transport_errors"]
    )
    gates = {
        "p99_ms": {
            "value": http_report["p99_ms"],
            "max": args.max_p99_ms,
            "pass": http_report["p99_ms"] <= args.max_p99_ms,
        },
        "qps": {
            "value": http_report["qps"],
            "min": args.min_qps,
            "pass": http_report["qps"] >= args.min_qps,
        },
        "zero_5xx": {"value": errors, "pass": errors == 0},
        "coalescing_speedup": {
            "value": round(speedup, 3),
            # "min" is the threshold this run actually enforced; a smoke
            # run's relaxed floor is recorded as such, never silently in
            # place of the documented full-scale gate.
            "min": args.min_speedup,
            "default_min": DEFAULT_MIN_SPEEDUP,
            "relaxed": args.min_speedup < DEFAULT_MIN_SPEEDUP,
            "pass": speedup >= args.min_speedup,
        },
        "exact_parity": {
            "value": mismatches,
            "pass": mismatches == 0,
        },
        "tracing_overhead": {
            "value": round(overhead, 4),
            "max": args.max_trace_overhead,
            "default_max": DEFAULT_MAX_TRACE_OVERHEAD,
            "relaxed": args.max_trace_overhead > DEFAULT_MAX_TRACE_OVERHEAD,
            "pass": overhead <= args.max_trace_overhead,
        },
    }
    report["gates"] = gates
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"http: qps={http_report['qps']} p50={http_report['p50_ms']}ms "
        f"p99={http_report['p99_ms']}ms errors={errors}"
    )
    print(
        f"dispatch: per_request={per_request_qps:.0f}qps "
        f"coalesced={coalesced_qps:.0f}qps speedup={speedup:.2f}x"
    )
    print(f"parity: {len(sample) - mismatches}/{len(sample)} exact")
    print(
        f"tracing: untraced={report['tracing']['untraced_qps']:.0f}qps "
        f"traced={report['tracing']['traced_qps']:.0f}qps "
        f"overhead={overhead * 100:.2f}%"
    )
    if args.max_trace_overhead > DEFAULT_MAX_TRACE_OVERHEAD:
        print(
            f"note: tracing-overhead gate enforced at a relaxed "
            f"{args.max_trace_overhead} (documented default "
            f"{DEFAULT_MAX_TRACE_OVERHEAD}; recorded in the JSON)"
        )
    if args.min_speedup < DEFAULT_MIN_SPEEDUP:
        print(
            f"note: coalescing gate enforced at a relaxed "
            f"{args.min_speedup}x (documented default "
            f"{DEFAULT_MIN_SPEEDUP}x; recorded in the JSON)"
        )
    if speedup < DEFAULT_MIN_SPEEDUP:
        print(
            f"WARNING: best-of-{args.throughput_trials} coalescing "
            f"speedup {speedup:.2f}x is below the documented "
            f"{DEFAULT_MIN_SPEEDUP}x full-scale gate",
            file=sys.stderr,
        )
    failed = [name for name, gate in gates.items() if not gate["pass"]]
    if failed:
        for name in failed:
            print(
                f"GATE FAILED: {name} = {gates[name]['value']} "
                f"(gate: {gates[name]})",
                file=sys.stderr,
            )
        print(f"FAILED gates: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
