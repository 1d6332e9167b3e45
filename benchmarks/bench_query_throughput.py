"""Query-serving throughput: scalar per-query loop vs the batched engine.

Trains a small ACTOR model on a synthetic corpus, builds the three
cross-modal task query sets, and times the scalar reference path
(:func:`repro.eval.mrr.query_rank`, one ``score_candidates`` call per
query) against the vectorized :class:`repro.core.query_engine.QueryEngine`
(``rank_batch``).  Rank parity between the two paths is asserted — the
speedup is only meaningful if the answers are bit-identical.

Emits ``BENCH_query_throughput.json`` with per-target and overall
queries/sec plus the speedup factor.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_query_throughput.py \
        --records 2500 --out BENCH_query_throughput.json

CI runs a tiny-corpus smoke version of this script (see
``.github/workflows/ci.yml``); the acceptance target of >= 10x batched
speedup applies at the default benchmark scale, so the smoke run keeps
``--min-speedup`` at its permissive default.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import Actor, ActorConfig, QueryEngine, generate_dataset
from repro.eval import build_task_queries
from repro.eval.mrr import query_rank
from repro.utils.metrics import MetricsRegistry
from repro.utils.telemetry import write_telemetry
from repro.utils.tracing import Tracer


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=2_500)
    parser.add_argument("--dim", type=int, default=48)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--line-samples", type=int, default=20_000)
    parser.add_argument("--max-queries", type=int, default=300)
    parser.add_argument("--n-noise", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_query_throughput.json")
    )
    parser.add_argument(
        "--telemetry-dir",
        type=Path,
        default=None,
        help=(
            "Serve the batched path with tracing and dump Prometheus "
            "metrics / trace.jsonl here ('repro telemetry' lists the "
            "slowest query batches).  The engine then carries span "
            "overhead, so compare timings against an uninstrumented run, "
            "not the acceptance target."
        ),
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="Exit non-zero if the overall batched speedup falls below this.",
    )
    return parser.parse_args(argv)


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
    queries = build_task_queries(
        bundle.test,
        n_noise=args.n_noise,
        max_queries=args.max_queries,
        seed=args.seed,
    )
    tracer = Tracer() if args.telemetry_dir else None
    if args.telemetry_dir:
        engine = QueryEngine(model, metrics=MetricsRegistry(), tracer=tracer)
    else:
        engine = model.query_engine()

    report: dict = {
        "records": args.records,
        "dim": args.dim,
        "n_noise": args.n_noise,
        "targets": {},
    }
    total_queries = 0
    total_scalar_s = 0.0
    total_batch_s = 0.0
    all_parity = True
    for target, task_queries in queries.items():
        # Warm the normalized-matrix caches so the batched timing reflects
        # steady-state serving, not the first-call cache build.
        engine.rank_batch(task_queries)

        start = time.perf_counter()
        scalar_ranks = [query_rank(model, q) for q in task_queries]
        scalar_s = time.perf_counter() - start

        start = time.perf_counter()
        batch_ranks = engine.rank_batch(task_queries)
        batch_s = time.perf_counter() - start

        parity = scalar_ranks == batch_ranks.tolist()
        all_parity &= parity
        n = len(task_queries)
        total_queries += n
        total_scalar_s += scalar_s
        total_batch_s += batch_s
        report["targets"][target] = {
            "n_queries": n,
            "scalar_qps": n / scalar_s,
            "batched_qps": n / batch_s,
            "speedup": scalar_s / batch_s,
            "rank_parity": parity,
        }

    speedup = total_scalar_s / total_batch_s
    report["overall"] = {
        "n_queries": total_queries,
        "scalar_qps": total_queries / total_scalar_s,
        "batched_qps": total_queries / total_batch_s,
        "speedup": speedup,
        "rank_parity": all_parity,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    if args.telemetry_dir:
        written = write_telemetry(args.telemetry_dir, engine.metrics, tracer)
        print(
            f"telemetry: wrote {', '.join(sorted(written))} to "
            f"{args.telemetry_dir}"
        )

    for target, row in report["targets"].items():
        print(
            f"{target:>9}: {row['scalar_qps']:9.1f} -> {row['batched_qps']:10.1f} "
            f"queries/s ({row['speedup']:.1f}x, parity={row['rank_parity']})"
        )
    print(
        f"  overall: {report['overall']['scalar_qps']:9.1f} -> "
        f"{report['overall']['batched_qps']:10.1f} queries/s "
        f"({speedup:.1f}x), wrote {args.out}"
    )

    if not all_parity:
        print("FAIL: batched ranks diverge from the scalar reference")
        return 1
    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x < required {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
