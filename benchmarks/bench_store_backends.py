"""Storage backends: cold-load latency and query serving per backend.

Trains a small ACTOR model, inflates its embedding matrices to a
serving-realistic size, then measures

* **cold load** — unpickling the full model vs eagerly loading the
  format-v2 bundle vs adopting the bundle with ``load_bundle(...,
  mmap=True)`` (an ``mmap(2)`` of the ``.npy`` sidecars instead of a
  deserialize-everything read); the acceptance gate is mmap >= 5x faster
  than pickle;
* **query throughput per backend** — the same batched query set served
  from the ``dense`` and ``mmap`` stores, with exact rank parity
  asserted between them (a backend is only interchangeable if the
  answers are bit-identical).

Emits ``BENCH_store_backends.json``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_store_backends.py \
        --records 2000 --out BENCH_store_backends.json

CI runs this in the bench-smoke job; the ``--min-load-speedup 5`` gate
applies there too, so regressions in bundle-load cost fail the build.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import Actor, ActorConfig, generate_dataset
from repro.core import load_bundle, save_bundle
from repro.eval import build_task_queries


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=2_000)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument(
        "--inflate-dim", type=int, default=1_024,
        help="re-randomize the trained matrices at this dimension so the "
        "load comparison reflects serving-size models, not toy ones",
    )
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--line-samples", type=int, default=5_000)
    parser.add_argument("--max-queries", type=int, default=150)
    parser.add_argument("--n-noise", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_store_backends.json")
    )
    parser.add_argument(
        "--min-load-speedup", type=float, default=5.0,
        help="exit non-zero when mmap cold-load is not at least this much "
        "faster than the pickle load",
    )
    return parser.parse_args(argv)


def _time_best(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn`` (seconds); best-of so that page-cache
    warmup and allocator noise do not penalize either contender."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


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
    # Serving-size matrices: same node space, wider rows.  Queries stay
    # exact across backends (parity is the point); absolute MRR is not.
    rng = np.random.default_rng(args.seed)
    n_rows = model.center.shape[0]
    model.store.set_matrix(
        "center", rng.normal(size=(n_rows, args.inflate_dim))
    )
    model.store.set_matrix(
        "context", rng.normal(size=(n_rows, args.inflate_dim))
    )
    queries = build_task_queries(
        bundle.test,
        n_noise=args.n_noise,
        max_queries=args.max_queries,
        seed=args.seed,
    )
    flat_queries = [q for qs in queries.values() for q in qs]

    workdir = Path(tempfile.mkdtemp(prefix="bench-store-"))
    pkl_path = workdir / "model.pkl"
    bundle_dir = workdir / "bundle"
    with pkl_path.open("wb") as fh:
        pickle.dump(model, fh, protocol=pickle.HIGHEST_PROTOCOL)
    save_bundle(model, bundle_dir)

    def load_pickle():
        with pkl_path.open("rb") as fh:
            return pickle.load(fh)

    pickle_s = _time_best(load_pickle, args.repeats)
    eager_s = _time_best(lambda: load_bundle(bundle_dir), args.repeats)
    mmap_s = _time_best(
        lambda: load_bundle(bundle_dir, mmap=True), args.repeats
    )
    load_speedup = pickle_s / mmap_s

    matrix_mb = 2 * n_rows * args.inflate_dim * 8 / 2**20
    report: dict = {
        "params": {
            "records": args.records,
            "n_rows": n_rows,
            "inflate_dim": args.inflate_dim,
            "matrix_mb": round(matrix_mb, 1),
            "repeats": args.repeats,
        },
        "load": {
            "pickle_s": pickle_s,
            "bundle_eager_s": eager_s,
            "bundle_mmap_s": mmap_s,
            "mmap_speedup_vs_pickle": load_speedup,
        },
        "backends": {},
    }

    served = {
        "dense": load_bundle(bundle_dir),
        "mmap": load_bundle(bundle_dir, mmap=True),
    }

    reference_ranks = None
    all_parity = True
    for backend, backend_model in served.items():
        engine = backend_model.query_engine()
        engine.rank_batch(flat_queries)  # warm the modality caches
        start = time.perf_counter()
        ranks = engine.rank_batch(flat_queries)
        elapsed = time.perf_counter() - start
        ranks = ranks.tolist()
        if reference_ranks is None:
            reference_ranks = ranks
        parity = ranks == reference_ranks
        all_parity &= parity
        report["backends"][backend] = {
            "n_queries": len(flat_queries),
            "qps": len(flat_queries) / elapsed,
            "rank_parity": parity,
        }

    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"cold load ({matrix_mb:.0f} MB of matrices): "
        f"pickle {pickle_s * 1e3:.1f} ms, "
        f"bundle {eager_s * 1e3:.1f} ms, "
        f"mmap {mmap_s * 1e3:.1f} ms ({load_speedup:.1f}x vs pickle)"
    )
    for backend, row in report["backends"].items():
        print(
            f"{backend:>7}: {row['qps']:10.1f} queries/s "
            f"(parity={row['rank_parity']})"
        )
    print(f"wrote {args.out}")

    if not all_parity:
        print("FAIL: backends disagree on query ranks")
        return 1
    if load_speedup < args.min_load_speedup:
        print(
            f"FAIL: mmap load speedup {load_speedup:.1f}x < "
            f"required {args.min_load_speedup}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
