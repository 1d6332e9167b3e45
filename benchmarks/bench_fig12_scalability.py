"""Fig. 12 — scalability of the embedding trainer and the serving fan-out.

(a) running time vs. number of sampled edges (1x-4x, fixed workers):
    expected near-linear growth;
(b) strong scaling: fixed samples, workers 1-4: expected speedup on
    multi-core hardware;
(c) weak scaling: workers and samples grow together: expected sub-linear
    wall-clock growth (flat in the paper's C++);
(d) shard scaling: the model exported as a K-shard bundle, K in
    {1, 2, 4, 8}, mapped back with ``load_bundle(mmap=True)`` and served
    through the engine ``QueryServer.build_engine`` returns.  Rankings
    must equal K=1 bit for bit in every modality, and K=4 word-neighbor
    time must stay within 1.1x of K=1: K is a storage layout and costs
    nothing at query time.  Results are emitted to
    ``BENCH_shard_scaling.json``.

Parallelism uses the lock-free shared-memory process pool
(:class:`repro.embedding.HogwildPool`), the honest NumPy equivalent of the
paper's pthreads Hogwild.  Speedup is physically bounded by the machine:
on a single-core host (CI containers!) 12b/12c can only demonstrate
bounded overhead, so those assertions are conditioned on the detected
core count and the full series is always printed for the record.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import Actor
from repro.core import ActorConfig, load_bundle, save_bundle
from repro.eval import edges_scaling, format_table, strong_scaling, weak_scaling
from repro.graphs import GraphBuilder
from repro.serving import QueryServer

from common import SEED

BASE_BATCHES = 30
N_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


@pytest.fixture(scope="module")
def scale_built(datasets):
    return GraphBuilder().build(datasets["utgeo2011"].train)


@pytest.fixture(scope="module")
def scale_config():
    return ActorConfig(dim=48, epochs=2, batch_size=512, seed=SEED)


@pytest.mark.benchmark(group="fig12a-edges")
def test_fig12a_time_vs_sampled_edges(benchmark, scale_built, scale_config):
    points = edges_scaling(
        scale_built,
        scale_config,
        base_batches=BASE_BATCHES,
        multipliers=(1, 2, 3, 4),
        threads=1,
    )
    benchmark.pedantic(
        edges_scaling,
        args=(scale_built, scale_config),
        kwargs=dict(base_batches=5, multipliers=(1,)),
        rounds=1,
        iterations=1,
    )

    headers = ["multiplier", "samples", "seconds", "sec/sample(x1e6)"]
    rows = [
        [p.multiplier, p.samples, round(p.seconds, 3),
         round(1e6 * p.seconds / p.samples, 3)]
        for p in points
    ]
    print()
    print(format_table(headers, rows, title="Fig. 12a — time vs sampled edges"))

    # Shape: monotone growth, roughly linear (4x samples within [2.5x, 6x]
    # of the 1x time — generous bounds for CI noise).
    times = [p.seconds for p in points]
    assert times[0] < times[1] < times[3]
    ratio = times[3] / times[0]
    assert 2.0 < ratio < 7.0, ratio


@pytest.mark.benchmark(group="fig12b-strong")
def test_fig12b_strong_scaling(benchmark, scale_built, scale_config):
    points = strong_scaling(
        scale_built,
        scale_config,
        base_batches=2 * BASE_BATCHES,
        thread_counts=(1, 2, 4),
    )
    benchmark.pedantic(
        strong_scaling,
        args=(scale_built, scale_config),
        kwargs=dict(base_batches=5, thread_counts=(2,)),
        rounds=1,
        iterations=1,
    )

    headers = ["threads", "samples", "seconds", "speedup"]
    base = points[0].seconds
    rows = [
        [p.threads, p.samples, round(p.seconds, 3), round(base / p.seconds, 2)]
        for p in points
    ]
    print()
    print(format_table(headers, rows, title="Fig. 12b — strong scaling"))

    print(f"(detected {N_CORES} usable cores)")
    if N_CORES >= 2:
        # Real hardware parallelism available: demand an actual speedup.
        assert points[-1].seconds < 0.9 * points[0].seconds, points
    else:
        # Single core: parallel speedup is impossible; demand bounded
        # coordination overhead instead.
        assert points[-1].seconds < 2.0 * points[0].seconds, points


@pytest.mark.benchmark(group="fig12c-weak")
def test_fig12c_weak_scaling(benchmark, scale_built, scale_config):
    points = weak_scaling(
        scale_built,
        scale_config,
        base_batches=BASE_BATCHES,
        steps=(1, 2, 4),
    )
    benchmark.pedantic(
        weak_scaling,
        args=(scale_built, scale_config),
        kwargs=dict(base_batches=5, steps=(1,)),
        rounds=1,
        iterations=1,
    )

    headers = ["threads=mult", "samples", "seconds", "vs serial-growth"]
    rows = []
    for p in points:
        serial_projection = points[0].seconds * p.multiplier
        rows.append(
            [p.threads, p.samples, round(p.seconds, 3),
             f"{p.seconds / serial_projection:.2f}x"]
        )
    print()
    print(format_table(headers, rows, title="Fig. 12c — weak scaling"))

    print(f"(detected {N_CORES} usable cores)")
    serial_projection = points[0].seconds * points[-1].multiplier
    if N_CORES >= 2:
        # Paper shape: near-flat; demand clearly sub-serial growth.
        assert points[-1].seconds < 0.9 * serial_projection, points
    else:
        # Single core: growth is inherently serial; demand bounded overhead
        # over the serial projection.
        assert points[-1].seconds < 1.8 * serial_projection, points


SHARD_COUNTS = (1, 2, 4, 8)
SHARD_QUERIES = 200
SHARD_ROUNDS = 15
SHARD_MODALITIES = ("word", "time", "location", "user")
MAX_K4_TIME_RATIO = 1.1


@pytest.fixture(scope="module")
def shard_model(datasets, scale_config):
    return Actor(scale_config).fit(datasets["utgeo2011"].train)


@pytest.mark.benchmark(group="fig12d-shards")
def test_fig12d_shard_scaling(benchmark, shard_model, tmp_path):
    """Serving a K-shard bundle vs K, parity- and time-gated against K=1."""
    rng = np.random.default_rng(SEED)
    parity_queries = {
        modality: rng.standard_normal((5, shard_model.dim))
        for modality in SHARD_MODALITIES
    }
    timed = rng.standard_normal((SHARD_QUERIES, shard_model.dim))

    engines = {}
    for n_shards in SHARD_COUNTS:
        root = tmp_path / f"bundle-k{n_shards}"
        save_bundle(shard_model, root, shards=n_shards)
        # The engine QueryServer.build_engine picks, as `repro serve` runs.
        engines[n_shards] = QueryServer(load_bundle(root, mmap=True)).engine
        engines[n_shards].model.modality_cache("word")  # warm the cache

    def rankings(engine):
        return {
            modality: [engine.neighbors(q, modality, 10) for q in queries]
            for modality, queries in parity_queries.items()
        }

    reference = rankings(engines[1])
    parity = {k: rankings(engine) == reference for k, engine in engines.items()}

    # Every round times each K once, rotating their order, so a slow
    # phase of a shared host hits every K alike.  The gate compares K=4
    # with K=1 within each round and takes the median of those ratios.
    samples: dict = {k: [] for k in SHARD_COUNTS}
    for r in range(SHARD_ROUNDS):
        shift = r % len(SHARD_COUNTS)
        for n_shards in SHARD_COUNTS[shift:] + SHARD_COUNTS[:shift]:
            engine = engines[n_shards]
            start = time.perf_counter()
            for q in timed:
                engine.neighbors(q, "word", 10)
            samples[n_shards].append(time.perf_counter() - start)
    seconds = {k: float(np.median(v)) for k, v in samples.items()}
    ratio = float(np.median(np.divide(samples[4], samples[1])))
    benchmark.pedantic(
        engines[4].neighbors, args=(timed[0], "word", 10), rounds=1,
        iterations=1,
    )

    report: dict = {
        "bench": "shard_scaling",
        "n_cores": N_CORES,
        "timed_queries": SHARD_QUERIES,
        "rounds": SHARD_ROUNDS,
        "k": 10,
        "shards": {
            str(k): {
                "engine": type(engines[k]).__name__,
                "seconds": round(seconds[k], 5),
                "qps": round(SHARD_QUERIES / seconds[k], 1),
                "rank_parity": parity[k],
            }
            for k in SHARD_COUNTS
        },
        "time_ratio_k4_vs_k1": round(ratio, 3),
        "max_time_ratio": MAX_K4_TIME_RATIO,
    }
    out = Path("BENCH_shard_scaling.json")
    out.write_text(json.dumps(report, indent=2) + "\n")

    headers = ["shards", "engine", "median s", "queries/s", "parity"]
    rows = [[k, *report["shards"][str(k)].values()] for k in SHARD_COUNTS]
    print()
    print(format_table(headers, rows, title="Fig. 12d — shard scaling"))
    print(f"K=4 / K=1 word-neighbor time: {ratio:.3f}x; wrote {out}")

    # Every K serves through the same engine over the same assembled
    # matrix, so rankings are bit-exact and K=4 costs what K=1 does.
    assert all(parity.values()), parity
    assert ratio <= MAX_K4_TIME_RATIO, report["shards"]
