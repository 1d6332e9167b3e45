"""Online adaptation bench (extension; motivated by the paper's ref. [8]).

Scenario: the city changes — a *new* city district opens with venues and
activity vocabulary the warm-up corpus never contained.  A frozen ACTOR
cannot score the new keywords at all; the :class:`OnlineActor` streams the
new records through its recency buffer and adapts.

Protocol: warm-start on the utgeo2011 preset, generate a second city (same
configuration, different seed — disjoint venue tokens), stream a slice of
its records online, then evaluate text-prediction MRR on held-out records
of the new city for (a) the frozen base model and (b) the online model.
Expected shape: the online model beats the frozen one by a clear margin.

The stream runs with the :class:`DriftWatchdog` attached (probing more
often than the CLI default), and the bench gates the watchdog's cost:
``drift.observe`` wall time must stay under 5% of total streaming wall
time.  The measured ratio is emitted to ``BENCH_online_streaming.json``
alongside the throughput and MRR numbers so CI archives the trend.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import OnlineActor
from repro.data import CityModel, preset_config
from repro.data.splits import SplitSizes, train_valid_test_split
from repro.eval import evaluate_model, format_table, make_queries, mean_reciprocal_rank
from repro.utils.metrics import MetricsRegistry
from repro.utils.telemetry import render_trace_summary
from repro.utils.tracing import Tracer

from common import SEED


@pytest.mark.benchmark(group="online-streaming")
def test_online_adaptation_to_new_district(benchmark, datasets, actor_models):
    base = actor_models["utgeo2011"]

    # The "new district": same generative configuration, fresh seed, so
    # every venue token and topic keyword is new vocabulary.
    new_city = CityModel(preset_config("utgeo2011"), seed=SEED + 1000)
    new_corpus = new_city.generate_corpus(1200)
    stream, _valid, held_out = train_valid_test_split(
        new_corpus, sizes=SplitSizes(train=0.8, valid=0.0, test=0.2),
        seed=SEED,
    )

    registry = MetricsRegistry()
    tracer = Tracer()
    online = OnlineActor(
        base,
        half_life=8.0,
        online_lr=0.05,
        steps_per_batch=200,
        negatives=2,
        seed=SEED,
        metrics=registry,
        tracer=tracer,
    )
    # Probe 2x more often than the CLI default so the <5% overhead gate
    # below is measured under a conservative (expensive) configuration.
    watchdog = online.enable_drift_watchdog(held_out, probe_every=5)
    batch_size = 150
    for start in range(0, len(stream), batch_size):
        online.partial_fit(stream.records[start : start + batch_size])

    queries = make_queries(
        held_out, "text", n_noise=10, max_queries=120, seed=SEED
    )
    frozen_mrr = mean_reciprocal_rank(base, queries)
    online_mrr = mean_reciprocal_rank(online, queries)

    def burst():
        online.partial_fit(stream.records[:50])

    benchmark.pedantic(burst, rounds=2, iterations=1)

    print()
    print(
        format_table(
            ["model", "text MRR on new district"],
            [
                ["frozen ACTOR (no updates)", frozen_mrr],
                ["OnlineActor (streamed)", online_mrr],
            ],
            title="Online adaptation — new city district",
        )
    )
    print(
        f"ingested {online.n_ingested} records, "
        f"{online.center.shape[0] - base.center.shape[0]} new embedding rows"
    )
    ingest = registry.histogram("stream.partial_fit_seconds")
    throughput = online.n_ingested / ingest.total if ingest.total else 0.0
    print(f"ingestion throughput: {throughput:,.0f} records/sec")
    print(registry.render(title="streaming metrics"))
    print(render_trace_summary(tracer.roots, title="streaming spans"))

    # Watchdog overhead gate: drift.observe runs outside the
    # stream.partial_fit stage, so the two totals partition the streaming
    # wall time and the ratio below is the watchdog's true share.
    observe = registry.histogram("drift.observe_seconds")
    probes = registry.histogram("drift.probe_seconds").count
    streaming_total = ingest.total + observe.total
    overhead = observe.total / streaming_total if streaming_total else 0.0
    print(
        f"drift watchdog overhead: {overhead:.2%} of streaming wall time "
        f"({observe.count} observations, {probes} probes, "
        f"{len(watchdog.alerts)} alerts)"
    )

    report = {
        "bench": "online_streaming",
        "records_ingested": int(online.n_ingested),
        "ingestion_throughput_records_per_sec": round(throughput, 1),
        "frozen_mrr": round(float(frozen_mrr), 4),
        "online_mrr": round(float(online_mrr), 4),
        "drift_watchdog": {
            "observe_seconds": round(observe.total, 4),
            "partial_fit_seconds": round(ingest.total, 4),
            "overhead_ratio": round(overhead, 4),
            "overhead_gate": 0.05,
            "observations": observe.count,
            "probes": probes,
            "alerts": len(watchdog.alerts),
        },
    }
    out = Path("BENCH_online_streaming.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    # The frozen model cannot embed the new vocabulary: near-chance.
    # The online model must clearly exceed it.
    assert online_mrr > frozen_mrr + 0.1, (frozen_mrr, online_mrr)
    # The watchdog must stay out of the hot path's way.
    assert overhead < 0.05, (
        f"drift watchdog consumed {overhead:.2%} of streaming wall time"
    )