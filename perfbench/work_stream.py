"""``stream-promote`` workload: online learning beside bundle promotion.

Input preparation (untimed): a base ``utgeo2011`` model trained and
pickled, a seeded record stream from the same city and a held-out corpus
(the gate's probe queries and the quality queries), all written to
files.  The run then streams the records through
``OnlineActor.partial_fit`` in CLI-default batches (256 records, 50 SGNS
steps) with the drift watchdog probing, and every ``publish_every``
batches publishes a bundle and runs ``LifecycleManager.poll_once`` (open
candidate, gate, flip) on a ``QueryServer`` that takes no HTTP traffic.
The stream is replayed from its start when a run outlasts it.

Every promotion decision must be ``promote``.  ``quality`` is the mean
MRR over the three tasks of the epoch served after a fixed number of
batches, so it repeats exactly for a seed however fast the run goes.
"""

from __future__ import annotations

import time

from common import HostSpeed, median, percentile
from layers import install_training, layer_metrics, layer_table, \
    paired_overhead, unattributed_share
from spans import Recorder, thread_faults

BATCH = 256


def run(ctx) -> dict:
    from repro.core import Actor, ActorConfig, OnlineActor
    from repro.core.drift import make_probe_queries
    from repro.core.serialize import load_bundle
    from repro.data.datasets import generate_dataset
    from repro.data.io import load_corpus, save_corpus
    from repro.eval import build_task_queries, evaluate_model
    from repro.lifecycle import BundlePublisher, LifecycleManager
    from repro.serving import QueryServer

    size = ctx.size
    data = generate_dataset("utgeo2011", n_records=size.serve_records,
                            seed=ctx.seed)
    base_path = ctx.work / "base.pkl"
    Actor(ActorConfig(dim=size.dim, epochs=size.epochs,
                      line_samples=size.line_samples, seed=ctx.seed)
          ).fit(data.train).save(base_path)
    save_corpus(data.city.generate_corpus(size.stream_records),
                ctx.work / "stream.jsonl")
    save_corpus(data.city.generate_corpus(size.heldout_records),
                ctx.work / "heldout.jsonl")
    stream = load_corpus(ctx.work / "stream.jsonl")
    heldout = load_corpus(ctx.work / "heldout.jsonl")
    probes = make_probe_queries(heldout)
    queries = build_task_queries(heldout, n_noise=10,
                                 max_queries=size.queries, seed=ctx.seed)
    records = list(stream)
    quality_batch = 4 * size.publish_every

    rec = Recorder()
    rec.enabled = ctx.trace
    if ctx.trace:
        install_training(rec)

    speed = HostSpeed()
    setup_s, setup_windows = [], []
    speed.start()
    for i in range(size.setups):
        start = time.perf_counter()
        online = OnlineActor(Actor.load(base_path), seed=ctx.seed)
        online.enable_drift_watchdog(stream)
        publisher = BundlePublisher(ctx.work / f"epochs-{i}", retain=2)
        server = QueryServer(load_bundle(publisher.publish(online),
                                         mmap=True))
        manager = LifecycleManager(server, publisher.root, initial_epoch=1,
                                   probe_queries=probes)
        end = time.perf_counter()
        setup_s.append(speed.adjust(end - start))
        setup_windows.append((start, end))
    rec.enabled = False

    # Traced runs alternate batches with tracing on and off; ``windows``
    # holds the traced batches and the promotions that follow them.
    batches, promotions, windows = [], [], []
    attempted = failed = 0
    n_records = 0
    quality = None
    deadline = time.perf_counter() + ctx.seconds
    speed.start()
    i = 0
    while time.perf_counter() < deadline or quality is None:
        traced = ctx.trace and i % 2 == 1
        offset = (i * BATCH) % len(records)
        batch = records[offset:offset + BATCH]
        rec.enabled = traced
        faults = thread_faults()
        start = time.perf_counter()
        attempted += 1
        try:
            online.partial_fit(batch)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            ctx.log(f"partial_fit failed: {type(exc).__name__}: {exc}")
            failed += 1
        else:
            n_records += len(batch)
            end = time.perf_counter()
            batches.append((start, end, traced, thread_faults() - faults,
                            speed.adjust(end - start)))
            if traced:
                windows.append((start, end))
        i += 1
        if i % size.publish_every == 0:
            attempted += 1
            start = time.perf_counter()
            decision = None
            try:
                publisher.publish(online)
                decision = manager.poll_once()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                ctx.log(f"promotion failed: {type(exc).__name__}: {exc}")
            end = time.perf_counter()
            promotions.append((start, end, speed.adjust(end - start)))
            if traced:
                windows.append((start, end))
            if decision is None or decision["action"] != "promote":
                failed += 1
                ctx.fail(f"promotion after batch {i} decided {decision}")
        rec.enabled = False
        if i == quality_batch:
            scores = evaluate_model(manager.swapper.active.model, queries)
            quality = sum(scores.values()) / len(scores)
            speed.start()

    plain = [adj for _s, _e, traced, _f, adj in batches if not traced]
    raw = [e - s for s, e, traced, _f, _a in batches if not traced]
    busy = (sum(adj for *_, adj in batches)
            + sum(adj for *_, adj in promotions))
    metrics = {
        "setup_s": median(setup_s),
        "latency_ms": median(plain) * 1e3,
        "p95_ms": percentile(plain, 95) * 1e3,
        "throughput": n_records / busy,
        "promote_ms": median([adj for *_, adj in promotions]) * 1e3,
        "quality": quality,
        "success_rate": 1.0 - failed / attempted,
    }
    ctx.note(f"stream-promote: {len(batches)} batches, {len(promotions)} "
             f"promotions, {n_records} records; raw batch median "
             f"{median(raw) * 1e3:.2f}ms, probe median "
             f"{median(speed.probes):.3f}ms; final rows "
             f"{online.center.shape[0]}, buffer {len(online.buffer)}")
    result = {"metrics": metrics, "attempted": attempted, "failed": failed}
    if ctx.trace:
        spans = rec.spans
        extra = {
            "core.minor_faults": median(
                [f for _s, _e, traced, f, _a in batches if not traced]),
            "trace.overhead": paired_overhead(
                [(adj, traced) for _s, _e, traced, _f, adj in batches]),
            "trace.unattributed": unattributed_share(spans, windows),
        }
        units = sum(1 for *_, traced, _f, _a in batches if traced)
        result["layers"] = layer_metrics(
            spans, units=units, windows=windows,
            setup_windows=setup_windows,
            promote_windows=[(s, e) for s, e, _a in promotions],
            extra=extra)
        result["table"] = layer_table(spans, windows, units)
        result["unit"] = "batch"
        rec.restore()
    return result
