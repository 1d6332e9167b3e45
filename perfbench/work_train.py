"""``train`` workload: repeated in-process ``Actor.fit`` on a seeded corpus.

Inputs: a ``utgeo2011`` preset corpus (mentions on, so LINE pretraining
and all nine SGNS tasks run) and a held-out corpus from the same city,
both written as JSONL and read back through ``load_corpus``.  Training
is serial (``threads=1``, the ``repro train`` default) and sized so one
fit takes about a second, so a run holds many fits and reports their
median.  After each fit the fresh model is published and promoted on a
server that takes no traffic (``promote_ms``).

Every fit must produce bit-identical embeddings; ``quality`` is scored
once, on the last model, after the timed loop.  Scoring between fits
would free large query-engine buffers, which raises glibc's mmap
threshold for the process and makes later fits skip most of the page
faults a fresh ``repro train`` takes.
"""

from __future__ import annotations

import hashlib
import statistics
import time

from common import HostSpeed, median, percentile
from layers import install_training, layer_metrics, layer_table, \
    paired_overhead, unattributed_share
from spans import Recorder, thread_faults


def run(ctx) -> dict:
    import repro.data.io as data_io
    from repro.core import Actor, ActorConfig
    from repro.core.serialize import load_bundle
    from repro.data.datasets import generate_dataset
    from repro.eval import build_task_queries, evaluate_model
    from repro.lifecycle import BundlePublisher, LifecycleManager
    from repro.serving import QueryServer

    size = ctx.size
    data = generate_dataset("utgeo2011", n_records=size.train_records,
                            seed=ctx.seed)
    corpus_path = ctx.work / "train.jsonl"
    heldout_path = ctx.work / "heldout.jsonl"
    data_io.save_corpus(data.train, corpus_path)
    data_io.save_corpus(data.city.generate_corpus(size.heldout_records),
                        heldout_path)
    config = ActorConfig(dim=size.dim, epochs=size.epochs,
                         line_samples=size.line_samples, seed=ctx.seed)

    rec = Recorder()
    rec.enabled = ctx.trace
    if ctx.trace:
        install_training(rec)

    speed = HostSpeed()
    setup_s, setup_windows = [], []
    speed.start()
    for _ in range(size.setups):
        start = time.perf_counter()
        corpus = data_io.load_corpus(corpus_path)
        Actor(config)
        end = time.perf_counter()
        setup_s.append(speed.adjust(end - start))
        setup_windows.append((start, end))
    rec.enabled = False
    queries = build_task_queries(data_io.load_corpus(heldout_path),
                                 n_noise=10, max_queries=size.queries,
                                 seed=ctx.seed)

    publisher = BundlePublisher(ctx.work / "epochs", retain=2)
    manager = None
    fits, promote_ms, digests = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline or len(fits) < size.min_units:
        # Stop once most fits fail: a broken fit must end the run, not
        # keep it waiting for ``min_units`` fits that never come.
        if failed >= size.min_units and failed > len(fits):
            ctx.fail(f"{failed} of {attempted} fits failed")
            break
        traced = ctx.trace and attempted % 2 == 1
        attempted += 1
        model = Actor(config)
        speed.start()
        rec.enabled = traced
        faults = thread_faults()
        start = time.perf_counter()
        try:
            model.fit(corpus)
        except Exception as exc:  # noqa: BLE001 - counted as a failed fit
            rec.enabled = False
            ctx.log(f"fit failed: {type(exc).__name__}: {exc}")
            failed += 1
            continue
        end = time.perf_counter()
        rec.enabled = False
        fits.append((start, end, traced, thread_faults() - faults,
                     speed.adjust(end - start)))
        digest = hashlib.sha256()
        for matrix in (model.center, model.context):
            digest.update(memoryview(matrix).cast("B"))
        digests.append(digest.hexdigest())
        # Promotion of the fresh model: publish, then open, gate and flip
        # it on a server that takes no traffic.
        speed.start()
        start = time.perf_counter()
        path = publisher.publish(model)
        if manager is None:
            server = QueryServer(load_bundle(path, mmap=True))
            manager = LifecycleManager(server, publisher.root,
                                       initial_epoch=1)
            continue
        decision = manager.poll_once()
        promote_ms.append(speed.adjust(time.perf_counter() - start) * 1e3)
        if decision is None or decision["action"] != "promote":
            ctx.fail(f"promotion after fit {len(fits)} was {decision}")

    if not fits:
        return {"metrics": {}, "attempted": attempted, "failed": failed}
    if len(set(digests)) != 1:
        ctx.fail(f"identical fits gave {len(set(digests))} different "
                 "embeddings")
    quality = statistics.fmean(evaluate_model(model, queries).values())

    plain = [adj for _s, _e, traced, _f, adj in fits if not traced]
    raw = [e - s for s, e, traced, _f, _a in fits if not traced]
    records = len(corpus)
    metrics = {
        "setup_s": median(setup_s),
        "latency_ms": median(plain) * 1e3,
        "p95_ms": percentile(plain, 95) * 1e3,
        "throughput": records / median(plain),
        "promote_ms": median(promote_ms),
        "quality": quality,
        "success_rate": 1.0 - failed / attempted,
    }
    ctx.note(f"train: {len(fits)} fits of {records} records; raw fit "
             f"seconds {[round(e - s, 3) for s, e, *_ in fits]}; raw "
             f"median {median(raw):.4f}s, probe median "
             f"{median(speed.probes):.3f}ms")
    result = {"metrics": metrics, "attempted": attempted, "failed": failed}
    if ctx.trace:
        spans = rec.spans
        windows = [(s, e) for s, e, traced, *_ in fits if traced]
        extra = {
            "core.minor_faults": median(
                [f for _s, _e, traced, f, _a in fits if not traced]),
            "trace.overhead": paired_overhead(
                [(adj, traced) for _s, _e, traced, _f, adj in fits]),
            "trace.unattributed": unattributed_share(spans, windows),
        }
        result["layers"] = layer_metrics(
            spans, units=len(windows), windows=windows,
            setup_windows=setup_windows, extra=extra)
        result["table"] = layer_table(spans, windows, len(windows))
        result["unit"] = "fit"
        rec.restore()
    return result
