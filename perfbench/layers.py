"""Which public calls of the program are timed, and what each layer reports.

:func:`install_training` wraps the calls a training or streaming process
makes (``train`` and ``stream-promote`` run them in the benchmark
process); :func:`install_serving` wraps the calls a serving process makes
(the serve workloads run them inside the server launcher).  Span names
are ``<module>.<call>``, so a span's layer is the text before its first
dot.

:func:`layer_metrics` turns spans into the per-layer metrics named in
``BENCHMARK.json``.  Time metrics are self times summed over a workload's
measured units and divided by the number of units (per fit on ``train``,
per batch on ``stream-promote``, per request on the serve workloads), so
on an uncontended path they add up to the end-to-end unit time.
"""

from __future__ import annotations

from collections import defaultdict

from common import median, percentile
from spans import covered, self_times, within

#: The training tasks by span-safe name, in the trainer's order.
TASKS = ("plain-UT", "plain-UW", "plain-UL", "plain-TL", "bow-LW",
         "plain-LW-dst", "bow-WT", "plain-WT-src", "bow-WW")

#: Per-layer metric -> unit.  Every traced run prints every one of them;
#: a layer that a workload does not exercise reads 0.
PER_LAYER = {
    "hotspots.fit_s": "s",
    "hotspots.assign_ms": "ms",
    "graphs.build_s": "s",
    "embedding.line_s": "s",
    "embedding.sgns_s": "s",
    "embedding.sgns_calls": "count",
    "core.init_s": "s",
    **{f"core.task.{t}_s": "s" for t in TASKS},
    **{f"core.task.{t}_steps": "count" for t in TASKS},
    "core.train_overhead_s": "s",
    "core.trainer_build_s": "s",
    "core.minor_faults": "count",
    "core.embed_ms": "ms",
    "core.score_ms": "ms",
    "core.neighbors_ms": "ms",
    "core.partial_fit_ms": "ms",
    "core.buffer_add_ms": "ms",
    "core.buffer_sample_ms": "ms",
    "core.drift_ms": "ms",
    "core.load_bundle_ms": "ms",
    "data.load_corpus_ms": "ms",
    "storage.grow_ms": "ms",
    "storage.normalized_ms": "ms",
    "storage.normalized_calls": "count",
    "storage.normalized_rebuild_ratio": "1",
    "ann.build_s": "s",
    "ann.search_ms": "ms",
    "ann.probed_fraction": "1",
    "sharding.neighbors_ms": "ms",
    "serving.handler_p50_ms": "ms",
    "serving.handler_p99_ms": "ms",
    "serving.transport_p50_ms": "ms",
    "serving.transport_p99_ms": "ms",
    "serving.validate_ms": "ms",
    "serving.batch_wait_ms": "ms",
    "serving.batch_size": "count",
    "serving.dispatch_ms": "ms",
    "serving.cpu_ms_per_request": "ms",
    "loadgen.late_p99_ms": "ms",
    "lifecycle.publish_ms": "ms",
    "lifecycle.open_ms": "ms",
    "lifecycle.gate_ms": "ms",
    "lifecycle.flip_ms": "ms",
    "lifecycle.promoted": "count",
    "lifecycle.candidates": "count",
    "trace.overhead": "1",
    "trace.unattributed": "1",
}


def task_name(task) -> str:
    """Span-safe form of a trainer task name (``plain:LW->dst`` ->
    ``plain-LW-dst``)."""
    return task.name.replace("->", "-").replace(":", "-")


# -------------------------------------------------------------- installing


def install_training(rec) -> None:
    """Wrap the calls of training, streaming and the lifecycle."""
    import repro.core.actor as actor_mod
    import repro.core.serialize as serialize
    import repro.core.streaming as streaming
    import repro.core.trainer as trainer
    import repro.data.io as data_io
    import repro.embedding.line as line_mod
    from repro.core.drift import DriftWatchdog
    from repro.embedding.line import LineEmbedding
    from repro.graphs.builder import GraphBuilder
    from repro.hotspots.detector import HotspotDetector
    from repro.lifecycle.gate import PromotionGate
    from repro.lifecycle.manager import LifecycleManager
    from repro.lifecycle.publisher import BundlePublisher
    from repro.lifecycle.swapper import ModelSwapper

    rec.wrap(data_io, "load_corpus", "data.load_corpus")
    rec.wrap(HotspotDetector, "fit", "hotspots.fit")
    rec.wrap(HotspotDetector, "assign_spatial", "hotspots.assign")
    rec.wrap(HotspotDetector, "assign_temporal", "hotspots.assign")
    rec.wrap(GraphBuilder, "build", "graphs.build")
    rec.wrap(LineEmbedding, "fit", "embedding.line")
    for module in (trainer, line_mod, streaming):
        rec.wrap(module, "sgns_step", "embedding.sgns")
    rec.wrap(trainer, "sgns_step_bow", "embedding.sgns")
    rec.wrap(actor_mod, "initialize_from_users", "core.init")
    rec.wrap(actor_mod, "random_init", "core.init")
    rec.wrap(trainer.ActorTrainer, "__init__", "core.trainer_build")
    rec.wrap(trainer.ActorTrainer, "train", "core.train")
    for cls in (trainer.PlainEdgeTask, trainer.BagToUnitTask,
                trainer.BagToWordTask):
        rec.wrap(cls, "step", "core.task",
                 attrs=lambda task, *a, **k: {"task": task_name(task)})
    rec.wrap(streaming.OnlineActor, "partial_fit", "core.partial_fit")
    rec.wrap(streaming.RecencyBuffer, "add_edges", "core.buffer_add")
    rec.wrap(streaming.RecencyBuffer, "sample", "core.buffer_sample")
    rec.wrap(DriftWatchdog, "observe_batch", "core.drift")
    _wrap_bundles(rec, serialize)
    _wrap_storage(rec)
    rec.wrap(BundlePublisher, "publish", "lifecycle.publish")
    rec.wrap(LifecycleManager, "poll_once", "lifecycle.poll")
    rec.wrap(ModelSwapper, "open_candidate", "lifecycle.open")
    rec.wrap(PromotionGate, "evaluate", "lifecycle.gate",
             note=lambda span, d: span.attrs.update(verdict=d.verdict))
    rec.wrap(ModelSwapper, "flip", "lifecycle.flip")


def install_serving(rec) -> None:
    """Wrap the calls of a serving process (HTTP through retrieval)."""
    import repro.core.serialize as serialize
    from repro.ann.ivf import IVFIndex
    from repro.core.query_engine import QueryEngine
    from repro.lifecycle.gate import PromotionGate
    from repro.lifecycle.manager import LifecycleManager
    from repro.lifecycle.publisher import BundlePublisher
    from repro.lifecycle.swapper import ModelSwapper
    from repro.serving import http_server
    from repro.serving.batcher import RequestBatcher
    from repro.serving.service import QueryService
    from repro.sharding.engine import (
        ShardedIndexedQueryEngine,
        ShardedQueryEngine,
    )

    rec.wrap(http_server._ServeHandler, "do_POST", "serving.handler",
             request_id=lambda handler: handler.headers.get("X-Request-Id"))
    rec.wrap(QueryService, "validate_predict", "serving.validate")
    rec.wrap(QueryService, "validate_neighbors", "serving.validate")
    rec.wrap(RequestBatcher, "submit", "serving.submit")
    rec.wrap(http_server.QueryServer, "_dispatch_batch", "serving.batch",
             attrs=lambda server, requests: {"rids": [
                 ctx.request_id for ctx in
                 (server.batcher.dispatching_contexts
                  if server.batcher is not None else [])
                 if ctx is not None]})
    rec.wrap(QueryService, "dispatch", "serving.dispatch",
             attrs=lambda service, requests: {"n": len(requests)})
    rec.wrap(QueryEngine, "query_matrix", "core.embed")
    rec.wrap(QueryEngine, "score_ragged_batch", "core.score")
    rec.wrap(QueryEngine, "neighbors", "core.neighbors")
    rec.wrap(IVFIndex, "__init__", "ann.build")
    rec.wrap(IVFIndex, "search", "ann.search",
             note=lambda span, out: span.attrs.update(
                 probed=out[2].probed_rows, rows=out[2].total_rows))
    rec.wrap(ShardedQueryEngine, "neighbors", "sharding.neighbors")
    rec.wrap(ShardedIndexedQueryEngine, "neighbors", "sharding.neighbors")
    rec.wrap(ShardedIndexedQueryEngine, "search", "sharding.search")
    _wrap_scatter(rec, ShardedQueryEngine)
    _wrap_bundles(rec, serialize)
    _wrap_storage(rec)
    rec.wrap(BundlePublisher, "publish", "lifecycle.publish")
    rec.wrap(LifecycleManager, "poll_once", "lifecycle.poll")
    rec.wrap(ModelSwapper, "open_candidate", "lifecycle.open")
    rec.wrap(PromotionGate, "evaluate", "lifecycle.gate",
             note=lambda span, d: span.attrs.update(verdict=d.verdict))
    rec.wrap(ModelSwapper, "flip", "lifecycle.flip")


def _wrap_bundles(rec, serialize) -> None:
    rec.wrap(serialize, "load_bundle", "core.load_bundle")
    rec.wrap(serialize, "save_bundle", "core.save_bundle")


def _wrap_storage(rec) -> None:
    """Store growth and the normalized view, counting real rebuilds.

    ``normalized`` returns a cached matrix until the store version moves;
    a call that returns a different object than the previous call on the
    same store rebuilt it.
    """
    from repro.sharding.store import ShardedStore
    from repro.storage.base import EmbeddingStore

    last: dict = {}

    def rebuilt(span, matrix) -> None:
        key = (span.attrs.pop("store"), span.attrs["name"])
        span.attrs["rebuilt"] = last.get(key) is not matrix
        last[key] = matrix

    for cls in (EmbeddingStore, ShardedStore):
        rec.wrap(cls, "grow", "storage.grow")
        rec.wrap(cls, "normalized", "storage.normalized",
                 attrs=lambda store, name="center": {"store": id(store),
                                                     "name": name},
                 note=rebuilt)


def _wrap_scatter(rec, engine_cls) -> None:
    """Run each scatter-gather shard call under the caller's span."""
    original = engine_cls._map_shards

    def map_shards(self, fn, replicas):
        return original(self, rec.bind(fn) if rec.enabled else fn, replicas)

    engine_cls._map_shards = map_shards
    rec._patches.append((engine_cls, "_map_shards", original, True))
    rec.wrap(engine_cls, "_map_shards", "sharding.scatter")


# ---------------------------------------------------------------- analysis


def _sum_self(spans, selfs, name, **match) -> float:
    return sum(selfs[s.span_id][0] for s in spans if s.name == name
               and all(s.attrs.get(k) == v for k, v in match.items()))


def _count(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def _mean_duration(spans, name) -> float:
    found = [s.duration for s in spans if s.name == name]
    return sum(found) / len(found) if found else 0.0


def layer_metrics(spans, *, units: int, windows=(), setup_windows=(),
                  promote_windows=(), extra=None) -> dict:
    """Per-layer metrics from spans recorded during a traced run.

    ``windows`` are the measured units' ``(start, end)`` intervals and
    ``units`` their count; only spans opened inside them count toward
    per-unit figures.  ``setup_windows`` and ``promote_windows`` select
    the spans of set-up and promotion phases.  ``extra`` overrides or
    adds figures the caller measured itself (client-side serving
    metrics, overhead, unattributed share).
    """
    out = {name: 0.0 for name in PER_LAYER}
    measured = [s for lo, hi in windows for s in within(spans, lo, hi)]
    selfs = self_times(spans)
    per = 1.0 / units if units else 0.0

    def self_sum(name, **match):
        return _sum_self(measured, selfs, name, **match) * per

    out["hotspots.fit_s"] = self_sum("hotspots.fit")
    out["hotspots.assign_ms"] = self_sum("hotspots.assign") * 1e3
    out["graphs.build_s"] = self_sum("graphs.build")
    out["embedding.line_s"] = self_sum("embedding.line")
    out["embedding.sgns_s"] = self_sum("embedding.sgns")
    out["embedding.sgns_calls"] = _count(measured, "embedding.sgns") * per
    out["core.init_s"] = self_sum("core.init")
    for task in TASKS:
        out[f"core.task.{task}_s"] = self_sum("core.task", task=task)
        out[f"core.task.{task}_steps"] = per * sum(
            1 for s in measured
            if s.name == "core.task" and s.attrs.get("task") == task)
    out["core.train_overhead_s"] = self_sum("core.train")
    out["core.trainer_build_s"] = self_sum("core.trainer_build")
    out["core.embed_ms"] = self_sum("core.embed") * 1e3
    out["core.score_ms"] = self_sum("core.score") * 1e3
    out["core.neighbors_ms"] = self_sum("core.neighbors") * 1e3
    out["core.partial_fit_ms"] = self_sum("core.partial_fit") * 1e3
    out["core.buffer_add_ms"] = self_sum("core.buffer_add") * 1e3
    out["core.buffer_sample_ms"] = self_sum("core.buffer_sample") * 1e3
    out["core.drift_ms"] = self_sum("core.drift") * 1e3
    out["storage.grow_ms"] = self_sum("storage.grow") * 1e3
    out["storage.normalized_ms"] = self_sum("storage.normalized") * 1e3
    norm = [s for s in measured if s.name == "storage.normalized"]
    out["storage.normalized_calls"] = len(norm) * per
    if norm:
        out["storage.normalized_rebuild_ratio"] = (
            sum(1 for s in norm if s.attrs.get("rebuilt")) / len(norm))
    out["ann.search_ms"] = self_sum("ann.search") * 1e3
    searches = [s for s in measured if s.name == "ann.search"]
    rows = sum(s.attrs.get("rows", 0) for s in searches)
    if rows:
        out["ann.probed_fraction"] = (
            sum(s.attrs.get("probed", 0) for s in searches) / rows)
    out["sharding.neighbors_ms"] = 1e3 * (
        self_sum("sharding.neighbors") + self_sum("sharding.search")
        + self_sum("sharding.scatter"))
    out["serving.validate_ms"] = self_sum("serving.validate") * 1e3
    out["serving.dispatch_ms"] = self_sum("serving.dispatch") * 1e3
    dispatches = [s.attrs["n"] for s in measured
                  if s.name == "serving.dispatch"]
    if dispatches:
        out["serving.batch_size"] = sum(dispatches) / len(dispatches)

    setup = [s for lo, hi in setup_windows for s in within(spans, lo, hi)]
    if setup_windows:
        n_setups = len(setup_windows)
        out["core.load_bundle_ms"] = (
            1e3 * _sum_self(setup, selfs, "core.load_bundle") / n_setups)
        out["data.load_corpus_ms"] = (
            1e3 * _sum_self(setup, selfs, "data.load_corpus") / n_setups)
        out["ann.build_s"] = sum(
            s.duration for s in setup if s.name == "ann.build") / n_setups

    promote = [s for lo, hi in promote_windows for s in within(spans, lo, hi)]
    if promote_windows:
        out["lifecycle.publish_ms"] = 1e3 * _mean_duration(
            promote, "lifecycle.publish")
        out["lifecycle.open_ms"] = 1e3 * _mean_duration(
            promote, "lifecycle.open")
        out["lifecycle.gate_ms"] = 1e3 * _mean_duration(
            promote, "lifecycle.gate")
        out["lifecycle.flip_ms"] = 1e3 * _mean_duration(
            promote, "lifecycle.flip")
        gates = [s for s in promote if s.name == "lifecycle.gate"]
        out["lifecycle.candidates"] = float(len(gates))
        out["lifecycle.promoted"] = float(sum(
            1 for s in gates if s.attrs.get("verdict") == "promote"))
    out.update(extra or {})
    return out


def paired_overhead(units) -> float:
    """Tracing overhead from alternating units ``(seconds, traced)``.

    Each traced unit is compared with the untraced unit just before it,
    so a host that drifts slower or faster during the run cancels out;
    the result is the median ratio minus one.
    """
    ratios = [cur / prev for (prev, prev_traced), (cur, cur_traced)
              in zip(units, units[1:]) if cur_traced and not prev_traced]
    return median(ratios) - 1.0 if ratios else 0.0


def unattributed_share(spans, windows) -> float:
    """Share of the units' wall time no top-level layer span covers."""
    wall = sum(hi - lo for lo, hi in windows)
    if wall <= 0:
        return 0.0
    cover = 0.0
    for lo, hi in windows:
        tops = [(s.start, s.end) for s in within(spans, lo, hi)
                if s.parent is None]
        cover += covered(tops, lo, hi)
    return max(0.0, 1.0 - cover / wall)


def serving_join(spans, requests) -> dict:
    """Client/server figures for requests joined on ``X-Request-Id``.

    ``requests`` are the client's records (``rid``, ``sent``, ``done``,
    ``status``) of one phase; returns handler and transport percentiles,
    the mean batcher wait and the share of client time that no server
    span or transport estimate explains (unjoined requests).
    """
    handlers = {s.request_id: s for s in spans if s.name == "serving.handler"}
    submits = {s.request_id: s for s in spans if s.name == "serving.submit"}
    batch_of = {}
    for s in spans:
        if s.name == "serving.batch":
            for rid in s.attrs.get("rids", ()):
                batch_of[rid] = s
    handler_ms, transport_ms, waits = [], [], []
    client_total = unjoined = 0.0
    for r in requests:
        client = r["done"] - r["sent"]
        client_total += client
        span = handlers.get(r["rid"])
        if span is None:
            unjoined += client
            continue
        handler_ms.append(span.duration * 1e3)
        transport_ms.append((client - span.duration) * 1e3)
        sub, batch = submits.get(r["rid"]), batch_of.get(r["rid"])
        if sub is not None and batch is not None:
            waits.append((sub.duration - batch.duration) * 1e3)
    out = defaultdict(float)
    if handler_ms:
        out["serving.handler_p50_ms"] = percentile(handler_ms, 50)
        out["serving.handler_p99_ms"] = percentile(handler_ms, 99)
        out["serving.transport_p50_ms"] = percentile(transport_ms, 50)
        out["serving.transport_p99_ms"] = percentile(transport_ms, 99)
    if waits:
        out["serving.batch_wait_ms"] = sum(waits) / len(waits)
    out["trace.unattributed"] = (unjoined / client_total if client_total
                                 else 0.0)
    out["joined"] = len(handler_ms)
    return dict(out)


def layer_table(spans, windows, units: int) -> list[tuple]:
    """Rows ``(span, count/unit, self ms/unit, faults/unit, wait ms/unit)``.

    ``wait`` is the part of a span's duration its children cover on
    other threads — time the caller spent waiting on handed-off work.
    """
    measured = [s for lo, hi in windows for s in within(spans, lo, hi)]
    selfs = self_times(spans)
    kids = defaultdict(list)
    for s in measured:
        kids[s.parent].append(s)
    rows = defaultdict(lambda: [0, 0.0, 0, 0.0])
    for s in measured:
        key = s.name + (f"[{s.attrs['task']}]" if "task" in s.attrs else "")
        row = rows[key]
        row[0] += 1
        row[1] += selfs[s.span_id][0]
        row[2] += selfs[s.span_id][1]
        other = [(c.start, c.end) for c in kids.get(s.span_id, ())
                 if c.thread != s.thread]
        row[3] += covered(other, s.start, s.end)
    per = 1.0 / max(1, units)
    return sorted(
        ((name, n * per, t * 1e3 * per, f * per, w * 1e3 * per)
         for name, (n, t, f, w) in rows.items()),
        key=lambda row: -row[2])
