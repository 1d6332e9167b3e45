"""``repro serve``: the HTTP/JSON query-serving daemon.

:class:`QueryServer` exposes a fitted model — typically a read-only
``load_bundle(mmap=True)`` bundle — over HTTP.  It *is* a
:class:`~repro.utils.telemetry_server.TelemetryServer`: one socket, one
serve thread and one start/stop lifecycle carry both surfaces, and its
request handler is the telemetry handler plus ``do_POST``:

* ``POST /v1/predict`` — cross-modal candidate ranking: a JSON body with
  ``target``, ``candidates`` and at least one of ``time`` / ``location``
  / ``words``; returns cosine ``scores`` plus the stable descending
  ``ranking``;
* ``POST /v1/neighbors`` — per-modality nearest-neighbor search around a
  composed query vector;
* ``GET /metrics`` / ``/healthz`` / ``/varz`` / ``/debug/requests`` —
  the live telemetry endpoints, inherited from the telemetry server.

Every request is traced (``trace_requests=True``): an id from the
inbound ``X-Request-Id`` header (or freshly generated) is echoed back in
the response headers, the request's stage timings — validation, batcher
queue wait, engine snap/gather/score, ANN probe, fan-back — land in a
bounded :class:`~repro.serving.reqtrace.TraceRing` served at
``/debug/requests``, and each entry links to the batch span it rode plus
the lifecycle epoch it executed against.  An
:class:`~repro.utils.slo.SLOEngine` evaluates availability and latency
burn rates on every health scrape.

Every request rides the :class:`~repro.serving.batcher.RequestBatcher`:
handler threads park in it and execute as one vectorized
:class:`~repro.serving.service.QueryService` dispatch, with exact parity
to per-request execution.  A request that finds the batcher idle
dispatches at once; requests that arrive during a dispatch share the
next one, which starts as soon as that dispatch returns (``max_batch=1``
gives one engine call per request).  Responses leave in one write on a
no-Nagle socket (see :class:`~repro.utils.telemetry_server
.TelemetryHandler`), so no keep-alive request waits on a timer either in
the batcher or in the kernel.  Malformed bodies — including non-finite
numbers and nesting too deep to parse — are *client* errors: they return
structured 400 payloads and count under ``serve.bad_requests`` rather
than killing the handler thread or failing a whole batch with a 500.

Shutdown drains: :meth:`QueryServer.stop` stops accepting new work (late
requests get a 503), waits for in-flight handlers to finish, then drains
and joins the batcher before the socket closes.
"""

from __future__ import annotations

import json
import threading
import time

from repro.core.query_engine import QueryEngine
from repro.serving.batcher import BatcherClosed, RequestBatcher
from repro.serving.reqtrace import (
    QUEUE_WAIT_HEADER,
    REQUEST_ID_HEADER,
    RequestContext,
    TraceRing,
    request_id_from_header,
)
from repro.serving.service import BadRequest, QueryService
from repro.utils.metrics import MetricsRegistry
from repro.utils.slo import (
    SLObjective,
    SLOEngine,
    availability_source,
    latency_source,
)
from repro.utils.telemetry_server import TelemetryHandler, TelemetryServer
from repro.utils.tracing import collect_stages, stage

__all__ = ["QueryServer"]

_MAX_BODY_BYTES = 8 * 1024 * 1024


class _ServeHandler(TelemetryHandler):
    """The observability GET handler plus the query endpoints."""

    owner: "QueryServer"
    protocol_version = "HTTP/1.1"

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        """Route ``/v1/predict`` and ``/v1/neighbors``.

        Admitted requests get a :class:`~repro.serving.reqtrace
        .RequestContext` (honoring an inbound ``X-Request-Id``); the id
        and measured queue wait are echoed as response headers, non-200
        payloads additionally name the id so clients can quote it, and
        the finished context lands in the server's trace ring *before*
        the response bytes go out (a client can always find its own
        request at ``/debug/requests`` afterwards).  Each admitted
        request is the ``serve.request`` stage (the
        ``serve.request_seconds`` histogram the latency SLO reads).
        """
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        server = self.owner
        if path not in ("/v1/predict", "/v1/neighbors"):
            self._respond_json(404, {"error": f"no such endpoint: {path}"})
            return
        if not server.accepting:
            self._respond_json(503, {"error": "server is draining"})
            return
        ctx = server.new_request_context(
            path, self.headers.get(REQUEST_ID_HEADER)
        )
        with stage("serve.request", metrics=server.metrics):
            server._enter_request()
            try:
                status, payload = self._handle_query(path, ctx)
            finally:
                server._exit_request()
        headers = None
        if ctx is not None:
            if status != 200:
                payload = dict(payload)
                payload.setdefault("request_id", ctx.request_id)
            headers = {
                REQUEST_ID_HEADER: ctx.request_id,
                QUEUE_WAIT_HEADER: (
                    f"{ctx.queue_wait_seconds * 1e3:.3f}"
                ),
            }
        server.finalize_request(
            ctx,
            status,
            error=payload.get("error") if status != 200 else None,
        )
        self._respond_json(status, payload, headers=headers)

    def _handle_query(
        self, path: str, ctx: RequestContext | None
    ) -> tuple[int, dict]:
        """Validate, dispatch and shape one query request."""
        server = self.owner
        metrics = server.metrics
        validate = stage("serve.validate")
        try:
            with validate:
                body = self._read_json_body()
                if path == "/v1/predict":
                    request = server.service.validate_predict(body)
                else:
                    request = server.service.validate_neighbors(body)
        except BadRequest as exc:
            metrics.counter("serve.bad_requests").inc()
            server.logger.warning(
                "serve.bad_request", path=path, error=str(exc)
            )
            return 400, exc.to_payload()
        finally:
            if ctx is not None:
                ctx.stage("validate", validate.seconds)
        try:
            result = server.execute(request, ctx)
        except BatcherClosed:
            return 503, {"error": "server is draining"}
        except Exception as exc:  # noqa: BLE001 - must not kill thread
            metrics.counter("serve.errors").inc()
            server.logger.error(
                "serve.internal_error",
                path=path,
                request_id=ctx.request_id if ctx is not None else None,
                error=f"{type(exc).__name__}: {exc}",
            )
            return 500, {"error": "internal server error"}
        server.heartbeat()
        return 200, result

    def _read_json_body(self):
        """Read and parse the request body; malformed input is a 400."""
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header)
        except (TypeError, ValueError):
            raise BadRequest("Content-Length header is required") from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise BadRequest(
                f"request body must be 0..{_MAX_BODY_BYTES} bytes, "
                f"got {length}"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:  # also bad UTF-8 and over-long integers
            raise BadRequest(f"request body is not valid JSON: {exc}") from None
        except RecursionError:
            raise BadRequest("request body is nested too deeply") from None


class QueryServer(TelemetryServer):
    """Serve cross-modal queries over HTTP with request coalescing.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.prediction.GraphEmbeddingModel`
        (live Actor, or a ``load_bundle(mmap=True)`` QueryModel for
        zero-copy read-only serving).
    port:
        TCP port; ``0`` picks an ephemeral port (read :attr:`port` after
        :meth:`start`).
    host:
        Bind address; loopback by default.
    max_batch:
        Largest coalesced batch handed to the engine at once.
    ann:
        ``True`` serves ``/v1/neighbors`` from per-modality IVF indexes
        (:class:`~repro.ann.engine.IndexedQueryEngine`) built eagerly at
        :meth:`start` — i.e. at bundle load for ``--mmap`` serving —
        instead of dense O(V) scans.  ``/v1/predict`` (explicit
        candidate lists) keeps the exact path.  Build time lands in the
        ``ann.build_seconds`` histogram and each query's scored fraction
        in ``ann.probed_fraction``.
    ann_nlist / ann_nprobe:
        IVF shape: inverted lists per modality and cells probed per
        query (see ``docs/operations.md`` for the tuning runbook).
    metrics / logger / stale_after:
        Shared registry, structured logger, and ``/healthz`` staleness
        threshold (see :class:`~repro.utils.telemetry_server
        .TelemetryServer`).
    trace_requests:
        ``True`` (default) assigns every request an id, records its
        stage-timing breakdown in the trace ring behind
        ``/debug/requests`` and echoes ``X-Request-Id`` /
        ``X-Queue-Wait-Ms`` response headers.  ``False`` turns the whole
        request-scoped layer off (the tracing-overhead bench's
        baseline); aggregate metrics and the SLO engine keep working.
    trace_ring_size:
        Retained request entries in the trace ring.
    slo_availability_target:
        Required non-5xx fraction (default 99.9%) of the
        :class:`~repro.utils.slo.SLOEngine` evaluated on every
        ``/healthz`` / ``/varz`` scrape and exported as ``slo.*``
        metrics.
    slo_latency_target / slo_latency_threshold_ms:
        Required fraction of requests (default 99%) served within the
        threshold (default 250ms), read from the ``serve.request_seconds``
        log-spaced histogram.
    """

    handler_class = _ServeHandler
    thread_name = "repro-query-server"
    started_event = "serve.started"
    stopped_event = "serve.stopped"

    def __init__(
        self,
        model,
        *,
        port: int = 0,
        host: str = "127.0.0.1",
        max_batch: int = 64,
        ann: bool = False,
        ann_nlist: int = 256,
        ann_nprobe: int = 8,
        metrics: MetricsRegistry | None = None,
        logger=None,
        stale_after: float | None = None,
        trace_requests: bool = True,
        trace_ring_size: int = 256,
        slo_availability_target: float = 0.999,
        slo_latency_target: float = 0.99,
        slo_latency_threshold_ms: float = 250.0,
    ) -> None:
        super().__init__(
            metrics if metrics is not None else MetricsRegistry(),
            port=port,
            host=host,
            logger=logger,
            stale_after=stale_after,
            trace_ring=(
                TraceRing(int(trace_ring_size)) if trace_requests else None
            ),
        )
        self.ann = bool(ann)
        self.ann_nlist = int(ann_nlist)
        self.ann_nprobe = int(ann_nprobe)
        self.model = model
        self.engine = self.build_engine(model)
        if self.ann:
            self.metrics.gauge("ann.nlist").set(ann_nlist)
            self.metrics.gauge("ann.nprobe").set(ann_nprobe)
        self.service = QueryService(
            model, engine=self.engine, metrics=self.metrics
        )
        self.max_batch = int(max_batch)
        self.batcher: RequestBatcher | None = None
        self.slo_engine = SLOEngine(self.metrics)
        self.slo_engine.add_objective(
            SLObjective(
                "availability",
                target=slo_availability_target,
                description="non-5xx fraction of admitted requests",
            ),
            availability_source(self.metrics),
        )
        threshold = float(slo_latency_threshold_ms) / 1e3
        self.slo_engine.add_objective(
            SLObjective(
                "latency",
                target=slo_latency_target,
                threshold=threshold,
                description=(
                    f"requests served within {slo_latency_threshold_ms:g}ms"
                ),
            ),
            latency_source(self.metrics, threshold=threshold),
        )
        self.active_epoch = 0
        self._lifecycle_state = None
        self.add_status_provider(self._serving_status)
        self.add_status_provider(self.slo_engine.status)
        self._accepting = False
        self._inflight = 0
        self._inflight_cond = threading.Condition()

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "QueryServer":
        """Warm the engine and open the batcher, then bind and serve.

        Both happen before the socket exists, so no request can find
        the server half started.
        """
        if self.running:
            raise RuntimeError("QueryServer already started")
        self.warm_engine(self.engine)
        # The batcher gets the trampoline, not a bound dispatch: reading
        # self.service per batch is what lets swap_model retarget
        # in-flight coalescing without restarting it.
        self.batcher = RequestBatcher(
            self._dispatch_batch,
            max_batch=self.max_batch,
            metrics=self.metrics,
        )
        self._accepting = True
        try:
            return super().start()
        except BaseException:
            self.stop()
            raise

    def stop(self, *, drain_timeout: float = 10.0) -> None:
        """Graceful shutdown: refuse new work, drain in-flight, join.

        In-flight requests (including ones parked in the batcher) run to
        completion within ``drain_timeout`` seconds; requests arriving
        after the drain began receive a 503.  Idempotent.
        """
        self._accepting = False
        with self._inflight_cond:
            self._inflight_cond.wait_for(
                lambda: self._inflight == 0, timeout=drain_timeout
            )
        if self.batcher is not None:
            self.batcher.close(timeout=drain_timeout)
            self.batcher = None
        super().stop()

    @property
    def accepting(self) -> bool:
        """Whether new query requests are admitted (False while draining)."""
        return self._accepting

    # ------------------------------------------------------------ generations

    def shards_for(self, model) -> int:
        """The shard count of the store behind ``model`` (1 if unsharded).

        Serving never depends on it — a sharded store's ``center`` is
        the assembled global-order matrix, so the standard engines rank
        exactly as over an unsharded export — but re-publishing a served
        model keeps its bundle layout with it.
        """
        store = _sharded_store(model)
        return store.n_shards if store is not None else 1

    def build_engine(self, model):
        """A query engine over ``model`` matching this server's config.

        ANN servers get an :class:`~repro.ann.engine.IndexedQueryEngine`
        with the same ``(nlist, nprobe)`` shape; the lifecycle layer uses
        this to open green candidate bundles identically to the blue one.
        Sharded (format-v3) models get the same engines as unsharded
        ones, over the store's assembled matrix — with ``ann``, one IVF
        index per modality whatever the shard count.
        """
        if self.ann:
            from repro.ann import IndexedQueryEngine

            return IndexedQueryEngine(
                model,
                nlist=self.ann_nlist,
                nprobe=self.ann_nprobe,
                metrics=self.metrics,
            )
        return QueryEngine(model, metrics=self.metrics)

    def warm_engine(self, engine) -> None:
        """Build every ANN modality index of ``engine`` up front.

        Runs at :meth:`start` (bundle load for mmap serving) and again
        for each green candidate the lifecycle layer opens — always off
        the serving path, so the first neighbor query (and the atomic
        swap) never pays an index build.  Empty modalities fall back to
        the exact scan; non-ANN servers are a no-op.
        """
        if not self.ann:
            return
        from repro.ann import ANN_MODALITIES

        for modality in ANN_MODALITIES:
            if engine.model.modality_cache(modality).keys:
                engine.index_for(modality)

    def swap_model(self, model, engine, service) -> None:
        """Atomically retarget serving onto a new model generation.

        The single ``self.service`` rebind is the linearization point:
        the batcher trampoline reads it exactly once per dispatch (atomic
        under the GIL), so every batch executes entirely against one
        generation — no torn reads.  The ``model`` / ``engine`` attrs
        follow for telemetry and later swaps; requests already validated
        against the old service dispatch fine on the new one (validation
        is model-independent).
        """
        self.service = service
        self.model = model
        self.engine = engine
        self.logger.info("serve.model_swapped")

    # ----------------------------------------------------------- request trace

    def new_request_context(self, endpoint: str, header_value: str | None):
        """A :class:`~repro.serving.reqtrace.RequestContext` for one
        admitted request — or ``None`` when request tracing is off.

        ``header_value`` is the raw inbound ``X-Request-Id`` (honored
        when usable, replaced by a generated id otherwise).
        """
        if self.trace_ring is None:
            return None
        return RequestContext(
            request_id_from_header(header_value), endpoint
        )

    def lifecycle_info(self) -> dict:
        """The lifecycle context stamped on trace entries.

        ``epoch`` is the generation currently serving (0 before any
        lifecycle management); ``swap_in_progress`` is true while the
        bound :class:`~repro.lifecycle.manager.LifecycleManager` is
        mid-decision (gating / promoting / rolling back), which is
        exactly when a tail spike should be attributed to the lifecycle
        rather than to traffic.
        """
        state_fn = self._lifecycle_state
        state = state_fn() if state_fn is not None else "idle"
        return {
            "epoch": self.active_epoch,
            "state": state,
            "swap_in_progress": state != "idle",
        }

    def bind_lifecycle(self, state_fn) -> None:
        """Register the lifecycle manager's state callable (see
        :meth:`lifecycle_info`); called by ``LifecycleManager``."""
        self._lifecycle_state = state_fn

    def finalize_request(
        self, ctx, status: int, *, error: str | None = None
    ) -> None:
        """Account one finished request: SLO counters + trace ring entry.

        Runs for every admitted request whether or not it was traced
        (``ctx`` may be ``None``), so the SLO sources see identical
        traffic with tracing on or off; the request's
        ``serve.request`` stage has already recorded its latency.
        """
        self.metrics.counter("serve.responses").inc()
        if status >= 500:
            self.metrics.counter("serve.responses_5xx").inc()
        if ctx is None or self.trace_ring is None:
            return
        ctx.lifecycle = self.lifecycle_info()
        ctx.finish(status, error=error)
        self.trace_ring.record(ctx.to_entry())

    # -------------------------------------------------------------- execution

    def _dispatch_batch(self, requests):
        """Batcher trampoline: dispatch on the *current* service.

        Reads ``self.service`` once per batch so a concurrent
        :meth:`swap_model` either lands before this batch (all requests
        see the new generation) or after it (all see the old) — never
        mid-batch.
        """
        service = self.service
        batcher = self.batcher
        ctxs = (
            batcher.dispatching_contexts if batcher is not None else []
        )
        if self.trace_ring is None or not any(
            ctx is not None for ctx in ctxs
        ):
            return service.dispatch(requests)
        return self._traced_dispatch(service, requests, ctxs)

    def _traced_dispatch(self, service, requests, ctxs):
        """Dispatch with engine-stage collection and a batch trace entry.

        Wraps the service dispatch in a
        :func:`~repro.utils.tracing.collect_stages` sink, then fans the
        measured snap / gather / score / ANN timings out to every linked
        request context and records one batch entry in the trace ring —
        ``links`` lists the request ids it served.  The entry is recorded
        even when the dispatch raises (with the error attached), so
        errored requests still resolve to their batch.
        """
        dispatch = stage("serve.dispatch")
        error = None
        stages: dict = {}
        try:
            with collect_stages() as stages, dispatch:
                return service.dispatch(requests)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            seconds = dispatch.seconds
            values = stages.pop("values", {})
            linked = [ctx for ctx in ctxs if ctx is not None]
            for ctx in linked:
                ctx.dispatch_seconds = seconds
                for name, stage_seconds in stages.items():
                    ctx.stage(name, stage_seconds)
                for key, value in values.items():
                    ctx.note(key, value)
            entry = {
                "kind": "batch",
                "id": linked[0].batch_id if linked else None,
                "ts": time.time(),
                "size": len(requests),
                "coalesced": len(requests) > 1,
                "dispatch_ms": round(seconds * 1e3, 3),
                "stages_ms": {
                    name: round(stage_seconds * 1e3, 3)
                    for name, stage_seconds in sorted(stages.items())
                },
                "links": [ctx.request_id for ctx in linked],
            }
            if values:
                entry["values"] = values
            if error is not None:
                entry["error"] = error
            self.trace_ring.record_batch(entry)

    def execute(self, request, ctx=None) -> dict:
        """Run one typed request through the batcher; returns its body.

        ``ctx`` (optional) is the request's trace context, which the
        batcher links to the batch span the request rides.  Raises
        :class:`~repro.serving.batcher.BatcherClosed` unless the server
        is running.
        """
        batcher = self.batcher
        if batcher is None:
            raise BatcherClosed("query server is not running")
        return batcher.submit(request, ctx=ctx)

    def _enter_request(self) -> None:
        """Count one handler thread into the in-flight drain barrier."""
        with self._inflight_cond:
            self._inflight += 1

    def _exit_request(self) -> None:
        """Count one handler thread out of the in-flight drain barrier."""
        with self._inflight_cond:
            self._inflight -= 1
            self._inflight_cond.notify_all()

    def _serving_status(self) -> dict:
        """Status-provider payload merged into ``/healthz`` and ``/varz``."""
        batcher = self.batcher
        ring = self.trace_ring
        status = {
            "serving": {
                "accepting": self._accepting,
                "inflight": self._inflight,
                "ann": self.ann,
                "batcher_depth": batcher.depth if batcher is not None else 0,
                "trace_requests": ring is not None,
                "traced_requests": ring.recorded if ring is not None else 0,
                "active_epoch": self.active_epoch,
            }
        }
        if self.ann:
            status["ann"] = self.engine.ann_status()
        store = _sharded_store(self.model)
        if store is not None:
            status["sharding"] = {
                "n_shards": store.n_shards,
                "partitioner": store.partitioner.name,
            }
        return status


def _sharded_store(model):
    """The :class:`~repro.sharding.ShardedStore` behind ``model``, if any."""
    from repro.sharding import ShardedStore

    store = getattr(model, "_store", None) or getattr(model, "store", None)
    return store if isinstance(store, ShardedStore) else None
