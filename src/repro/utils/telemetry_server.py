"""Live telemetry HTTP service: ``/metrics``, ``/healthz``, ``/varz``.

PR 3's telemetry is post-mortem — ``metrics.prom`` written once at process
exit.  :class:`TelemetryServer` turns the same in-process state into a
*live* service: a stdlib :class:`~http.server.ThreadingHTTPServer` running
on a daemon thread, rendering the **current**
:class:`~repro.utils.metrics.MetricsRegistry` on every scrape, so a
Prometheus agent pointed at ``/metrics`` watches a streaming deployment
degrade (or recover) in real time instead of reading its obituary.

Endpoints:

* ``GET /metrics`` — Prometheus text exposition format (0.0.4), rendered
  from the live registry at request time;
* ``GET /healthz`` — JSON liveness summary: uptime, heartbeat age
  (:meth:`TelemetryServer.heartbeat` is called once per ingested batch),
  and whatever the registered status providers report (buffer occupancy,
  drift watchdog status); overall ``"status"`` is the worst across
  sources (``ok`` < ``stale`` < ``alerting``);
* ``GET /varz`` — raw JSON debug snapshot: the full registry
  ``snapshot()``, recent slow queries, recent log records, provider
  state.

The server binds ``127.0.0.1`` by default and supports ``port=0`` for an
ephemeral port (tests); the bound port is exposed as
:attr:`TelemetryServer.port` after :meth:`start`.  Registry reads are safe
against concurrent metric creation because
:class:`~repro.utils.metrics.MetricsRegistry` locks its export surface.

Usage::

    server = TelemetryServer(metrics, tracer=tracer)
    server.add_status_provider(watchdog.status)
    with server:                      # start() / stop()
        for batch in stream:
            model.partial_fit(batch)
            server.heartbeat()
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.utils.metrics import MetricsRegistry
from repro.utils.telemetry import render_prometheus

__all__ = ["TelemetryServer"]

# healthz status severity order; providers may report any of these.
_STATUS_RANK = {"ok": 0, "stale": 1, "alerting": 2}

#: ``serve_forever``'s poll interval: how long ``stop()`` can wait in
#: ``shutdown()`` (the stdlib default is 0.5 s).
SHUTDOWN_POLL_SECONDS = 0.05


class TelemetryHandler(BaseHTTPRequestHandler):
    """Request handler bound to the owning :class:`TelemetryServer`.

    The query-serving daemon's handler subclasses it, adding only its
    ``POST`` endpoints.
    """

    # Built once per server via type(); the server injects its renderer.
    telemetry: "TelemetryServer"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        """Route ``/metrics`` / ``/healthz`` / ``/varz``; 404 otherwise."""
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        rendered = self.telemetry.respond_get(path)
        if rendered is None:
            self._respond_json(404, {"error": f"no such endpoint: {path}"})
            return
        status, body, content_type = rendered
        self._respond(status, body, content_type)

    def _respond(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict | None = None,
    ) -> None:
        """Send one complete response (plus optional extra headers)."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        """Send ``payload`` as a JSON response."""
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._respond(
            status, body, "application/json; charset=utf-8", headers
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Route access logs to the structured logger instead of stderr."""
        logger = self.telemetry.logger
        if logger is not None:
            logger.debug("telemetry.request", detail=format % args)


class TelemetryServer:
    """Serve live metrics/health/debug state over HTTP from a daemon thread.

    Parameters
    ----------
    registry:
        The live :class:`~repro.utils.metrics.MetricsRegistry` to render on
        every ``/metrics`` scrape.
    port:
        TCP port to bind; ``0`` picks an ephemeral port (read
        :attr:`port` after :meth:`start`).
    host:
        Bind address; loopback by default — front with a real proxy to
        expose it beyond the machine.
    slow_queries:
        Optional live slow-query container (e.g.
        :attr:`repro.core.query_engine.QueryEngine.slow_queries`); included
        in ``/varz``.
    logger:
        Optional :class:`~repro.utils.logging.StructuredLogger`; access
        logs become ``debug`` records and its recent tail appears in
        ``/varz``.
    stale_after:
        Heartbeat age in seconds beyond which ``/healthz`` degrades to
        ``"stale"`` (HTTP 503); ``None`` disables staleness checking.
    namespace:
        Prometheus metric namespace (see
        :func:`~repro.utils.telemetry.prometheus_name`).
    trace_ring:
        Optional :class:`~repro.serving.reqtrace.TraceRing`; when set, a
        fourth endpoint ``GET /debug/requests`` serves its snapshot —
        recent / slowest / errored request entries with full stage
        breakdowns plus the batch spans they link to.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        port: int = 0,
        host: str = "127.0.0.1",
        slow_queries=None,
        logger=None,
        stale_after: float | None = None,
        namespace: str = "repro",
        trace_ring=None,
    ) -> None:
        if stale_after is not None and stale_after <= 0:
            raise ValueError(f"stale_after must be > 0, got {stale_after}")
        self.registry = registry
        self.requested_port = int(port)
        self.host = host
        self.slow_queries = slow_queries
        self.logger = logger
        self.stale_after = stale_after
        self.namespace = namespace
        self.trace_ring = trace_ring
        self._status_providers: list = []
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_monotonic: float | None = None
        self._started_wall: float | None = None
        self._last_heartbeat: float | None = None
        self.scrapes = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "TelemetryServer":
        """Bind the socket and serve from a daemon thread; returns self."""
        if self._httpd is not None:
            raise RuntimeError("telemetry server already started")
        handler = type("BoundHandler", (TelemetryHandler,), {"telemetry": self})
        self._httpd = ThreadingHTTPServer(
            (self.host, self.requested_port), handler
        )
        self._httpd.daemon_threads = True
        self.mark_started()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": SHUTDOWN_POLL_SECONDS},
            name="repro-telemetry-server",
            daemon=True,
        )
        self._thread.start()
        if self.logger is not None:
            self.logger.info(
                "telemetry.server_started", host=self.host, port=self.port
            )
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None
        if self.logger is not None:
            self.logger.info("telemetry.server_stopped")

    def __enter__(self) -> "TelemetryServer":
        """Context-manager entry: :meth:`start`."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`stop`."""
        self.stop()

    @property
    def running(self) -> bool:
        """Whether the server thread is currently serving."""
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ephemeral ``port=0`` bindings)."""
        if self._httpd is None:
            return self.requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def mark_started(self) -> None:
        """Stamp the uptime/started clocks without binding a socket.

        :meth:`start` calls this; embedding hosts (the query-serving
        daemon routes its ``GET`` endpoints through :meth:`respond_get`
        on its own socket) call it directly so ``/healthz`` uptime tracks
        *their* start instead of staying at zero.
        """
        self._started_monotonic = time.monotonic()
        self._started_wall = time.time()

    # ------------------------------------------------------------- liveness

    def heartbeat(self) -> None:
        """Mark forward progress (call once per ingested batch / epoch)."""
        self._last_heartbeat = time.monotonic()

    def heartbeat_age(self) -> float | None:
        """Seconds since the last :meth:`heartbeat`; ``None`` if never."""
        if self._last_heartbeat is None:
            return None
        return time.monotonic() - self._last_heartbeat

    def uptime(self) -> float:
        """Seconds since :meth:`start` (0 before the server starts)."""
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def add_status_provider(self, provider) -> None:
        """Register a zero-arg callable returning a JSON-safe dict.

        Provider dicts are merged into ``/healthz`` and ``/varz``; a
        ``"status"`` key participates in the overall health verdict
        (worst wins).
        """
        self._status_providers.append(provider)

    # ------------------------------------------------------------- rendering

    def render_metrics(self) -> str:
        """The live registry in Prometheus text format (one scrape).

        Always newline-terminated: a scrape can race the creation of the
        very first metric (scrapers attach before the first batch is
        ingested), and the exposition format requires the body to end in
        a line feed even when there are no samples yet.
        """
        self.scrapes += 1
        rendered = render_prometheus(self.registry, namespace=self.namespace)
        return rendered if rendered.endswith("\n") else rendered + "\n"

    def respond_get(self, path: str) -> tuple[int, bytes, str] | None:
        """Render one observability GET endpoint for an HTTP handler.

        ``path`` must already be query-string-stripped and
        trailing-slash-normalized.  Returns ``(status, body,
        content_type)`` for ``/metrics`` / ``/healthz`` / ``/varz`` and
        ``None`` for any other path — the seam that lets other HTTP
        servers (the query-serving daemon) mount the same endpoints on
        their own socket instead of running a second server.
        """
        if path == "/metrics":
            return (
                200,
                self.render_metrics().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/healthz":
            payload = self.health()
            status = 200 if payload["status"] == "ok" else 503
            return (
                status,
                json.dumps(payload, sort_keys=True).encode("utf-8"),
                "application/json; charset=utf-8",
            )
        if path == "/varz":
            return (
                200,
                json.dumps(self.varz(), sort_keys=True).encode("utf-8"),
                "application/json; charset=utf-8",
            )
        if path == "/debug/requests" and self.trace_ring is not None:
            payload = self.trace_ring.snapshot()
            return (
                200,
                json.dumps(payload, sort_keys=True).encode("utf-8"),
                "application/json; charset=utf-8",
            )
        return None

    def _provider_state(self) -> tuple[str, dict]:
        """Collect provider dicts; returns (worst status, merged state)."""
        status = "ok"
        merged: dict = {}
        for provider in self._status_providers:
            state = provider()
            if not isinstance(state, dict):
                continue
            reported = state.get("status")
            if (
                reported in _STATUS_RANK
                and _STATUS_RANK[reported] > _STATUS_RANK[status]
            ):
                status = reported
            for key, value in state.items():
                if key != "status":
                    merged[key] = value
        return status, merged

    def health(self) -> dict:
        """The ``/healthz`` payload: liveness + provider status."""
        status, merged = self._provider_state()
        age = self.heartbeat_age()
        if (
            self.stale_after is not None
            and age is not None
            and age > self.stale_after
            and _STATUS_RANK[status] < _STATUS_RANK["stale"]
        ):
            status = "stale"
        payload = {
            "status": status,
            "uptime_seconds": round(self.uptime(), 3),
            "started_at": self._started_wall,
            "heartbeat_age_seconds": (
                None if age is None else round(age, 3)
            ),
            "scrapes": self.scrapes,
        }
        payload.update(merged)
        return payload

    def varz(self) -> dict:
        """The ``/varz`` payload: raw JSON snapshot of everything live."""
        _status, merged = self._provider_state()
        payload = {
            "uptime_seconds": round(self.uptime(), 3),
            "heartbeat_age_seconds": self.heartbeat_age(),
            "metrics": self.registry.snapshot(),
            "slow_queries": (
                list(self.slow_queries)
                if self.slow_queries is not None
                else []
            ),
            "recent_logs": (
                list(self.logger.recent)
                if self.logger is not None
                and hasattr(self.logger, "recent")
                else []
            ),
        }
        payload.update(merged)
        return payload
