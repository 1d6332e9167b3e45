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
  ``snapshot()``, recent log records, provider state.

It is the package's one HTTP host: the query-serving daemon
(:class:`~repro.serving.http_server.QueryServer`) subclasses it and its
handler, adding the ``POST`` query endpoints.  Every response leaves in
one write on a socket with Nagle's algorithm off, so no keep-alive
request waits on the client's delayed-ACK timer.

The server binds ``127.0.0.1`` by default and supports ``port=0`` for an
ephemeral port (tests); the bound port is exposed as
:attr:`TelemetryServer.port` after :meth:`start`.  Registry reads are safe
against concurrent metric creation because
:class:`~repro.utils.metrics.MetricsRegistry` locks its export surface.

Usage::

    server = TelemetryServer(metrics, logger=logger)
    server.add_status_provider(watchdog.status)
    with server:                      # start() / stop()
        for batch in stream:
            model.partial_fit(batch)
            server.heartbeat()
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.utils.logging import NULL_LOGGER
from repro.utils.metrics import MetricsRegistry
from repro.utils.telemetry import render_prometheus

__all__ = ["TelemetryServer"]

# healthz status severity order; providers may report any of these.
_STATUS_RANK = {"ok": 0, "stale": 1, "alerting": 2}

#: ``serve_forever``'s poll interval: how long ``stop()`` can wait in
#: ``shutdown()`` (the stdlib default is 0.5 s).
SHUTDOWN_POLL_SECONDS = 0.05


class _HTTPServer(ThreadingHTTPServer):
    """The socket and handler threads behind one :class:`TelemetryServer`.

    The backlog is sized for client bursts: the stdlib default
    ``request_queue_size`` of 5 drops connections (ECONNRESET on the
    client) the moment a burst of concurrent clients connects at once.
    """

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, owner: "TelemetryServer") -> None:
        self.owner = owner
        super().__init__(
            (owner.host, owner.requested_port), owner.handler_class
        )

    def handle_error(self, request, client_address) -> None:
        """Log and count a handler thread's exception instead of printing it.

        The stdlib default writes a raw traceback to stderr, outside the
        structured logger and every metric (a client that closed its
        connection before reading the response raised
        ``ConnectionResetError`` there).  Here it is one
        ``http.handler_error`` warning naming the client address and the
        exception type, counted in ``http.handler_errors``.
        """
        owner = self.owner
        owner.logger.warning(
            "http.handler_error",
            client=f"{client_address[0]}:{client_address[1]}",
            error=type(sys.exc_info()[1]).__name__,
        )
        owner.metrics.counter("http.handler_errors").inc()


class TelemetryHandler(BaseHTTPRequestHandler):
    """Request handler serving the owning server's GET endpoints.

    The query-serving daemon's handler subclasses it, adding only its
    ``POST`` endpoints.  ``TCP_NODELAY`` is set on every accepted socket:
    with Nagle's algorithm on, a segment written while an earlier one is
    unacknowledged waits for the client's delayed ACK (~40 ms), which a
    keep-alive client paid on every request.
    """

    server: _HTTPServer
    disable_nagle_algorithm = True

    @property
    def owner(self) -> "TelemetryServer":
        """The :class:`TelemetryServer` this request was accepted by."""
        return self.server.owner

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        """Route ``/metrics`` / ``/healthz`` / ``/varz``; 404 otherwise.

        ``/debug/requests`` is routed too when a trace ring is attached.
        """
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        owner = self.owner
        if path == "/metrics":
            body = owner.render_metrics().encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
            self._respond(200, body, content_type)
            return
        status = 200
        if path == "/healthz":
            payload = owner.health()
            if payload["status"] != "ok":
                status = 503
        elif path == "/varz":
            payload = owner.varz()
        elif path == "/debug/requests" and owner.trace_ring is not None:
            payload = owner.trace_ring.snapshot()
        else:
            status, payload = 404, {"error": f"no such endpoint: {path}"}
        self._respond_json(status, payload)

    def _respond(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict | None = None,
    ) -> None:
        """Send one complete response (plus optional extra headers).

        The status line, headers and body go out in one write, where
        ``end_headers()`` would send the buffered head on its own and
        the body in a second segment behind it.
        """
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        # The stdlib buffers the head here; an HTTP/0.9 request has none.
        head = getattr(self, "_headers_buffer", None)
        self._headers_buffer = []
        if head:
            body = b"".join([*head, b"\r\n", body])
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
        self.owner.logger.debug("telemetry.request", detail=format % args)


class TelemetryServer:
    """Serve live metrics/health/debug state over HTTP from a daemon thread.

    Parameters
    ----------
    metrics:
        The live :class:`~repro.utils.metrics.MetricsRegistry` to render on
        every ``/metrics`` scrape.
    port:
        TCP port to bind; ``0`` picks an ephemeral port (read
        :attr:`port` after :meth:`start`).
    host:
        Bind address; loopback by default — front with a real proxy to
        expose it beyond the machine.
    logger:
        Optional :class:`~repro.utils.logging.StructuredLogger`; access
        logs become ``debug`` records and its recent tail appears in
        ``/varz``.
    stale_after:
        Heartbeat age in seconds beyond which ``/healthz`` degrades to
        ``"stale"`` (HTTP 503); ``None`` disables staleness checking.
    trace_ring:
        Optional :class:`~repro.serving.reqtrace.TraceRing`; when set, a
        fourth endpoint ``GET /debug/requests`` serves its snapshot —
        recent / slowest / errored request entries with full stage
        breakdowns plus the batch spans they link to.
    """

    #: Handler class the socket serves with; subclasses add routes.
    handler_class: type[TelemetryHandler] = TelemetryHandler
    #: Name of the serve thread and the log events around its life.
    thread_name = "repro-telemetry-server"
    started_event = "telemetry.server_started"
    stopped_event = "telemetry.server_stopped"

    def __init__(
        self,
        metrics: MetricsRegistry,
        *,
        port: int = 0,
        host: str = "127.0.0.1",
        logger=None,
        stale_after: float | None = None,
        trace_ring=None,
    ) -> None:
        if stale_after is not None and stale_after <= 0:
            raise ValueError(f"stale_after must be > 0, got {stale_after}")
        self.metrics = metrics
        self.requested_port = int(port)
        self.host = host
        self.logger = logger if logger is not None else NULL_LOGGER
        self.stale_after = stale_after
        self.trace_ring = trace_ring
        self._status_providers: list = []
        self._httpd: _HTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_monotonic: float | None = None
        self._started_wall: float | None = None
        self._last_heartbeat: float | None = None
        self.scrapes = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "TelemetryServer":
        """Bind the socket and serve from a daemon thread; returns self."""
        if self._httpd is not None:
            raise RuntimeError(f"{type(self).__name__} already started")
        self._httpd = _HTTPServer(self)
        self._started_monotonic = time.monotonic()
        self._started_wall = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": SHUTDOWN_POLL_SECONDS},
            name=self.thread_name,
            daemon=True,
        )
        self._thread.start()
        self.logger.info(self.started_event, host=self.host, port=self.port)
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None
        self.logger.info(self.stopped_event)

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
        rendered = render_prometheus(self.metrics)
        return rendered if rendered.endswith("\n") else rendered + "\n"

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
            "metrics": self.metrics.snapshot(),
            "recent_logs": list(getattr(self.logger, "recent", ())),
        }
        payload.update(merged)
        return payload
