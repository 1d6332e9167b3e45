"""Tests for the live telemetry HTTP server (/metrics /healthz /varz)."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.utils.logging import StructuredLogger
from repro.utils.metrics import MetricsRegistry
from repro.utils.telemetry_server import TelemetryServer


def _get(url: str):
    """GET ``url``; returns (status, content_type, body_text)."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return (
                response.status,
                response.headers.get("Content-Type"),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type"), err.read().decode(
            "utf-8"
        )


@pytest.fixture()
def registry():
    reg = MetricsRegistry()
    reg.counter("stream.records").inc(5)
    reg.gauge("buffer.occupancy").set(0.5)
    return reg


class TestLifecycle:
    def test_ephemeral_port_and_url(self, registry):
        with TelemetryServer(registry) as server:
            assert server.running
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"
        assert not server.running

    def test_double_start_rejected(self, registry):
        with TelemetryServer(registry) as server:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()

    def test_stop_is_idempotent(self, registry):
        server = TelemetryServer(registry).start()
        server.stop()
        server.stop()

    def test_stop_right_after_start_is_prompt(self, registry):
        # shutdown() waits for serve_forever's next poll; the stdlib
        # default of 0.5 s made every stop() of an idle server ~0.45 s.
        server = TelemetryServer(registry).start()
        began = time.perf_counter()
        server.stop()
        assert time.perf_counter() - began < 0.25
        assert not server.running

    def test_invalid_stale_after_rejected(self, registry):
        with pytest.raises(ValueError, match="stale_after"):
            TelemetryServer(registry, stale_after=0)


class TestMetricsEndpoint:
    def test_prometheus_text_and_content_type(self, registry):
        with TelemetryServer(registry) as server:
            status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert ctype == "text/plain; version=0.0.4; charset=utf-8"
        assert "repro_stream_records_total 5" in body
        assert "repro_buffer_occupancy 0.5" in body

    def test_scrapes_see_live_updates(self, registry):
        with TelemetryServer(registry) as server:
            _status, _ctype, first = _get(server.url + "/metrics")
            registry.counter("stream.records").inc(7)
            _status, _ctype, second = _get(server.url + "/metrics")
        assert "repro_stream_records_total 5" in first
        assert "repro_stream_records_total 12" in second

    def test_empty_registry_scrape_is_newline_terminated(self):
        """A scrape racing the first metric creation stays well-formed.

        Regression: scrapers attach before the first batch is ingested,
        so the registry can still be empty; the exposition must end in a
        line feed even then (a bare 200 with an empty body is what the
        live-scrape drift test intermittently tripped over).
        """
        with TelemetryServer(MetricsRegistry()) as server:
            status, _ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert body.endswith("\n")

    def test_unknown_path_is_404(self, registry):
        with TelemetryServer(registry) as server:
            status, _ctype, body = _get(server.url + "/nope")
        assert status == 404
        assert "no such endpoint" in body


class TestHealthz:
    def test_healthy_by_default(self, registry):
        with TelemetryServer(registry) as server:
            server.heartbeat()
            status, _ctype, body = _get(server.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0
        assert payload["heartbeat_age_seconds"] is not None

    def test_stale_heartbeat_degrades_to_503(self, registry):
        with TelemetryServer(registry, stale_after=1e-9) as server:
            server.heartbeat()
            status, _ctype, body = _get(server.url + "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "stale"

    def test_provider_status_worst_wins(self, registry):
        with TelemetryServer(registry) as server:
            server.add_status_provider(lambda: {"status": "ok", "a": 1})
            server.add_status_provider(
                lambda: {"status": "alerting", "drift": {"alerts": 2}}
            )
            status, _ctype, body = _get(server.url + "/healthz")
        payload = json.loads(body)
        assert status == 503
        assert payload["status"] == "alerting"
        assert payload["a"] == 1
        assert payload["drift"] == {"alerts": 2}

    def test_alerting_outranks_stale(self, registry):
        with TelemetryServer(registry, stale_after=1e-9) as server:
            server.heartbeat()
            server.add_status_provider(lambda: {"status": "alerting"})
            _status, _ctype, body = _get(server.url + "/healthz")
        assert json.loads(body)["status"] == "alerting"


class TestVarz:
    def test_varz_exposes_raw_state(self, registry):
        logger = StructuredLogger()
        logger.info("hello", n=1)
        with TelemetryServer(registry, logger=logger) as server:
            server.add_status_provider(lambda: {"extra": "state"})
            status, ctype, body = _get(server.url + "/varz")
        payload = json.loads(body)
        assert status == 200
        assert ctype == "application/json; charset=utf-8"
        assert payload["metrics"]["counters"]["stream.records"] == 5
        assert set(payload) == {
            "uptime_seconds", "heartbeat_age_seconds", "metrics",
            "recent_logs", "extra",
        }
        assert payload["recent_logs"][0]["event"] == "hello"
        assert payload["extra"] == "state"


class TestConcurrency:
    def test_parallel_scrapes_during_metric_churn(self, registry):
        """Scrapes racing metric creation/updates must never error."""
        stop = threading.Event()
        errors: list[Exception] = []

        def churn():
            i = 0
            while not stop.is_set():
                registry.counter(f"churn.c{i % 50}").inc()
                registry.histogram(f"churn.h{i % 50}").observe(i * 0.001)
                registry.gauge("churn.level").set(i)
                i += 1

        def scrape(server):
            while not stop.is_set():
                try:
                    status, _ctype, body = _get(server.url + "/metrics")
                    assert status == 200
                    assert body.endswith("\n")
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return
                stop.wait(0.01)

        with TelemetryServer(registry) as server:
            threads = [threading.Thread(target=churn)] + [
                threading.Thread(target=scrape, args=(server,))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            import time

            time.sleep(0.5)
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert errors == []


class TestHandlerErrors:
    def test_handler_exception_is_logged_and_counted(self, registry, capfd):
        """A request thread's exception never reaches stderr raw."""
        logger = StructuredLogger()

        def broken() -> dict:
            raise RuntimeError("provider failed")

        counter = registry.counter("http.handler_errors")
        with TelemetryServer(registry, logger=logger) as server:
            server.add_status_provider(broken)
            with pytest.raises((urllib.error.URLError, ConnectionError)):
                urllib.request.urlopen(server.url + "/healthz", timeout=30)
            deadline = time.monotonic() + 10.0
            while counter.value < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert counter.value == 1
        events = [r for r in logger.recent if r["event"] == "http.handler_error"]
        assert len(events) == 1
        assert events[0]["level"] == "warning"
        assert events[0]["error"] == "RuntimeError"
        assert events[0]["client"].startswith("127.0.0.1:")
        assert capfd.readouterr().err == ""
