"""The open loop against a local stand-in server: segments and headers."""

import http.server
import threading

import pytest

import common
from loadgen import SEGMENT, Connection, open_loop


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 (http.server API)
        self.rfile.read(int(self.headers["Content-Length"]))
        body = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Queue-Wait-Ms", "1.500")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd.server_address[1]
    httpd.shutdown()
    httpd.server_close()


def test_open_loop_runs_segments_between_probes(server, monkeypatch):
    probes = iter([p for p in [1.0, 3.0, 3.0, 1.5] for _ in range(3)])
    monkeypatch.setattr(common, "probe_ms", lambda: next(probes))
    monkeypatch.setattr(common, "REFERENCE_PROBE_MS", 1.5)
    conns = [Connection("127.0.0.1", server, timeout=5.0) for _ in range(2)]
    n = 2 * SEGMENT + 1
    schedule = [0.005 * i for i in range(n)]
    try:
        records = open_loop(conns, [("/v1/x", b"{}")], schedule, [0] * n,
                            phase="t")
    finally:
        for conn in conns:
            conn.close()
    assert [r["rid"] for r in records] == [f"t-{i}" for i in range(n)]
    assert all(r["status"] == 200 for r in records)
    assert all(r["wait"] == pytest.approx(0.0015) for r in records)
    # Two full segments and one of a single request, with a probe before
    # the first and after each; every request is scaled by the median
    # probe (2.25 ms against the 1.5 ms reference), and due times
    # restart in each segment.
    assert [r["factor"] for r in records] == pytest.approx(
        [1.5 / 2.25] * n)
    assert [r["offset"] for r in records] == pytest.approx(
        schedule[:SEGMENT] * 2 + [0.0])
    assert all(r["latency"] >= 0 and r["late"] >= 0 for r in records)
