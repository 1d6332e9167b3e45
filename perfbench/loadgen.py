"""Load generator for the serve workloads: two persistent HTTP/1.1 connections.

One process drives the server with at most two threads (the calling
thread plus one helper), each owning one keep-alive connection:

* :func:`open_loop` sends a seeded Poisson schedule at one fixed rate.
  A request is due at its scheduled time whether or not a connection is
  free, so latency counts from the due time and the generator records
  how late it sent each request.  The schedule runs in segments with a
  host-speed probe between them, taken while both connections are idle;
  the median probe gives the run's requests one host-speed factor.
* :func:`closed_loop` sends each connection's next request as soon as
  the previous reply arrived.

Every request carries an ``X-Request-Id`` so the traced run can join
client and server spans.  Response bodies are kept raw and compared with
the expected bodies after the phase, off the timed path.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time

from common import HostSpeed, latency_from_due, lateness

#: The server's report of how long a request waited in its batcher.
QUEUE_WAIT_HEADER = "X-Queue-Wait-Ms"
#: Open-loop requests between two host-speed probes.
SEGMENT = 12


class Connection:
    """One keep-alive connection that reconnects after a transport error."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.conn = None

    def post(self, path: str, body: bytes, rid: str):
        """Send one request; returns ``(status, body bytes, queue wait)``.

        The queue wait is the server's ``X-Queue-Wait-Ms`` in seconds, or
        ``None`` when the response lacks it.  Status 0 marks a transport
        error or timeout; the connection is then dropped and the next
        request opens a fresh one.
        """
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout)
            self.conn.request("POST", path, body, {
                "Content-Type": "application/json", "X-Request-Id": rid})
            resp = self.conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b"", None
        wait = resp.getheader(QUEUE_WAIT_HEADER)
        try:
            wait = float(wait) / 1e3
        except (TypeError, ValueError):
            wait = None
        return resp.status, data, wait

    def close(self) -> None:
        """Close the socket (idempotent)."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _run_pair(conns, work) -> None:
    """Run ``work(conn)`` on the calling thread and one helper thread."""
    helper = threading.Thread(target=work, args=(conns[1],), daemon=True)
    helper.start()
    try:
        work(conns[0])
    finally:
        helper.join()


def open_loop(conns, requests, schedule, picks, *, phase: str) -> list[dict]:
    """Send ``picks[i]`` at ``schedule[i]`` seconds after its segment start.

    ``requests`` are ``(path, body bytes)`` pairs.  The schedule runs in
    segments of :data:`SEGMENT` requests; each segment starts once every
    reply of the one before has arrived, with its first request due at
    once, and a :class:`common.HostSpeed` probes the host before the
    first segment and after each.  Returns one record per request:
    ``rid``, ``pick``, ``due``/``sent``/``done`` (absolute
    ``perf_counter`` seconds), ``offset`` (due time within the segment),
    ``latency`` from due, ``late``, ``status``, ``wait`` (the server's
    batcher queue wait), ``factor`` (the host-speed scale of the whole
    phase, :meth:`common.HostSpeed.overall`) and the raw ``body``.

    One factor serves every request: a factor per segment rests on two
    probes of a few milliseconds each, whose noise would then decide
    which requests form the low percentiles.
    """
    records: list[dict] = []
    speed = HostSpeed()
    speed.probe()
    for first in range(0, len(schedule), SEGMENT):
        records += _open_segment(conns, requests, schedule, picks, phase,
                                 range(first, min(first + SEGMENT,
                                                  len(schedule))))
        speed.probe()
    factor = speed.overall()
    for record in records:
        record["factor"] = factor
    return sorted(records, key=lambda r: r["due"])


def _open_segment(conns, requests, schedule, picks, phase: str,
                  indexes: range) -> list[dict]:
    """One segment of :func:`open_loop`."""
    order = iter(indexes)
    lock = threading.Lock()
    records: list[dict] = []
    start = time.perf_counter() + 0.005 - schedule[indexes[0]]

    def work(conn: Connection) -> None:
        while True:
            with lock:
                i = next(order, None)
            if i is None:
                return
            due = start + schedule[i]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            path, body = requests[picks[i]]
            rid = f"{phase}-{i}"
            sent = time.perf_counter()
            status, data, queue_wait = conn.post(path, body, rid)
            done = time.perf_counter()
            records.append({
                "rid": rid, "pick": picks[i], "due": due, "sent": sent,
                "done": done, "offset": schedule[i] - schedule[indexes[0]],
                "latency": latency_from_due(due, done),
                "late": lateness(due, sent), "status": status,
                "wait": queue_wait, "body": data,
            })

    _run_pair(conns, work)
    return records


def closed_loop(conns, requests, picks, seconds: float, *,
                phase: str) -> tuple[list[dict], float]:
    """Back-to-back requests on every connection for ``seconds``.

    Returns the records and the phase wall time (start to last reply).
    """
    counter = itertools.count()
    records: list[dict] = []
    start = time.perf_counter()
    deadline = start + seconds

    def work(conn: Connection) -> None:
        while time.perf_counter() < deadline:
            i = next(counter)
            pick = picks[i % len(picks)]
            path, body = requests[pick]
            rid = f"{phase}-{i}"
            sent = time.perf_counter()
            status, data, _wait = conn.post(path, body, rid)
            done = time.perf_counter()
            records.append({
                "rid": rid, "pick": pick, "sent": sent, "done": done,
                "latency": done - sent, "status": status, "body": data,
            })

    _run_pair(conns, work)
    wall = max((r["done"] for r in records), default=start) - start
    return records, wall


def check_bodies(records, expected) -> tuple[int, int]:
    """Compare 200 bodies with the expected responses.

    Returns ``(matched, mismatched)``; non-200 records count in neither.
    """
    matched = mismatched = 0
    for r in records:
        if r["status"] != 200:
            continue
        try:
            same = json.loads(r["body"]) == expected[r["pick"]]
        except ValueError:
            same = False
        if same:
            matched += 1
        else:
            mismatched += 1
    return matched, mismatched
