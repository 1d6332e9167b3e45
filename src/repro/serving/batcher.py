"""Request batcher/coalescer: many concurrent callers, one engine call.

The query engine's vectorized paths amortize their fixed per-call cost
(modality-cache lookup, hotspot snap, normalized gathers) across a whole
batch — but serving traffic arrives as single queries on independent
handler threads.  :class:`RequestBatcher` bridges the two shapes: callers
block in :meth:`~RequestBatcher.submit` while a dispatcher thread collects
up to ``max_batch`` items, hands the group to one ``dispatch_fn`` call, and
fans the per-item results back out.

When to cut a batch follows Nagle's rule with no timer: nothing is held
back while nothing is in flight.  A request that finds the dispatcher
idle is dispatched at once; requests that arrive while a dispatch runs
queue, and the next batch is whatever queued (up to ``max_batch``) by the
time that dispatch returns.  No request ever waits for co-travellers, so
busy traffic coalesces exactly as much as the dispatch time allows.

The contract that makes coalescing safe is **exact parity**: the dispatch
function must return, for each item, the same result it would return for a
single-item batch (the engine's ragged-batch path guarantees this
bit-for-bit; see :meth:`repro.core.query_engine.QueryEngine
.score_ragged_batch`).  The batcher itself never reorders items — the
dispatch list preserves submission order.

Failure semantics: an exception raised by ``dispatch_fn`` is delivered to
*every* caller of that batch (it describes the group call); a per-item
failure is expressed by returning an :class:`Exception` instance in that
item's result slot, which is raised only in its own caller.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence

from repro.utils.metrics import MetricsRegistry

__all__ = ["RequestBatcher", "BatcherClosed"]


class BatcherClosed(RuntimeError):
    """Raised by :meth:`RequestBatcher.submit` after the batcher closed."""


class _Slot:
    """One caller's result slot: an event, the outcome and trace state.

    ``ctx`` is the caller's optional
    :class:`~repro.serving.reqtrace.RequestContext`; ``enqueued`` is the
    submission timestamp the dispatcher diffs to compute the per-item
    queue wait.
    """

    __slots__ = ("event", "result", "error", "ctx", "enqueued")

    def __init__(self, ctx=None) -> None:
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None
        self.ctx = ctx
        self.enqueued = time.perf_counter()


class RequestBatcher:
    """Coalesce concurrent single requests into batched dispatch calls.

    Parameters
    ----------
    dispatch_fn:
        ``callable(list[request]) -> sequence[result]`` executing a whole
        batch; must return exactly one result per request, in order.  An
        :class:`Exception` instance in a result slot is raised in that
        caller alone.
    max_batch:
        Upper bound on items per dispatch call.
    metrics:
        Optional :class:`~repro.utils.metrics.MetricsRegistry`; records
        the ``serve.batch_size`` histogram, the
        ``serve.batch_wait_seconds`` histogram (the queue wait of each
        batch's oldest request, up to the start of its dispatch) and the
        ``serve.batches`` / ``serve.coalesced_batches`` counters.
    name:
        Thread-name suffix for the dispatcher thread.
    """

    def __init__(
        self,
        dispatch_fn: Callable[[list], Sequence],
        *,
        max_batch: int = 64,
        metrics: MetricsRegistry | None = None,
        name: str = "serve",
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._dispatch_fn = dispatch_fn
        self.max_batch = int(max_batch)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._queue: list[tuple[object, _Slot]] = []
        self._closed = False
        self.dispatched = 0
        self._batch_seq = 0
        self._dispatch_ctxs: list = []
        self._thread = threading.Thread(
            target=self._run, name=f"repro-batcher-{name}", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------- caller side

    def submit(self, request, *, ctx=None, timeout: float | None = 30.0):
        """Block until ``request``'s batch executed; return its result.

        ``ctx`` (optional) is a
        :class:`~repro.serving.reqtrace.RequestContext`: the dispatcher
        stamps it with the batch id/size, this item's queue wait and its
        fan-back time, linking the request's trace entry to the batch
        span it rode.

        Raises :class:`BatcherClosed` when the batcher is already closed,
        :class:`TimeoutError` if no result arrived within ``timeout``
        seconds, and re-raises whatever exception the dispatch produced
        for this item or its batch.
        """
        slot = _Slot(ctx)
        with self._arrived:
            if self._closed:
                raise BatcherClosed("batcher is closed")
            self._queue.append((request, slot))
            self._arrived.notify_all()
        if not slot.event.wait(timeout):
            raise TimeoutError(
                f"batched dispatch did not complete within {timeout}s"
            )
        if slot.error is not None:
            raise slot.error
        return slot.result

    @property
    def depth(self) -> int:
        """Requests currently queued and awaiting dispatch."""
        with self._lock:
            return len(self._queue)

    @property
    def dispatching_contexts(self) -> list:
        """The request contexts of the batch currently being dispatched.

        Only meaningful when read from *inside* ``dispatch_fn`` (which
        runs on the dispatcher thread that just set it); the server's
        trampoline uses it to attach engine-stage timings and the batch
        trace entry to the requests of the batch it is executing.
        Entries are ``None`` for items submitted without a context.
        """
        return self._dispatch_ctxs

    # --------------------------------------------------------- dispatcher side

    def _take_batch(self) -> list[tuple[object, _Slot]] | None:
        """Cut one batch: the first ``max_batch`` queued requests.

        Waits only while the queue is empty; what queued during the
        previous dispatch is cut as soon as that dispatch returns.

        Returns ``None`` exactly once: when the batcher closed and the
        queue is fully drained, which terminates the dispatcher thread.
        """
        with self._arrived:
            while not self._queue:
                if self._closed:
                    return None
                self._arrived.wait()
            batch = self._queue[: self.max_batch]
            del self._queue[: len(batch)]
            return batch

    def _run(self) -> None:
        """Dispatcher loop: cut batches and execute them until drained."""
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            start = time.perf_counter()
            requests = [request for request, _slot in batch]
            # Stamp the coalescing link before dispatch: batch identity
            # plus each item's measured queue wait.  ``dispatch_fn`` can
            # read the same contexts via ``dispatching_contexts`` to
            # attach engine-stage timings.
            self._batch_seq += 1
            batch_id = f"b{self._batch_seq}"
            self._dispatch_ctxs = [slot.ctx for _request, slot in batch]
            for _request, slot in batch:
                if slot.ctx is not None:
                    slot.ctx.begin_batch(
                        batch_id,
                        len(batch),
                        queue_wait=start - slot.enqueued,
                    )
            try:
                results = self._dispatch_fn(requests)
                if len(results) != len(batch):
                    raise RuntimeError(
                        f"dispatch returned {len(results)} results for "
                        f"{len(batch)} requests"
                    )
            except Exception as exc:  # noqa: BLE001 - delivered to callers
                fanback_start = time.perf_counter()
                for _request, slot in batch:
                    slot.error = exc
                    if slot.ctx is not None:
                        slot.ctx.stage(
                            "fanback", time.perf_counter() - fanback_start
                        )
                    slot.event.set()
                continue
            finally:
                self.dispatched += len(batch)
                self.metrics.counter("serve.batches").inc()
                if len(batch) > 1:
                    self.metrics.counter("serve.coalesced_batches").inc()
                self.metrics.histogram("serve.batch_size").observe(len(batch))
                self.metrics.histogram("serve.batch_wait_seconds").observe(
                    start - batch[0][1].enqueued
                )
                self._dispatch_ctxs = []
            fanback_start = time.perf_counter()
            for (_request, slot), result in zip(batch, results):
                if isinstance(result, Exception):
                    slot.error = result
                else:
                    slot.result = result
                if slot.ctx is not None:
                    # Per-item fan-back: how long this item waited behind
                    # earlier items of its batch to have its slot set.
                    slot.ctx.stage(
                        "fanback", time.perf_counter() - fanback_start
                    )
                slot.event.set()

    # ---------------------------------------------------------------- lifecycle

    def close(self, *, timeout: float = 10.0) -> None:
        """Stop accepting work, drain queued requests, join the thread.

        Everything already queued is still dispatched (callers blocked in
        :meth:`submit` get their results); only *new* submissions fail
        with :class:`BatcherClosed`.  Idempotent.
        """
        with self._arrived:
            self._closed = True
            self._arrived.notify_all()
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "RequestBatcher":
        """Context-manager entry: the batcher itself (already running)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()
