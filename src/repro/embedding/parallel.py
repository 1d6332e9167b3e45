"""Hogwild-style asynchronous SGD (Recht et al., NIPS 2011).

Section 5.2.3: "We adopt the asynchronous stochastic gradient algorithm for
optimizing Eq. (5)", and Fig. 12b/12c measure strong/weak scaling over 1-4
workers.  The paper's C++ code uses lock-free pthreads over shared arrays;
Python threads cannot parallelize the NumPy kernels (the scatter-adds hold
the GIL), so :class:`HogwildPool` forks worker *processes* after setup,
updating embedding matrices that live in POSIX shared memory
(:class:`~repro.storage.shared.SharedMatrix` segments).  Each process
scatter-adds into the same pages without locks, and the occasional lost
update is the documented Hogwild trade-off.

Requires a ``fork``-capable platform (Linux, macOS) for the process pool;
the trainer falls back to single-process execution elsewhere.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections.abc import Sequence

import numpy as np

from repro.utils.rng import ensure_rng

__all__ = [
    "HogwildPool",
    "fork_available",
]


def fork_available() -> bool:
    """Whether the fork start method (needed by :class:`HogwildPool`) exists."""
    return "fork" in mp.get_all_start_methods()


def _worker_loop(tasks, center, context, batch_size, cmd_queue, done_queue, seed):
    """Worker process body: execute (task_idx, steps, lr) commands.

    ``center`` / ``context`` are shared-memory-backed views, so the
    scatter-add updates performed here are visible to every process.
    Replies are ``(loss_sum, busy_seconds)`` so the parent can derive
    pool utilization (busy time / wall time).
    """
    rng = np.random.default_rng(seed)
    while True:
        message = cmd_queue.get()
        if message is None:
            done_queue.put(None)
            return
        task_idx, steps, lr = message
        acc = 0.0
        start = time.perf_counter()
        try:
            for _ in range(steps):
                acc += tasks[task_idx].step(center, context, batch_size, lr, rng)
            done_queue.put((acc, time.perf_counter() - start))
        except Exception as exc:  # surface worker errors to the parent
            done_queue.put(exc)


class HogwildPool:
    """Persistent fork-based worker pool for lock-free parallel SGD.

    Parameters
    ----------
    tasks:
        The trainer's :class:`~repro.core.trainer.TrainTask` list.  Workers
        inherit it (and all its samplers) via fork — nothing is pickled.
    center, context:
        Shared-memory-backed embedding matrices
        (:attr:`~repro.storage.shared.SharedMatrix.array` views).
    batch_size:
        Edges per SGD step.
    n_workers:
        Number of worker processes.
    seed:
        Seeds one independent RNG stream per worker.

    Usage::

        with HogwildPool(tasks, shared_c.array, shared_x.array, 256, 4, 0) as pool:
            loss = pool.run_task(task_idx=0, n_steps=100, lr=0.02)
    """

    def __init__(
        self,
        tasks: Sequence,
        center: np.ndarray,
        context: np.ndarray,
        batch_size: int,
        n_workers: int,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if not fork_available():
            raise RuntimeError(
                "HogwildPool requires the 'fork' start method (Linux/macOS)"
            )
        ctx = mp.get_context("fork")
        rng = ensure_rng(seed)
        worker_seeds = rng.integers(0, 2**63 - 1, size=n_workers)
        self.n_workers = n_workers
        self._cmd_queues = [ctx.SimpleQueue() for _ in range(n_workers)]
        self._done_queue = ctx.SimpleQueue()
        self._procs = [
            ctx.Process(
                target=_worker_loop,
                args=(
                    tasks,
                    center,
                    context,
                    batch_size,
                    self._cmd_queues[i],
                    self._done_queue,
                    int(worker_seeds[i]),
                ),
                daemon=True,
            )
            for i in range(n_workers)
        ]
        started: list[mp.Process] = []
        try:
            for proc in self._procs:
                proc.start()
                started.append(proc)
        except BaseException:
            # A start failure mid-loop (fd exhaustion, OOM) must not strand
            # live workers holding the inherited shared-memory segments
            # mapped: kill whatever came up before re-raising.
            for proc in started:
                proc.terminate()
            for proc in started:
                proc.join(timeout=5)
            raise
        self._closed = False
        self.last_busy_seconds = 0.0
        self.last_wall_seconds = 0.0

    @property
    def last_utilization(self) -> float:
        """Worker utilization of the most recent :meth:`run_task` call.

        ``busy / (wall * n_workers)``: 1.0 means every worker computed
        for the whole dispatch; low values mean stragglers or queue
        overhead dominated.  0.0 before the first call.
        """
        if self.last_wall_seconds <= 0:
            return 0.0
        return self.last_busy_seconds / (
            self.last_wall_seconds * self.n_workers
        )

    def run_task(self, task_idx: int, n_steps: int, lr: float) -> float:
        """Run ``n_steps`` of task ``task_idx`` split across all workers.

        Blocks until every worker finishes its share; returns the mean
        per-step loss.  Worker exceptions are re-raised here.  Worker
        busy time is accumulated into :attr:`last_busy_seconds` /
        :attr:`last_wall_seconds` for :attr:`last_utilization`.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if n_steps <= 0:
            return 0.0
        wall_start = time.perf_counter()
        shares = [n_steps // self.n_workers] * self.n_workers
        for i in range(n_steps % self.n_workers):
            shares[i] += 1
        active = 0
        for queue, share in zip(self._cmd_queues, shares):
            if share > 0:
                queue.put((task_idx, share, lr))
                active += 1
        total = 0.0
        busy = 0.0
        error: BaseException | None = None
        for _ in range(active):
            result = self._done_queue.get()
            if isinstance(result, BaseException):
                error = result
            else:
                loss_sum, seconds = result
                total += loss_sum
                busy += seconds
        if error is not None:
            raise error
        self.last_busy_seconds = busy
        self.last_wall_seconds = time.perf_counter() - wall_start
        return total / n_steps

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        for queue in self._cmd_queues:
            queue.put(None)
        for _ in self._procs:
            self._done_queue.get()  # drain the None acknowledgements
        for proc in self._procs:
            proc.join(timeout=10)
        self._closed = True

    def __enter__(self) -> "HogwildPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
