"""The SGNS kernels' scratch workspace: no page faults, no shared state.

Every batch-sized temporary of a step lives in a per-thread, grow-only
scratch slot.  A step that allocated its temporaries instead would map
and zero fresh pages each call (they sit above glibc's mmap threshold),
and a workspace shared between threads would let concurrent steps
overwrite each other's gradients.
"""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.embedding import sgns_step, sgns_step_bow

SRC = str(Path(repro.__file__).resolve().parents[1])

# 200 steps at B=256, K=5, d=64 after five warm-up steps.  glibc's mmap
# threshold moves with a process's allocation history, so the count is
# taken in a fresh interpreter.
FAULT_SCRIPT = textwrap.dedent(
    """
    import resource
    import numpy as np
    from repro.embedding import sgns_step

    rng = np.random.default_rng(0)
    n, d, batch, negatives = 5000, 64, 256, 5
    center = rng.normal(0.0, 0.1, size=(n, d))
    context = rng.normal(0.0, 0.1, size=(n, d))
    batches = [
        (rng.integers(0, n, batch), rng.integers(0, n, batch),
         rng.integers(0, n, (batch, negatives)))
        for _ in range(205)
    ]
    for src, dst, neg in batches[:5]:
        sgns_step(center, context, src, dst, neg, 0.01)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for src, dst, neg in batches[5:]:
        sgns_step(center, context, src, dst, neg, 0.01)
    print(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)
    """
)


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="RUSAGE_THREAD is Linux-only"
)
def test_steady_state_steps_take_no_page_faults():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", FAULT_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    faults = int(out.stdout.strip())
    # Allocating every temporary costs ~160k faults for these 200 steps.
    assert faults < 1_000, faults


def _run(seed: int, steps: int = 60, start: threading.Barrier | None = None):
    """Alternate both kernels over a private pair of matrices."""
    rng = np.random.default_rng(seed)
    n, d = 300, 32
    center = rng.normal(0.0, 0.3, size=(n, d))
    context = rng.normal(0.0, 0.3, size=(n, d))
    batches = []
    for step in range(steps):
        batch = (1, 7, 256, 600)[step % 4]
        lengths = rng.integers(1, 13, batch)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        batches.append((
            rng.integers(0, n, batch), rng.integers(0, n, batch),
            rng.integers(0, n, (batch, 5)),
            rng.integers(0, n, offsets[-1]), offsets,
        ))
    if start is not None:
        start.wait()
    losses = []
    for src, dst, neg, flat, offsets in batches:
        losses.append(sgns_step(center, context, src, dst, neg, 0.05))
        losses.append(
            sgns_step_bow(center, context, flat, offsets, dst, neg, 0.05)
        )
    return center, context, losses


def test_concurrent_threads_match_sequential_runs():
    sequential = [_run(seed) for seed in (1, 2)]
    results = [None, None]
    start = threading.Barrier(2)

    def worker(slot, seed):
        results[slot] = _run(seed, start=start)

    threads = [
        threading.Thread(target=worker, args=(slot, seed))
        for slot, seed in enumerate((1, 2))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for (center, context, losses), (s_center, s_context, s_losses) in zip(
        results, sequential
    ):
        assert np.array_equal(center, s_center)
        assert np.array_equal(context, s_context)
        assert losses == s_losses
