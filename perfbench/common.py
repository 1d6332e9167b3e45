"""Shared arithmetic and bookkeeping for the benchmark.

Nothing here imports the program under test, so the benchmark's own
tests can exercise it directly: percentiles, open-loop due-time and
lateness arithmetic, the host-speed probe, the host-noise record printed
beside every run's metrics, and the result line the runner prints last.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout the benchmark belongs to (the directory above this one).
ROOT = Path(__file__).resolve().parent.parent


class MissingProgram(RuntimeError):
    """The checkout holds no program source to benchmark."""


def import_program():
    """Import the program under test from this checkout's ``src``.

    Refuses to fall back on any other installed copy: a benchmark run in
    a directory without the program's source must fail, not measure
    something else.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise MissingProgram(f"imported repro from {repro.__file__}, "
                             f"not from {src}")
    return repro


# --------------------------------------------------------------- percentiles


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``.

    Matches ``numpy.percentile``'s default method.  Infinite values (a
    failed request counts as missing every latency limit) sort last.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi or data[lo] == data[hi]:
        return float(data[lo])
    if math.isinf(data[hi]):
        return math.inf
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond percentile ``q``."""
    pos = (n - 1) * q / 100.0
    return n - 1 - math.floor(pos)


def median(values) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


# ------------------------------------------------------------ open-loop time


def poisson_schedule(n: int, rate: float, rng) -> list[float]:
    """``n`` due times (seconds from phase start) of a Poisson process.

    ``rng`` is a ``random.Random``.  The first arrival is due at 0 so the
    phase starts loaded; the ``n - 1`` gaps are exponential with mean
    ``1 / rate``, drawn by stratified sampling: one uniform per equal
    stratum of the exponential's quantiles, in seeded random order.  Each
    gap is still exponential, but every schedule holds the same spread
    of short and long gaps, so runs differ far less than independent
    draws would.
    """
    if n < 1 or rate <= 0:
        raise ValueError("need n >= 1 and rate > 0")
    quantiles = [(k + rng.random()) / (n - 1) for k in range(n - 1)]
    rng.shuffle(quantiles)
    due = [0.0]
    for q in quantiles:
        due.append(due[-1] - math.log(1.0 - q) / rate)
    return due


def stratified(kinds: list[str], n: int, rng) -> list[int]:
    """``n`` indexes into ``kinds`` in seeded order, each kind in its share.

    ``rng`` is a ``random.Random``.  Every kind gets its share of ``n``
    (largest remainders round up), so every run offers the same mix of
    request kinds; an index repeats only when a kind's share exceeds
    its items.
    """
    if n < 0 or not kinds:
        raise ValueError("need n >= 0 and at least one item")
    groups: dict[str, list[int]] = {}
    for i, kind in enumerate(kinds):
        groups.setdefault(kind, []).append(i)
    quota = {k: n * len(g) / len(kinds) for k, g in groups.items()}
    count = {k: int(q) for k, q in quota.items()}
    short = n - sum(count.values())
    for k in sorted(groups, key=lambda k: (count[k] - quota[k], k))[:short]:
        count[k] += 1
    picks: list[int] = []
    for k in sorted(groups):
        whole, rest = divmod(count[k], len(groups[k]))
        picks += groups[k] * whole + rng.sample(groups[k], rest)
    rng.shuffle(picks)
    return picks


def latency_from_due(due: float, done: float) -> float:
    """Open-loop latency: completion minus the time the request was due.

    Counting from the due time (not the send time) charges a stalled
    connection's delay to every request queued behind it.
    """
    return done - due


def lateness(due: float, sent: float) -> float:
    """How late the generator sent a request (never negative)."""
    return max(0.0, sent - due)


def lateness_grows(due_times, late_values, *, threshold: float) -> bool:
    """Whether generator lateness grows over an open-loop phase.

    Compares the mean lateness of the last quarter of the schedule with
    that of the first quarter; growth beyond ``threshold`` seconds means
    the backlog is building, so the offered rate is unsustainable.
    """
    pairs = sorted(zip(due_times, late_values))
    n = len(pairs)
    if n < 8:
        return False
    quarter = n // 4
    head = [late for _due, late in pairs[:quarter]]
    tail = [late for _due, late in pairs[-quarter:]]
    return statistics.fmean(tail) - statistics.fmean(head) > threshold


# ------------------------------------------------------------ host record


def _cpu_ticks() -> dict:
    """Aggregate CPU tick counters from ``/proc/stat`` (empty elsewhere)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return {}
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
             "steal")
    return {name: int(v) for name, v in zip(names, fields[1:])}


#: Probe time, in ms, that adjusted timings are expressed against: they
#: read as raw times on a host where :func:`probe_ms` takes 1 ms, as on
#: the 2-core box in a moderately slow phase.
REFERENCE_PROBE_MS = 1.0

#: Runs of :func:`probe_ms` whose median is one :class:`HostSpeed` probe.
PROBE_SAMPLES = 3


def probe_ms() -> float:
    """Wall time of a short fixed CPU kernel, in ms: one host-speed sample.

    The two kinds of work the program's hot paths do, single-threaded:
    a pure-Python loop and two SGNS-shaped NumPy steps (row gathers, row
    dots, a sigmoid and scatter-adds into two 1.5 MB matrices, about
    half the kernel's time).  A pure-Python kernel alone tracked the
    program's units within a host phase but not across phases, whose
    slowdowns hit memory-bound array work harder.  The matrices live in
    anonymous maps of their own and every temporary stays below glibc's
    128 KiB mmap threshold: freeing a larger block raises that threshold
    for the whole process and would change the page faults the program
    takes.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(5_000):
        acc += i * i % 7
    center, context = _PROBE_MATRICES
    for src, dst in _PROBE_ROWS:
        u = center[src]
        v = context[dst]
        grad = 1e-9 / (1.0 + _np.exp(_np.einsum("ij,ij->i", u, v)))
        _np.add.at(center, src, grad[:, None] * v)
        _np.add.at(context, dst, grad[:, None] * u)
    return (time.perf_counter() - start) * 1e3


def _probe_data():
    import mmap

    import numpy as np

    rng = np.random.default_rng(0)
    shape = (6000, 32)
    matrices = []
    for _ in range(2):
        buf = mmap.mmap(-1, shape[0] * shape[1] * 8)
        matrix = np.frombuffer(buf, dtype=np.float64).reshape(shape)
        rng.random(out=matrix)  # in place: no 1.5 MB temporary
        matrix -= 0.5
        matrices.append(matrix)
    rows = [(rng.integers(0, shape[0], 256), rng.integers(0, shape[0], 256))
            for _ in range(2)]
    return np, tuple(matrices), rows


_np, _PROBE_MATRICES, _PROBE_ROWS = _probe_data()


def calibration_ms(rounds: int = 9) -> float:
    """Median of ``rounds`` probes: the host record's calibration kernel.

    The kernel never changes, so a run whose calibration reads slower
    than usual was taken during a slow host phase.
    """
    return median(probe_ms() for _ in range(rounds))


class HostSpeed:
    """Scales the wall time of units of work to reference host speed.

    The 2-core box this benchmark runs on changes speed by more than 2x,
    within seconds and over minutes (other tenants, turbo clocks), which
    moves every CPU-bound median between runs of identical code.  Each
    unit is bracketed by probes; its adjusted time is its wall time times
    :data:`REFERENCE_PROBE_MS` over the mean of the probes before and
    after it.  Call :meth:`start` before a unit (or a run of back-to-back
    units) and :meth:`adjust` (or :meth:`factor`) after each unit; the
    probe after one unit is the probe before the next.  Each probe is
    the median of :data:`PROBE_SAMPLES` runs of :func:`probe_ms`, so one
    sample slowed by an interrupt does not skew a unit.  Units too short
    to bracket one by one are scaled by :meth:`overall` instead.
    """

    def __init__(self) -> None:
        self._before: float | None = None
        self.probes: list[float] = []

    def probe(self) -> float:
        """Take one probe and keep it in :attr:`probes`."""
        value = median([probe_ms() for _ in range(PROBE_SAMPLES)])
        self.probes.append(value)
        return value

    def overall(self) -> float:
        """Scale to reference speed by the median of all probes so far."""
        if not self.probes:
            raise RuntimeError("no probe was taken")
        return REFERENCE_PROBE_MS / median(self.probes)

    def start(self) -> None:
        """Probe before the next unit."""
        self._before = self.probe()

    def factor(self) -> float:
        """Probe after the unit just finished; its scale to reference speed."""
        if self._before is None:
            raise RuntimeError("HostSpeed.start() was not called")
        after = self.probe()
        factor = REFERENCE_PROBE_MS / ((self._before + after) / 2)
        self._before = after
        return factor

    def adjust(self, seconds: float) -> float:
        """``seconds`` of the unit just finished, at reference speed."""
        return seconds * self.factor()


def cpu_scaled_latency(latency: float, wait: float, factor: float) -> float:
    """An open-loop latency with its CPU share at reference host speed.

    ``wait`` is the part spent waiting on a timer (the server's batch
    window, reported as the request's batcher queue wait); it stays as
    measured.  The rest of a request that did not stall is CPU work on
    either side of the socket, so it is scaled by ``factor``
    (:meth:`HostSpeed.factor`).
    """
    wait = min(max(wait, 0.0), latency)
    return wait + (latency - wait) * factor


def git_sha(root: Path) -> str:
    """The checkout's commit, or ``unknown`` unless ``root`` is a work tree.

    A checkout exported without ``.git`` but nested inside some other
    repository must not report that repository's commit.
    """
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=5, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "unknown"
    if Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


class HostRecord:
    """Host-noise facts taken at run start and completed at run end."""

    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS")

    def __init__(self, root: Path) -> None:
        self.root = root
        self.start_ticks = _cpu_ticks()
        self.calibration_start_ms = calibration_ms()

    def finish(self) -> dict:
        """The record, with end-of-run calibration and steal deltas."""
        end_ticks = _cpu_ticks()
        try:
            cores = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            cores = os.cpu_count() or 1
        steal = None
        busy = None
        if self.start_ticks and end_ticks:
            steal = end_ticks["steal"] - self.start_ticks["steal"]
            busy = sum(end_ticks.values()) - sum(self.start_ticks.values())
        return {
            "usable_cores": cores,
            "blas": {v: os.environ.get(v) for v in self.BLAS_VARS},
            "git_sha": git_sha(self.root),
            "python": sys.version.split()[0],
            "steal_ticks": steal,
            "total_ticks": busy,
            "calibration_ms_start": round(self.calibration_start_ms, 4),
            "calibration_ms_end": round(calibration_ms(), 4),
        }


# ------------------------------------------------------------ result line


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    """The JSON object the runner prints as its last stdout line."""
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })
