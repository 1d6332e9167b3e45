"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload train --seed 1 --seconds 14 --trace 0

Workloads: ``train``, ``serve``, ``serve-large``, ``stream-promote``
(see ``perfbench/README.md``).  Inputs are generated from ``--seed``;
the program under test only receives the generated files.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it wraps the program's public calls, reports the
per-layer metrics and prints a layer table.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it carry the
host-noise record and notes.  A run whose output checks fail prints
``correct: false`` without metrics and exits 1; a checkout without the
program's source exits 2 without a result.  ``--smoke`` shrinks every
input so the benchmark's own tests can run each workload in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, HostRecord, MissingProgram, import_program, \
    result_line  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "p95_ms": "ms",
    "throughput": "1/s",
    "promote_ms": "ms",
    "quality": "1",
    "success_rate": "1",
}


@dataclass(frozen=True)
class Size:
    """Input sizes of one mode (full runs or smoke tests)."""

    train_records: int
    heldout_records: int
    queries: int
    dim: int
    epochs: int
    line_samples: int
    setups: int
    min_units: int
    serve_records: int
    #: ``ActorConfig`` overrides for the served models ({} keeps the
    #: ``repro train`` defaults).
    serve_model: dict
    large_records: int
    large_common_words: int
    bodies: int
    open_rate: float
    closed_share: float
    promotions: int
    large_promotions: int
    stream_records: int
    publish_every: int


FULL = Size(
    train_records=1600, heldout_records=1200, queries=600, dim=32, epochs=4,
    line_samples=20_000, setups=9, min_units=3, serve_records=2000,
    serve_model={}, large_records=14_000, large_common_words=20_000,
    bodies=400, open_rate=15.0, closed_share=0.2, promotions=45,
    large_promotions=15, stream_records=8192, publish_every=8,
)

SMOKE = Size(
    train_records=400, heldout_records=120, queries=40, dim=8, epochs=1,
    line_samples=2000, setups=2, min_units=2, serve_records=400,
    serve_model={"dim": 8, "epochs": 1, "batches_per_epoch": 4,
                 "line_samples": 2000},
    large_records=600, large_common_words=400, bodies=30, open_rate=20.0,
    closed_share=0.5, promotions=2, large_promotions=2, stream_records=768,
    publish_every=2,
)


class Context:
    """One run's arguments, sizes, work directory and check results."""

    def __init__(self, args, work: Path) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.smoke = args.smoke
        self.size = SMOKE if args.smoke else FULL
        self.work = work
        self.failures: list[str] = []
        self.notes: list[str] = []

    def fail(self, message: str) -> None:
        """Record a failed output check (the run then reports no metrics)."""
        self.failures.append(message)
        self.log(f"CHECK FAILED: {message}")

    def note(self, message: str) -> None:
        """A line printed before the result."""
        self.notes.append(message)

    @staticmethod
    def log(message: str) -> None:
        """Diagnostics on stderr."""
        print(f"perfbench: {message}", file=sys.stderr, flush=True)


def _workloads():
    import work_serve
    import work_stream
    import work_train

    return {
        "train": work_train.run,
        "serve": lambda ctx: work_serve.run(ctx, large=False),
        "serve-large": lambda ctx: work_serve.run(ctx, large=True),
        "stream-promote": work_stream.run,
    }


def _print_table(result: dict) -> None:
    unit = result.get("unit", "unit")
    print(f"layer table (per {unit}; self time excludes children, wait is "
          "time covered by children on other threads)")
    print(f"  {'span':34s} {'count':>9s} {'self_ms':>10s} {'faults':>10s} "
          f"{'wait_ms':>9s}")
    for name, count, self_ms, faults, wait_ms in result["table"]:
        print(f"  {name:34s} {count:9.2f} {self_ms:10.3f} {faults:10.1f} "
              f"{wait_ms:9.3f}")
    layers = result["layers"]
    print(f"unattributed share of end-to-end wall time: "
          f"{layers['trace.unattributed']:.4f}; tracing overhead against "
          f"untraced units: {layers['trace.overhead']:+.4f}")


def _prepare_served_models(smoke: bool) -> None:
    """Train the serve workloads' models once per checkout.

    Input preparation, outside every timed phase: the first run in a
    checkout pays for it, whatever its workload.  It runs in a child
    process so the training's memory state stays out of this one.
    """
    import work_serve

    size = SMOKE if smoke else FULL
    if all(work_serve.cache_dir(size, large).is_dir()
           for large in (False, True)):
        return
    subprocess.run([sys.executable, str(HERE / "work_serve.py")]
                   + (["--smoke"] if smoke else []), check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "serve", "serve-large",
                                 "stream-promote"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        import_program()
    except MissingProgram as exc:
        Context.log(str(exc))
        return 2
    _prepare_served_models(args.smoke)
    host = HostRecord(ROOT)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(args, work)
    started = time.perf_counter()
    try:
        result = _workloads()[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("host " + json.dumps(host.finish()))
    for note in ctx.notes:
        print(note)
    print(f"run wall {time.perf_counter() - started:.1f}s")
    if ctx.failures:
        print(json.dumps({"correct": False,
                          "attempted": max(1, result["attempted"]),
                          "failed": result["failed"], "metrics": {}}))
        return 1
    if ctx.trace:
        from layers import PER_LAYER

        _print_table(result)
        names = PER_LAYER
        values = result["layers"]
    else:
        names = END_TO_END
        values = result["metrics"]
    metrics = {name: (values[name], unit) for name, unit in names.items()}
    print(result_line(True, result["attempted"], result["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
