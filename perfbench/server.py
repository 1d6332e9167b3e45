"""Server launcher for the serve workloads (runs in its own process).

Starts the query server through the same public calls ``repro serve
--mmap`` makes — ``load_bundle(path, mmap=True)`` then
``QueryServer(...).start()`` with the CLI's defaults — so the benchmark
can time set-up after interpreter start and imports, and a traced run can
wrap serving-layer calls inside the server process.

Protocol: after ``--setups`` timed set-ups (each but the last stopped
again) and ``--promotions`` timed re-promotions of the served bundle,
both scaled to reference host speed (``common.HostSpeed``), the launcher
prints one JSON line (port, set-up and promotion times, phase windows,
probe times) and then obeys one command per stdin line:

``trace on`` / ``trace off``
    toggle span recording (traced runs only);
``stop``
    drain and stop the server, write the spans, print ``stopped``.

End of stdin counts as ``stop``, so the server never outlives the
benchmark process.

Usage: ``python3 perfbench/server.py --bundle DIR --work DIR --setups N
--promotions N [--ann] [--trace]``
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import HostSpeed, import_program  # noqa: E402


def _setup(serialize, QueryServer, bundle: Path, ann: bool):
    """One timed set-up: map the bundle and start serving it."""
    start = time.perf_counter()
    model = serialize.load_bundle(bundle, mmap=True)
    server = QueryServer(model, port=0, ann=ann).start()
    return server, time.perf_counter() - start, (start, time.perf_counter())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bundle", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--ann", action="store_true")
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--promotions", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    import repro.core.serialize as serialize
    from repro.lifecycle import BundlePublisher, LifecycleManager
    from repro.serving import QueryServer

    rec = None
    if args.trace:
        from layers import install_serving
        from spans import Recorder

        rec = Recorder()
        install_serving(rec)

    bundle = Path(args.bundle)
    speed = HostSpeed()
    setup_s, setup_windows = [], []
    server = None
    for i in range(args.setups):
        speed.start()
        server, seconds, window = _setup(serialize, QueryServer, bundle,
                                         args.ann)
        setup_s.append(speed.adjust(seconds))
        setup_windows.append(window)
        if i < args.setups - 1:
            server.stop()

    # Re-promote the served bundle through the lifecycle: publish the
    # live model as the next epoch, then open, gate and flip it.
    publisher = BundlePublisher(Path(args.work) / "epochs",
                                shards=server.shards_for(server.model),
                                retain=2)
    manager = LifecycleManager(server, publisher.root, initial_epoch=0)
    promote_ms, promote_windows, verdicts = [], [], []
    speed.start()
    for _ in range(args.promotions):
        start = time.perf_counter()
        publisher.publish(server.model)
        decision = manager.poll_once()
        end = time.perf_counter()
        promote_ms.append(speed.adjust(end - start) * 1e3)
        promote_windows.append((start, end))
        verdicts.append(decision["action"] if decision else None)

    print(json.dumps({
        "port": server.port,
        "setup_s": setup_s,
        "setup_windows": setup_windows,
        "promote_ms": promote_ms,
        "promote_windows": promote_windows,
        "verdicts": verdicts,
        "probes_ms": speed.probes,
    }), flush=True)

    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        if rec is not None and command in ("trace on", "trace off"):
            rec.enabled = command == "trace on"
            print("ok", flush=True)
    server.stop()
    if rec is not None:
        rec.enabled = False
        rec.dump(Path(args.work) / "server_spans.jsonl")
    print("stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
