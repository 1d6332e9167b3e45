"""``serve`` and ``serve-large`` workloads: the query server under HTTP load.

Input preparation (untimed): a city corpus written as JSONL, a model
trained on it with the ``repro train`` defaults and exported as a
bundle, and request bodies from ``CityModel.generate_query_stream``,
drawn by ``--seed``.  The server then runs in its own
process (``perfbench/server.py``) and one load process drives it over
two persistent keep-alive connections:

1. warm-up, closed loop, untimed;
2. open loop: a seeded Poisson schedule at one fixed rate, latency timed
   from each request's due time (``latency_ms``, ``p95_ms``);
3. closed loop: each connection sends its next request when the reply
   arrives (``throughput``).

``serve`` serves a K=1 format-v2 bundle of a ``utgeo2011`` model with the
generator's mixed traffic (75% predict over 11 candidates, 25%
neighbors); every 200 body must equal the in-process
``QueryService.dispatch([req])[0]``.  ``serve-large`` serves a K=4
format-v3 bundle with ``--ann`` and word-neighbor traffic over a word
modality of at least 10k rows; its quality is recall@10 against an exact
scan, and every returned score must equal the exact cosine.

``latency_ms`` is the open loop's 10th percentile with its CPU share
scaled to reference host speed (``common.cpu_scaled_latency``): the
latency of a request that neither stalls nor waits on the host's other
tenants.  ``p95_ms`` and ``throughput`` are raw, being made of the
keep-alive delayed-ACK stall, a kernel timer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from common import ROOT, cpu_scaled_latency, lateness_grows, median, \
    percentile, poisson_schedule, samples_beyond, stratified
from layers import layer_metrics, layer_table, serving_join
from loadgen import Connection, check_bodies, closed_loop, open_loop
from spans import load_spans

HERE = Path(__file__).resolve().parent
SLO_MS = 250.0
LARGE_SHARDS = 4
MIN_LARGE_WORDS = 10_000
#: Seed of the served city and model; ``--seed`` picks the traffic.
MODEL_SEED = 0
#: The event pool holds this many times the bodies a run draws.
POOL_FACTOR = 10
#: Percentile of the open loop's CPU-scaled latencies that ``latency_ms``
#: reports.  Which share of requests waits on the host's other tenants
#: (vCPU wake-ups, steal) changes from minute to minute and moved the
#: raw median by up to 80%; the fastest tenth is the requests that did
#: not.
LATENCY_PERCENTILE = 10


def _kind(event: dict) -> str:
    body = event["body"]
    return f"{event['endpoint']} {body.get('target', body.get('modality'))}"


def cache_dir(size, large: bool) -> Path:
    """Where the model ``serve`` (or ``serve-large``) serves is cached.

    The key covers the input sizes and the program's and this module's
    source, so a cached bundle never outlives the code that made it.
    """
    records = size.large_records if large else size.serve_records
    key = hashlib.sha256(repr((
        large, records, size.large_common_words, size.serve_model,
        size.bodies)).encode())
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")) + [
            Path(__file__)]:
        key.update(path.read_bytes())
    name = "serve-large" if large else "serve"
    return ROOT / ".bench_work" / "cache" / f"{name}-{key.hexdigest()[:16]}"


def prepare(size) -> None:
    """Train and cache the models both serve workloads serve, if missing.

    Each holds a model trained with the ``repro train`` defaults
    (30 epochs, dim 64) on a fixed city, exported as a bundle, together
    with a pool of request events the same city generated.  The runner
    calls this once per checkout, in a process of its own.
    """
    for large in (False, True):
        cache = cache_dir(size, large)
        if not cache.is_dir():
            _build(size, large, cache)


def _prepare(ctx, large: bool, rng):
    """The served bundle and this run's request bodies (all untimed).

    ``rng`` draws the run's bodies from the cached pool, each kind of
    request in its share.
    """
    cache = cache_dir(ctx.size, large)
    pool = json.loads((cache / "pool.json").read_text())["events"]
    events = [pool[i] for i in stratified([_kind(e) for e in pool],
                                           ctx.size.bodies, rng)]
    requests = [(e["endpoint"], json.dumps(e["body"]).encode())
                for e in events]
    return cache / "bundle", events, requests


def _build(size, large: bool, cache: Path) -> None:
    """Train the served model, export its bundle and the event pool."""
    from repro.core import Actor, ActorConfig
    from repro.core.serialize import save_bundle
    from repro.data.datasets import PRESETS
    from repro.data.io import load_corpus, save_corpus
    from repro.data.synthetic import CityModel

    preset = PRESETS["utgeo2011"]
    if large:
        preset = dataclasses.replace(
            preset, n_topics=40, n_common_words=size.large_common_words)
    city = CityModel(preset, seed=MODEL_SEED)
    tmp = cache.with_name(f"{cache.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    records = size.large_records if large else size.serve_records
    save_corpus(city.generate_corpus(records), tmp / "corpus.jsonl")
    model = Actor(ActorConfig(seed=MODEL_SEED, **size.serve_model)).fit(
        load_corpus(tmp / "corpus.jsonl"))
    save_bundle(model, tmp / "bundle", shards=LARGE_SHARDS if large else 1)
    if large:
        # Word neighbors only: the other modalities hold a few hundred
        # hotspots each, which no index needs.
        events = [e for e in city.generate_query_stream(
            3 * POOL_FACTOR * size.bodies, n_noise=10,
            neighbor_fraction=1.0, k=10) if e.body["modality"] == "word"]
    else:
        events = city.generate_query_stream(
            POOL_FACTOR * size.bodies, n_noise=10, neighbor_fraction=0.25,
            k=10)
    (tmp / "pool.json").write_text(json.dumps({
        "events": [{"endpoint": e.endpoint, "body": e.body}
                   for e in events],
    }))
    try:
        tmp.rename(cache)
    except OSError:  # another run cached it first
        shutil.rmtree(tmp, ignore_errors=True)


def _expected(bundle: Path, events) -> tuple[list[dict], int]:
    """In-process ``QueryService.dispatch([req])[0]`` for every body.

    Also returns the served model's vocabulary size.
    """
    from repro.core.serialize import load_bundle
    from repro.serving.service import QueryService

    model = load_bundle(bundle, mmap=True)
    service = QueryService(model)
    out = []
    for event in events:
        if event["endpoint"] == "/v1/predict":
            request = service.validate_predict(event["body"])
        else:
            request = service.validate_neighbors(event["body"])
        response = service.dispatch([request])[0]
        out.append(json.loads(json.dumps(response, sort_keys=True)))
    return out, len(model.built.vocab)


def _key(entry: dict):
    return entry.get("word", entry.get("hotspot"))


def _recall(ctx, records, exact) -> float:
    """Recall@k of served neighbors against the exact scan.

    Also checks that each served list is ordered and that every key
    both lists share carries the exact cosine score.
    """
    hits = total = 0
    for r in records:
        if r["status"] != 200:
            continue
        served = json.loads(r["body"])["neighbors"]
        truth = {_key(e): e["score"] for e in exact[r["pick"]]["neighbors"]}
        scores = [e["score"] for e in served]
        if scores != sorted(scores, reverse=True):
            ctx.fail(f"request {r['rid']}: neighbors not ordered by score")
        for entry in served:
            key = _key(entry)
            if key in truth:
                hits += 1
                if abs(truth[key] - entry["score"]) > 1e-9:
                    ctx.fail(f"request {r['rid']}: score of {key!r} is "
                             f"{entry['score']}, exact {truth[key]}")
        total += len(truth)
    return hits / total if total else 0.0


def _proc_usage(pid: int) -> tuple[float, int]:
    """CPU seconds (user + system) and minor faults of ``pid``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return cpu, int(fields[7])


class _Server:
    """The launcher process and its stdin/stdout command channel."""

    def __init__(self, ctx, bundle: Path, large: bool) -> None:
        cmd = [sys.executable, str(HERE / "server.py"), "--bundle",
               str(bundle), "--work", str(ctx.work),
               "--setups", str(ctx.size.setups),
               "--promotions", str(ctx.size.large_promotions if large
                                   else ctx.size.promotions)]
        if large:
            cmd.append("--ann")
        if ctx.trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.ready = None

    def wait_ready(self) -> None:
        """Read the launcher's set-up report."""
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError("server launcher exited during set-up")
        self.ready = json.loads(line)

    def command(self, text: str) -> str:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline().strip()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.command("stop")
                self.proc.wait(timeout=30)
            finally:
                if self.proc.poll() is None:
                    self.proc.kill()
                    self.proc.wait()


def run(ctx, *, large: bool) -> dict:
    size = ctx.size
    rng = random.Random(ctx.seed)
    bundle, events, requests = _prepare(ctx, large, rng)
    closed_s = size.closed_share * ctx.seconds
    n_open = max(2, round(size.open_rate * (ctx.seconds - closed_s)))
    schedule = poisson_schedule(n_open, size.open_rate, rng)
    open_picks = stratified([_kind(e) for e in events], n_open, rng)
    closed_picks = [rng.randrange(len(requests)) for _ in range(20_000)]

    expected, n_words = _expected(bundle, events)
    if large and not ctx.smoke and n_words < MIN_LARGE_WORDS:
        ctx.fail(f"word modality has {n_words} rows, want >= "
                 f"{MIN_LARGE_WORDS}")
    server = _Server(ctx, bundle, large)
    server.wait_ready()
    conns = [Connection("127.0.0.1", server.ready["port"], timeout=10.0)
             for _ in range(2)]
    try:
        if ctx.trace:
            server.command("trace off")
        closed_loop(conns, requests, closed_picks[::-1],
                    0.2 if ctx.smoke else 1.0, phase="warm")
        if ctx.trace:
            server.command("trace on")
        opened = open_loop(conns, requests, schedule, open_picks,
                           phase="open")
        if ctx.trace:
            server.command("trace off")
        half = closed_s / 2 if ctx.trace else closed_s
        cpu0, faults0 = _proc_usage(server.proc.pid)
        closed, wall = closed_loop(conns, requests, closed_picks, half,
                                   phase="closed")
        cpu1, faults1 = _proc_usage(server.proc.pid)
        traced = []
        if ctx.trace:
            server.command("trace on")
            traced, traced_wall = closed_loop(
                conns, requests, closed_picks[len(closed):], half,
                phase="traced")
    finally:
        for conn in conns:
            conn.close()
        server.stop()

    ready = server.ready
    if any(v != "promote" for v in ready["verdicts"]):
        ctx.fail(f"re-promotions of the served bundle: {ready['verdicts']}")
    measured = opened + closed + traced
    failed = sum(1 for r in measured if r["status"] != 200)
    # Quality comes from the open loop, whose requests are fixed by the
    # seed, so it repeats exactly; every other response is checked too.
    if large:
        quality = _recall(ctx, opened, expected)
        _recall(ctx, closed + traced, expected)
    else:
        matched, mismatched = check_bodies(opened, expected)
        quality = matched / max(1, matched + mismatched)
        mismatched += check_bodies(closed + traced, expected)[1]
        if mismatched:
            ctx.fail(f"{mismatched} response bodies differ from the "
                     "in-process dispatch")
    if any(r["wait"] is None for r in opened if r["status"] == 200):
        ctx.fail("a 200 response lacks the X-Queue-Wait-Ms header")
    # A request that does not stall is CPU work but for the batcher
    # wait, so that share is scaled to reference host speed.  The tail
    # is the ~40 ms delayed-ACK stall, a kernel timer: it stays raw.
    inf = float("inf")
    raw = [r["latency"] * 1e3 if r["status"] == 200 else inf
           for r in opened]
    scaled = [cpu_scaled_latency(r["latency"], r["wait"] or 0.0,
                                 r["factor"]) * 1e3
              if r["status"] == 200 else inf for r in opened]
    late = [r["late"] for r in opened]
    sustainable = not lateness_grows([r["offset"] for r in opened], late,
                                     threshold=0.05)
    tail = percentile(raw, 95)
    ok_closed = sum(1 for r in closed if r["status"] == 200)
    metrics = {
        "setup_s": median(ready["setup_s"]),
        "latency_ms": percentile(scaled, LATENCY_PERCENTILE),
        "p95_ms": tail,
        "throughput": ok_closed / wall,
        "promote_ms": median(ready["promote_ms"]),
        "quality": quality,
        "success_rate": 1.0 - failed / len(measured),
    }
    ctx.note(f"{ctx.workload}: {n_words} words; open loop {len(opened)} "
             f"requests at {size.open_rate:g}/s over {schedule[-1]:.1f}s, "
             f"rate {'sustainable' if sustainable else 'UNSUSTAINABLE'}, "
             f"p95 ({samples_beyond(len(opened), 95)} samples beyond it) "
             f"{'meets' if tail <= SLO_MS else 'MISSES'} the "
             f"{SLO_MS:g} ms SLO; raw p{LATENCY_PERCENTILE} "
             f"{percentile(raw, LATENCY_PERCENTILE):.3f}ms, raw p50 "
             f"{percentile(raw, 50):.3f}ms, scaled p50 "
             f"{percentile(scaled, 50):.3f}ms, median queue wait "
             f"{median(r['wait'] or 0.0 for r in opened) * 1e3:.3f}ms, "
             f"host-speed factor {opened[0]['factor']:.3f}; "
             f"closed loop {len(closed)} requests in {wall:.1f}s; "
             f"{failed} failed")
    result = {"metrics": metrics, "attempted": len(measured),
              "failed": failed}
    if ctx.trace:
        spans = load_spans(ctx.work / "server_spans.jsonl")
        lo = min(r["sent"] for r in traced)
        hi = max(r["done"] for r in traced)
        joined = serving_join(spans, traced)
        ctx.note(f"joined {joined.pop('joined')} of {len(traced)} traced "
                 "requests on X-Request-Id")
        extra = {
            **joined,
            "serving.cpu_ms_per_request": (cpu1 - cpu0) * 1e3
            / max(1, len(closed)),
            "core.minor_faults": (faults1 - faults0) / max(1, len(closed)),
            "loadgen.late_p99_ms": percentile(late, 99) * 1e3,
            "trace.overhead": (len(closed) / wall)
            / (len(traced) / traced_wall) - 1.0,
        }
        windows = [(lo, hi)]
        result["layers"] = layer_metrics(
            spans, units=len(traced), windows=windows,
            setup_windows=ready["setup_windows"],
            promote_windows=ready["promote_windows"], extra=extra)
        result["table"] = layer_table(spans, windows, len(traced))
        result["unit"] = "request"
    return result


if __name__ == "__main__":
    # ``python3 perfbench/work_serve.py [--smoke]``: cache the served
    # models (the runner does this before a checkout's first run).
    from common import import_program
    import run as runner

    import_program()
    prepare(runner.SMOKE if "--smoke" in sys.argv[1:] else runner.FULL)
