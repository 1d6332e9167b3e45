#!/usr/bin/env bash
# CI smoke for the query-serving daemon: export a tiny format-v2 bundle,
# launch `repro serve --mmap` against it, fire a `repro loadgen` burst of
# mixed predict/neighbor traffic, and assert zero 5xx responses plus a
# well-formed /healthz.  Sequential requests on one keep-alive connection
# to the then idle server must wait on no timer (median wall time under
# 20 ms, median X-Queue-Wait-Ms under 2 ms), hostile bodies (a NaN
# location, a 100k-deep array) must get structured 400s without counting
# a server error, and the /metrics exposition must name each family once.
# Then run the serve latency bench at smoke scale
# (tiny model, permissive speed gates — the acceptance thresholds apply
# at the default benchmark scale on quiet hardware) and upload its
# BENCH_serve_latency.json from the workflow.
#
# Usage: bash tools/ci_serve_smoke.sh  (from the repo root)
set -euo pipefail

export PYTHONPATH=src
PORT="${SERVE_SMOKE_PORT:-8975}"
WORK="${SERVE_SMOKE_DIR:-/tmp/serve_smoke}"
BASE="http://127.0.0.1:${PORT}"

mkdir -p "$WORK"

python -m repro generate --preset utgeo2011 --n-records 1200 \
  --out "$WORK/corpus.jsonl" --split train
python -m repro train --corpus "$WORK/corpus.jsonl" \
  --out "$WORK/model.pkl" --dim 16 --epochs 2
python -m repro export --model "$WORK/model.pkl" --out "$WORK/bundle"

# Read-only mmap serving with a generous deadline; the loadgen burst and
# assertions below finish well inside it.
python -m repro serve --model "$WORK/bundle" --mmap --port "$PORT" \
  --max-seconds 120 --telemetry-dir "$WORK/tel" \
  >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!

up=0
for _ in $(seq 1 120); do
  if curl -sf "$BASE/healthz" -o "$WORK/healthz_up.json"; then
    up=1
    break
  fi
  sleep 0.25
done
if [ "$up" != 1 ]; then
  echo "FAIL: query server never came up" >&2
  cat "$WORK/serve.log" >&2 || true
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi

# Mixed Zipf/diurnal traffic from 8 concurrent clients; --fail-on-server-error
# makes any 5xx or connection failure fail the job.
python -m repro loadgen --url "$BASE" --preset utgeo2011 \
  --n-queries 150 --duration 2 --concurrency 8 \
  --fail-on-server-error --json >"$WORK/loadgen.json"

# Sequential requests on one keep-alive connection to the now idle
# server: each finds the batcher idle and dispatches at once, and its
# response is not held for the client's delayed ACK (~40 ms a request).
# curl opens a connection per request and `repro loadgen` does too, so
# neither would see a stall on a reused connection.
python - "$PORT" <<'EOF'
import http.client
import json
import statistics
import sys
import time

bodies = [
    ("/v1/neighbors", {"modality": "word", "time": 21.0, "k": 5}),
    ("/v1/predict", {"target": "time", "candidates": [2.0, 9.5, 21.5],
                     "location": [1.0, 2.0]}),
]
conn = http.client.HTTPConnection("127.0.0.1", int(sys.argv[1]), timeout=30)
walls, waits = [], []
for i in range(50):
    path, body = bodies[i % len(bodies)]
    started = time.perf_counter()
    conn.request("POST", path, body=json.dumps(body),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    response.read()
    walls.append((time.perf_counter() - started) * 1e3)
    assert response.status == 200, (path, response.status)
    waits.append(float(response.getheader("X-Queue-Wait-Ms")))
conn.close()
print(f"keep-alive: {len(walls)} requests, median wall "
      f"{statistics.median(walls):.2f} ms, median queue wait "
      f"{statistics.median(waits):.3f} ms")
assert statistics.median(walls) < 20.0, walls
assert statistics.median(waits) < 2.0, waits
EOF

# A malformed body must come back as a structured 400, never a 500 —
# and it must echo the request id we sent, in the header and the body.
BAD_STATUS=$(curl -s -o "$WORK/bad.json" -D "$WORK/bad_headers.txt" \
  -w '%{http_code}' \
  -X POST "$BASE/v1/predict" -H 'Content-Type: application/json' \
  -H 'X-Request-Id: smoke-bad-1' \
  -d '{"target": "venue"}')
if [ "$BAD_STATUS" != 400 ]; then
  echo "FAIL: malformed request returned HTTP $BAD_STATUS, wanted 400" >&2
  exit 1
fi
grep -qi '^X-Request-Id: smoke-bad-1' "$WORK/bad_headers.txt"

# Hostile bodies are client errors too: a non-finite number and nesting
# too deep to parse each get a 400, not a 500 or a dropped connection.
printf '{"modality": "word", "location": [NaN, 1.0]}' >"$WORK/nan.json"
python -c 'import sys; sys.stdout.write("[" * 100000 + "]" * 100000)' \
  >"$WORK/deep.json"
for body in nan deep; do
  STATUS=$(curl -s -o "$WORK/${body}_response.json" -w '%{http_code}' \
    -X POST "$BASE/v1/neighbors" -H 'Content-Type: application/json' \
    --data-binary "@$WORK/${body}.json")
  if [ "$STATUS" != 400 ]; then
    echo "FAIL: $body body returned HTTP $STATUS, wanted 400" >&2
    exit 1
  fi
done

# Mid-load observability scrape: the trace ring must hold well-formed
# attribution entries for the traffic we just sent.
curl -sf "$BASE/debug/requests" -o "$WORK/debug_requests.json"
curl -sf "$BASE/healthz" -o "$WORK/healthz.json"
curl -sf "$BASE/varz" -o "$WORK/varz.json"
curl -sf "$BASE/metrics" -o "$WORK/metrics.prom"

grep -q 'repro_serve_requests_total' "$WORK/metrics.prom"
grep -q 'repro_serve_bad_requests_total' "$WORK/metrics.prom"
grep -q 'repro_serve_responses_total' "$WORK/metrics.prom"
grep -q 'repro_slo_availability_compliance' "$WORK/metrics.prom"
# No request of this run, hostile ones included, counts as a server
# error: repro_serve_errors_total is absent or 0.
if awk '$1 == "repro_serve_errors_total" && $2 + 0 != 0 {bad = 1}
        END {exit !bad}' "$WORK/metrics.prom"; then
  grep '^repro_serve_errors_total' "$WORK/metrics.prom" >&2
  echo "FAIL: /metrics counts server errors" >&2
  exit 1
fi
# The exposition format allows one TYPE line per family: a repeated name
# means two metric kinds (or two clock readings) report one stage.
DUPES=$(grep '^# TYPE' "$WORK/metrics.prom" | awk '{print $3}' | sort | uniq -d)
if [ -n "$DUPES" ]; then
  echo "FAIL: /metrics repeats families: $DUPES" >&2
  exit 1
fi

# Live tail-latency attribution against the running server.
python -m repro tail --url "$BASE" >"$WORK/tail_live.txt"
grep -q 'stages by tail contribution' "$WORK/tail_live.txt"

python - "$WORK" <<'EOF'
import json
import sys
from pathlib import Path

work = Path(sys.argv[1])
report = json.loads((work / "loadgen.json").read_text())
assert report["n_requests"] == 150, report["n_requests"]
assert report["server_errors"] == 0, report
assert report["transport_errors"] == 0, report
assert report["client_errors"] == 0, report
assert report["p99_ms"] > 0, report
health = json.loads((work / "healthz.json").read_text())
assert health["status"] == "ok", health
assert health["serving"]["accepting"] is True, health
assert health["uptime_seconds"] > 0, health
assert health["serving"]["trace_requests"] is True, health
assert "availability" in health["slo"], health
assert "latency" in health["slo"], health
bad = json.loads((work / "bad.json").read_text())
assert bad["field"] == "target", bad
assert bad["request_id"] == "smoke-bad-1", bad
# The loadgen report carries the server-side tracing handles.
predict = report["endpoints"].get("/v1/predict", {})
assert "queue_wait_p99_ms" in predict, predict
assert report["slowest"], report
assert all("request_id" in s for s in report["slowest"]), report["slowest"]
# Mid-load trace-ring scrape: every entry is a well-formed attribution
# record, and every coalesced request links to a recorded batch span.
debug = json.loads((work / "debug_requests.json").read_text())
assert debug["recorded"] >= 150, debug["recorded"]
batches = {b["id"]: b for b in debug["batches"]}
for entry in debug["recent"]:
    assert entry["kind"] == "request", entry
    assert entry["id"], entry
    assert entry["status"] in (200, 400), entry
    assert entry["duration_ms"] >= 0, entry
    assert sum(entry["stages_ms"].values()) <= entry["duration_ms"] + 0.1, entry
    assert entry["lifecycle"]["epoch"] == 0, entry
    if entry["status"] == 200:
        assert entry["batch"] is not None, entry
        batch = batches.get(entry["batch"]["id"])
        if batch is not None:
            assert entry["id"] in batch["links"], (entry, batch)
print("loadgen:", json.dumps({k: report[k] for k in
    ("n_requests", "qps", "p50_ms", "p99_ms", "statuses")}, indent=2))
print("trace ring:", debug["recorded"], "requests,",
      debug["recorded_batches"], "batches")
EOF

# Graceful shutdown: SIGTERM must drain and exit 0 before the deadline.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q 'server drained and stopped' "$WORK/serve.log"
echo "--- serve output ---"
cat "$WORK/serve.log"

# The shutdown telemetry dump includes the trace ring; post-mortem tail
# attribution must work from the exported file alone.
test -f "$WORK/tel/requests.jsonl"
python -m repro tail --trace "$WORK/tel/requests.jsonl" \
  >"$WORK/tail_post.txt"
grep -q 'slowest requests' "$WORK/tail_post.txt"

# Smoke-scale latency bench; acceptance-scale gates are relaxed because
# shared CI runners are neither quiet nor multi-core enough to hold them.
python benchmarks/bench_serve_latency.py \
  --records 900 --dim 16 --epochs 2 --line-samples 5000 \
  --n-queries 150 --duration 1.0 --parity-sample 40 \
  --max-p99-ms 2000 --min-qps 5 --min-speedup 1.1 \
  --max-trace-overhead 0.5 \
  --out BENCH_serve_latency.json
echo "serve smoke: OK"
