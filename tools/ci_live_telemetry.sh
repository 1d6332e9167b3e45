#!/usr/bin/env bash
# CI smoke for the live telemetry service: launch `repro stream
# --serve-metrics --drift` on a small corpus in the background, scrape
# /metrics and /healthz WHILE the stream is still ingesting, and assert
# the responses are well-formed (Prometheus text with live counters,
# healthz JSON carrying heartbeat + drift + buffer state).  Two /metrics
# scrapes taken mid-run must differ — the endpoint serves live registry
# state, not a snapshot — and each must name every family once.
#
# Usage: bash tools/ci_live_telemetry.sh  (from the repo root)
set -euo pipefail

export PYTHONPATH=src
PORT="${LIVE_TELEMETRY_PORT:-8974}"
WORK="${LIVE_TELEMETRY_DIR:-/tmp/live_scrape}"
BASE="http://127.0.0.1:${PORT}"

mkdir -p "$WORK"

python -m repro generate --preset utgeo2011 --n-records 4000 \
  --out "$WORK/corpus.jsonl"
python -m repro train --corpus "$WORK/corpus.jsonl" \
  --out "$WORK/model.pkl" --dim 16 --epochs 2

# Small batches + a heavy step budget keep the stream alive long enough
# to scrape it mid-run (~15s on a CI runner).
python -m repro stream --model "$WORK/model.pkl" \
  --corpus "$WORK/corpus.jsonl" --batch-size 64 --steps-per-batch 300 \
  --drift --serve-metrics "$PORT" \
  --telemetry-dir "$WORK/tel" --telemetry-flush-every 10 \
  >"$WORK/stream.log" 2>&1 &
STREAM_PID=$!

# Wait for the server to come up (the stream process starts it before
# the first batch).
up=0
for _ in $(seq 1 120); do
  if curl -sf "$BASE/metrics" -o "$WORK/metrics_first.prom"; then
    up=1
    break
  fi
  sleep 0.25
done
if [ "$up" != 1 ]; then
  echo "FAIL: telemetry server never came up" >&2
  cat "$WORK/stream.log" >&2 || true
  kill "$STREAM_PID" 2>/dev/null || true
  exit 1
fi

# Mid-run scrapes: healthz + varz + a second /metrics a moment later.
curl -s "$BASE/healthz" -o "$WORK/healthz.json"
curl -sf "$BASE/varz" -o "$WORK/varz.json"
sleep 1
curl -sf "$BASE/metrics" -o "$WORK/metrics_second.prom"

# The stream must still be running — otherwise this was not a live scrape.
kill -0 "$STREAM_PID"

grep -q '# TYPE repro_stream_records_total counter' "$WORK/metrics_first.prom"
grep -q 'repro_buffer_occupancy' "$WORK/metrics_first.prom"
if cmp -s "$WORK/metrics_first.prom" "$WORK/metrics_second.prom"; then
  echo "FAIL: /metrics identical across scrapes taken 1s apart" >&2
  exit 1
fi
# The exposition format allows one TYPE line per family.
for scrape in "$WORK/metrics_first.prom" "$WORK/metrics_second.prom"; do
  DUPES=$(grep '^# TYPE' "$scrape" | awk '{print $3}' | sort | uniq -d)
  if [ -n "$DUPES" ]; then
    echo "FAIL: $scrape repeats families: $DUPES" >&2
    exit 1
  fi
done

python - "$WORK" <<'EOF'
import json
import sys
from pathlib import Path

work = Path(sys.argv[1])
health = json.loads((work / "healthz.json").read_text())
assert health["status"] in {"ok", "stale", "alerting"}, health
assert "heartbeat_age_seconds" in health, health
assert "buffer" in health, health
assert "drift" in health, health
varz = json.loads((work / "varz.json").read_text())
assert "metrics" in varz, sorted(varz)
print("healthz:", json.dumps(health, indent=2)[:400])
EOF

wait "$STREAM_PID"
echo "--- stream output ---"
cat "$WORK/stream.log"
python -m repro telemetry --dir "$WORK/tel"
echo "live telemetry smoke: OK"
