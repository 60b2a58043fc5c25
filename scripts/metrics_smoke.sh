#!/usr/bin/env bash
# metrics_smoke.sh — end-to-end telemetry check for gnt -mode serve.
#
# Starts the service, drives a couple of requests through it, scrapes
# /metrics, and validates the exposition with promcheck's strict
# parser: the document must parse under the strict grammar, the core
# gnt_* families must be present with their declared types, and the
# counters must account for the traffic just sent: the engine's cache,
# admission and pipeline counters, which /metrics reads from the
# engine's own stats at scrape time, included. Also asserts the
# trace plumbing end to end: the response echoes the request's
# X-Gnt-Trace ID and /debug/requests can return that trace by ID.
#
# Usage: scripts/metrics_smoke.sh [port]
set -euo pipefail

PORT="${1:-8098}"
ADDR="127.0.0.1:${PORT}"
URL="http://${ADDR}"
WORK="$(mktemp -d)"
PID=""

cleanup() {
  [ -n "${PID}" ] && kill "${PID}" 2>/dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

say() { echo "metrics_smoke: $*"; }

go build -o "${WORK}/gnt" ./cmd/gnt
go build -o "${WORK}/promcheck" ./cmd/promcheck
say "built gnt and promcheck"

"${WORK}/gnt" -mode serve -addr "${ADDR}" 2>>"${WORK}/serve.log" &
PID=$!

for _ in $(seq 1 200); do
  if curl -sf "${URL}/readyz" >/dev/null 2>&1; then break; fi
  sleep 0.05
done
curl -sf "${URL}/readyz" >/dev/null || { say "server never became ready"; cat "${WORK}/serve.log"; exit 1; }
say "server up (pid ${PID})"

BODY='{"source":"distributed x(100)\nreal y(100)\n\ndo i = 1, n\n    y(i) = x(i) + 1\nenddo\n"}'
TRACE="metrics-smoke-trace-0001"

# miss, then hit, with a caller-chosen trace ID on the first request
GOT=$(curl -s -D "${WORK}/h1" -o "${WORK}/r1.json" \
  -X POST -H 'Content-Type: application/json' -H "X-Gnt-Trace: ${TRACE}" \
  -d "${BODY}" -w '%{http_code}' "${URL}/analyze")
[ "${GOT}" = "200" ] || { say "analyze got HTTP ${GOT}"; cat "${WORK}/r1.json"; exit 1; }
grep -qi "^X-Gnt-Trace: ${TRACE}" "${WORK}/h1" || { say "response did not echo the trace ID"; cat "${WORK}/h1"; exit 1; }
curl -sf -X POST -H 'Content-Type: application/json' -d "${BODY}" "${URL}/analyze" >/dev/null
say "traffic sent (1 miss + 1 hit), trace ${TRACE}"

curl -sf "${URL}/debug/requests?id=${TRACE}&format=json" | grep -q "${TRACE}" \
  || { say "/debug/requests cannot find trace ${TRACE}"; exit 1; }
say "trace retrievable at /debug/requests"

curl -sf "${URL}/metrics" -o "${WORK}/metrics.txt"
"${WORK}/promcheck" -in "${WORK}/metrics.txt" \
  -require gnt_http_requests_total=counter \
  -require gnt_http_request_duration_seconds=histogram \
  -require gnt_ladder_attempts_total=counter \
  -require gnt_stage_duration_seconds=histogram \
  -require gnt_admission_total=counter \
  -require gnt_engine_cache_events_total=counter \
  -require gnt_pipeline_items_total=counter \
  -require gnt_engine_pool_workers=gauge \
  -require gnt_ready=gauge \
  -min gnt_http_requests_total=2 \
  -min gnt_http_request_duration_seconds=2 \
  -min gnt_ladder_attempts_total=1 \
  -min gnt_engine_cache_events_total=2 \
  -min gnt_admission_total=2 \
  -min gnt_pipeline_items_total=5 \
  -min gnt_ready=1
say "exposition strictly valid, required families present, traffic accounted"
say "PASS"
