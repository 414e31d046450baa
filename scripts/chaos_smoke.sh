#!/usr/bin/env bash
# Overload/chaos smoke test for the QoS-enabled serving stack: starts a
# quota-limited `serve --listen` daemon, then drives
#   1. quota exhaustion  — a flood batch drains the bucket; the next batch
#      is shed with Unavailable + a retry-after hint; the same batch with
#      --retries succeeds after bounded, hint-honoring backoff;
#   2. a flash crowd     — concurrent bulk floods (--priority bulk) against
#      the quota-limited collection while interactive point batches run
#      against an unlimited one: every interactive batch must succeed while
#      the admission stats report bulk sheds;
#   3. protocol garbage  — raw junk must not take the daemon down;
#   4. request tracing   — a traced batch's id must surface in the flight
#      recorder (`remote flight`), SIGQUIT must write valid flight + Chrome
#      trace dumps without stopping the daemon, and `remote stats --prom`
#      and the per-lane latency fields must answer;
#   5. graceful drain    — SIGTERM exits 0 with nothing left behind;
# and finally validates the exported metrics snapshot, requiring the
# service.admission.* counters the scenarios must have moved.
#
# The deterministic in-process versions of these scenarios live in
# tests/overload_test.cc (including slow-consumer disconnects); this
# script proves the same behavior end to end through real processes,
# sockets, and signals.
#
# Usage: scripts/chaos_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
XCLUSTERCTL="$BUILD_DIR/tools/xclusterctl"
WORKDIR="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
  if [ -n "$DAEMON_PID" ]; then
    kill "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
  echo "chaos_smoke: FAIL: $*" >&2
  exit 1
}

[ -x "$XCLUSTERCTL" ] || fail "$XCLUSTERCTL not built"

start_daemon() {
  "$XCLUSTERCTL" serve --listen 127.0.0.1:0 "$@" \
    > "$WORKDIR/daemon.out" 2> "$WORKDIR/daemon.err" &
  DAEMON_PID=$!
  for _ in $(seq 100); do
    grep -q '^listening ' "$WORKDIR/daemon.out" 2>/dev/null && break
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died at startup: \
$(cat "$WORKDIR/daemon.err")"
    sleep 0.1
  done
  PORT="$(sed -n 's/^listening .*:\([0-9]*\)$/\1/p' "$WORKDIR/daemon.out")"
  [ -n "$PORT" ] || fail "could not scrape the listening port"
}

stop_daemon() { # graceful SIGTERM drain; daemon must exit 0
  kill -TERM "$DAEMON_PID"
  local rc=0
  wait "$DAEMON_PID" || rc=$?
  DAEMON_PID=""
  [ "$rc" -eq 0 ] || fail "daemon exited $rc after SIGTERM (want 0)"
}

# Scrapes one field from `remote stats` output, e.g. stats_field shed_quota.
stats_field() {
  "$XCLUSTERCTL" remote stats --connect 127.0.0.1:"$PORT" \
    | sed -n "s/.* $1=\([0-9]*\).*/\1/p"
}

# 1. Build a synopsis; serve it twice — `books` unlimited for interactive
# traffic, `bulkdata` behind a 50 qps / burst-8 admission quota.
"$XCLUSTERCTL" build --in examples/books.xml --bstr 0 \
  --out "$WORKDIR/books.xcsf" >/dev/null
printf '//book\n//book[/price]\n//book\n//book\n//book\n//book\n//book\n//book\n' \
  > "$WORKDIR/queries.txt"

start_daemon --workers 8 \
  --preload books="$WORKDIR/books.xcsf",bulkdata="$WORKDIR/books.xcsf" \
  --quota bulkdata=50:8 --metrics-json "$WORKDIR/metrics.json" \
  --trace-sample 1.0 --dump-prefix "$WORKDIR/dump" \
  --slow-query-ms 1 --slow-query-log "$WORKDIR/slow.jsonl"
echo "--- daemon on port $PORT ---"

# 2. Quota exhaustion: the first 8-query batch drains the bucket; the
# immediate repeat without retries must be shed with a retry-after hint.
"$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$PORT" \
  --name bulkdata --queries "$WORKDIR/queries.txt" --priority bulk \
  > "$WORKDIR/drain.txt" \
  || fail "initial bulk batch refused: $(cat "$WORKDIR/drain.txt")"

set +e
"$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$PORT" \
  --name bulkdata --queries "$WORKDIR/queries.txt" --priority bulk \
  2> "$WORKDIR/shed.err"
SHED_RC=$?
set -e
[ "$SHED_RC" -ne 0 ] || fail "over-quota batch was not shed"
grep -q 'Unavailable' "$WORKDIR/shed.err" \
  || fail "shed lacks Unavailable status: $(cat "$WORKDIR/shed.err")"
grep -Eq 'retry_after_ms=[1-9][0-9]*' "$WORKDIR/shed.err" \
  || fail "shed lacks a retry-after hint: $(cat "$WORKDIR/shed.err")"

# The same batch with a retry budget succeeds after honoring the hint.
"$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$PORT" \
  --name bulkdata --queries "$WORKDIR/queries.txt" --priority bulk \
  --retries 10 > "$WORKDIR/retried.txt" \
  || fail "shed batch did not recover with --retries: \
$(cat "$WORKDIR/retried.txt")"
grep -Eq '^ok batch n=8 ok=8' "$WORKDIR/retried.txt" \
  || fail "retried batch header: $(head -1 "$WORKDIR/retried.txt")"

# 3. Flash crowd: four bulk floods with retries hammer the quota while
# interactive point batches run against the unlimited collection. Every
# interactive batch must succeed; the flood must generate more sheds.
SHEDS_BEFORE="$(stats_field shed_quota)"
FLOOD_PIDS=()
for f in 1 2 3 4; do
  (
    for _ in $(seq 5); do
      "$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$PORT" \
        --name bulkdata --queries "$WORKDIR/queries.txt" \
        --priority bulk --retries 40 \
        >/dev/null 2>> "$WORKDIR/flood$f.err" || exit 1
    done
  ) &
  FLOOD_PIDS+=($!)
done

for i in $(seq 10); do
  "$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$PORT" \
    --name books --queries "$WORKDIR/queries.txt" \
    > "$WORKDIR/interactive.txt" \
    || fail "interactive batch $i failed during the flood: \
$(cat "$WORKDIR/interactive.txt")"
  grep -Eq '^ok batch n=8 ok=8' "$WORKDIR/interactive.txt" \
    || fail "interactive batch $i shed or errored during the flood: \
$(head -1 "$WORKDIR/interactive.txt")"
done

FLOOD_RC=0
for pid in "${FLOOD_PIDS[@]}"; do
  wait "$pid" || FLOOD_RC=1
done
[ "$FLOOD_RC" -eq 0 ] \
  || fail "a shed flood client never recovered within its retry budget: \
$(cat "$WORKDIR"/flood*.err 2>/dev/null | tail -4)"

# Loop-until with bound: the flood must have moved the shed counter.
for _ in $(seq 50); do
  SHEDS_AFTER="$(stats_field shed_quota)"
  [ -n "$SHEDS_AFTER" ] && [ "$SHEDS_AFTER" -gt "$SHEDS_BEFORE" ] && break
  sleep 0.1
done
[ "$SHEDS_AFTER" -gt "$SHEDS_BEFORE" ] \
  || fail "flood produced no quota sheds ($SHEDS_BEFORE -> $SHEDS_AFTER)"
[ "$(stats_field shed_deadline)" -ge 0 ] || fail "stats lost shed_deadline"
[ "$(stats_field queue_depth)" -eq 0 ] \
  || fail "executor queue not drained after the flood"

# 4. Protocol garbage during recovery: the daemon must shrug it off.
exec 9<>/dev/tcp/127.0.0.1/"$PORT" || fail "raw connection"
printf 'GET /overload HTTP/1.1\r\n\r\n' >&9
exec 9<&- 9>&-
sleep 0.3
kill -0 "$DAEMON_PID" || fail "daemon died on protocol garbage"
"$XCLUSTERCTL" remote estimate --connect 127.0.0.1:"$PORT" \
  --name books --query '//book' >/dev/null \
  || fail "daemon unhealthy after protocol garbage"

# 5. Request tracing: a traced batch's id must surface in the flight
# recorder and in the SIGQUIT debug dump, and the dump must not stop the
# daemon. The flood above ran with --trace-sample 1.0, so the ring also
# holds admission/executor/estimation spans for every batch.
"$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$PORT" \
  --name books --queries "$WORKDIR/queries.txt" --trace \
  > "$WORKDIR/traced.txt" \
  || fail "traced batch refused: $(cat "$WORKDIR/traced.txt")"
TRACE_ID="$(sed -n 's/^trace_id=\([0-9a-f]\{16\}\)$/\1/p' "$WORKDIR/traced.txt")"
[ -n "$TRACE_ID" ] \
  || fail "batch --trace printed no trace id: $(cat "$WORKDIR/traced.txt")"

# The flight scrape is the same JSON document the SIGQUIT dump writes, so
# the schema checker validates it wholesale (per-record lanes, statuses,
# queue/service breakdown) and pins the traced batch's id.
"$XCLUSTERCTL" remote flight --connect 127.0.0.1:"$PORT" \
  > "$WORKDIR/flight.json" || fail "remote flight refused"
python3 scripts/check_metrics_schema.py "$WORKDIR/flight.json" \
  --require-trace-id "$TRACE_ID" \
  || fail "live flight scrape lost trace $TRACE_ID"

# Live scrapes: Prometheus text must carry metric metadata, and the
# per-lane latency fields must have counted the interactive traffic above.
"$XCLUSTERCTL" remote stats --prom --connect 127.0.0.1:"$PORT" \
  > "$WORKDIR/prom.txt" || fail "remote stats --prom refused"
grep -q '^# TYPE ' "$WORKDIR/prom.txt" \
  || fail "Prometheus scrape has no TYPE metadata: $(head -3 "$WORKDIR/prom.txt")"
[ "$(stats_field lane_interactive_n)" -gt 0 ] \
  || fail "stats lost the per-lane interactive latency counter"
[ "$(stats_field lane_bulk_n)" -gt 0 ] \
  || fail "stats lost the per-lane bulk latency counter"

# SIGQUIT writes flight + Chrome-trace dumps while the daemon keeps serving.
kill -QUIT "$DAEMON_PID"
for _ in $(seq 100); do
  [ "$(grep -c '^dump: wrote ' "$WORKDIR/daemon.err" 2>/dev/null)" -ge 2 ] \
    && break
  sleep 0.1
done
FLIGHT_DUMP="$(ls "$WORKDIR"/dump-*.flight.json 2>/dev/null | head -1)"
TRACE_DUMP="$(ls "$WORKDIR"/dump-*.trace.json 2>/dev/null | head -1)"
[ -n "$FLIGHT_DUMP" ] || fail "SIGQUIT wrote no flight dump: \
$(cat "$WORKDIR/daemon.err")"
[ -n "$TRACE_DUMP" ] || fail "SIGQUIT wrote no trace dump"
kill -0 "$DAEMON_PID" || fail "daemon died while writing the debug dump"
"$XCLUSTERCTL" remote estimate --connect 127.0.0.1:"$PORT" \
  --name books --query '//book' >/dev/null \
  || fail "daemon unhealthy after the debug dump"

# Span recording compiles out under -DXCLUSTER_TELEMETRY=OFF; flight
# records are product behavior and must validate either way.
if python3 -c \
    'import json,sys; sys.exit(0 if json.load(open(sys.argv[1]))["traceEvents"] else 1)' \
    "$TRACE_DUMP"; then
  python3 scripts/check_metrics_schema.py "$FLIGHT_DUMP" \
    --trace "$TRACE_DUMP" --require-trace-id "$TRACE_ID" \
    || fail "SIGQUIT dump schema check failed"
else
  echo "chaos_smoke: telemetry compiled out; skipping span dump check"
  python3 scripts/check_metrics_schema.py "$FLIGHT_DUMP" \
    --require-trace-id "$TRACE_ID" \
    || fail "flight dump schema check failed for $FLIGHT_DUMP"
fi

# Slow-query log: optional at a 1ms threshold, but if anything was logged
# every line must be a JSON object naming its trace and lane.
if [ -s "$WORKDIR/slow.jsonl" ]; then
  python3 - "$WORKDIR/slow.jsonl" <<'PY' || fail "slow-query log is not JSONL"
import json, sys
for line in open(sys.argv[1]):
    record = json.loads(line)
    assert "trace_id" in record and "lane" in record and "wall_us" in record
PY
fi

# 6. Graceful drain, then the admission counters must be in the exported
# snapshot: admitted and quota-shed traffic both happened above.
stop_daemon
if python3 -c \
    'import json,sys; sys.exit(0 if json.load(open(sys.argv[1]))["counters"] else 1)' \
    "$WORKDIR/metrics.json"; then
  python3 scripts/check_metrics_schema.py "$WORKDIR/metrics.json" \
    --require-counter service.admission.admitted \
    --require-counter service.admission.dispatched \
    --require-counter service.admission.shed.quota \
    --require-counter service.admission.lane.bulk.shed \
    --require-counter net.sheds \
    || fail "metrics schema / admission counters check failed"
else
  echo "chaos_smoke: telemetry compiled out; skipping metrics schema check"
fi

echo "chaos_smoke: OK"
