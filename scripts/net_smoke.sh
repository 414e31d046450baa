#!/usr/bin/env bash
# End-to-end smoke test for the socket front end: starts a
# `serve --listen` daemon on an ephemeral loopback port, drives it with
# `xclusterctl remote` (estimate, batch, load, stats), checks the
# determinism gate (remote batch output is line-identical to the same
# batch over `serve --stdin`, the header's wall time stripped, for 1 and 8
# workers), pokes it with protocol garbage, and verifies a clean SIGTERM
# drain with no connections left behind.
#
# Usage: scripts/net_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
XCLUSTERCTL="$BUILD_DIR/tools/xclusterctl"
WORKDIR="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
  echo "net_smoke: FAIL: $*" >&2
  exit 1
}

[ -x "$XCLUSTERCTL" ] || fail "$XCLUSTERCTL not built"

# Drops the two durations a batch or estimate answer carries, the batch
# header's wall time and `ok estimate`'s call time; any other duration
# (say, on an item line) is left in place to fail the diff.
strip_latency() {
  sed -E -e 's/^(ok batch .*) us=[0-9]+$/\1/' \
    -e 's/^(ok estimate [^ ]+) us=[0-9]+$/\1/'
}

# Starts a daemon with the given extra flags; sets DAEMON_PID and PORT.
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

# 1. Build a synopsis to serve.
"$XCLUSTERCTL" build --in examples/books.xml --bstr 0 \
  --out "$WORKDIR/books.xcsf" >/dev/null

# 2. Daemon up; exercise every remote subcommand.
start_daemon --workers 2 --metrics-json "$WORKDIR/metrics.json"
echo "--- daemon on port $PORT ---"

"$XCLUSTERCTL" remote load --connect 127.0.0.1:"$PORT" \
  --name books --path "$WORKDIR/books.xcsf" > "$WORKDIR/load.txt"
grep -Eq '^ok load books gen=[0-9]+' "$WORKDIR/load.txt" \
  || fail "remote load: $(cat "$WORKDIR/load.txt")"

"$XCLUSTERCTL" remote estimate --connect 127.0.0.1:"$PORT" \
  --name books --query '//book' > "$WORKDIR/est.txt"
grep -Eq '^ok estimate [0-9.eE+-]+ us=[0-9]+' "$WORKDIR/est.txt" \
  || fail "remote estimate: $(cat "$WORKDIR/est.txt")"

"$XCLUSTERCTL" remote stats --connect 127.0.0.1:"$PORT" > "$WORKDIR/stats.txt"
grep -Eq '^ok stats synopses=1 workers=2 ' "$WORKDIR/stats.txt" \
  || fail "remote stats: $(cat "$WORKDIR/stats.txt")"

printf '//book\n//book[/price]\n][broken\n//book\n' > "$WORKDIR/queries.txt"
"$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$PORT" \
  --name books --queries "$WORKDIR/queries.txt" > "$WORKDIR/batch.txt" \
  && fail "remote batch with a broken query should exit non-zero"
grep -Eq '^ok batch n=4 ok=3 err=1 us=[0-9]+' "$WORKDIR/batch.txt" \
  || fail "remote batch header: $(head -1 "$WORKDIR/batch.txt")"

# 3. Protocol garbage must not take the daemon down: an HTTP probe (the
# first 4 bytes decode as an absurd frame length) and a mid-frame close.
exec 9<>/dev/tcp/127.0.0.1/"$PORT" \
  || fail "could not open a raw connection"
printf 'GET / HTTP/1.1\r\n\r\n' >&9
exec 9<&- 9>&-
exec 8<>/dev/tcp/127.0.0.1/"$PORT" || fail "raw connection 2"
printf '\x05\x00\x00\x00\x01' >&8   # 5-byte prefix of a real frame, then gone
exec 8<&- 8>&-
sleep 0.3
kill -0 "$DAEMON_PID" || fail "daemon died on protocol garbage"
"$XCLUSTERCTL" remote estimate --connect 127.0.0.1:"$PORT" \
  --name books --query '//book' >/dev/null \
  || fail "daemon unhealthy after protocol garbage"

# 4. Graceful drain; the exit metrics must show zero open connections.
stop_daemon
python3 - "$WORKDIR/metrics.json" <<'EOF'
import json, sys
snapshot = json.load(open(sys.argv[1]))
gauges = snapshot.get("gauges", {})
if gauges and gauges.get("net.connections", 0) != 0:
    raise SystemExit(f"net.connections != 0 at exit: {gauges}")
counters = snapshot.get("counters", {})
if counters and counters.get("net.frames.rx", 0) == 0:
    raise SystemExit("net.frames.rx is zero despite remote traffic")
EOF

# 5. Determinism gate: remote batch vs serve --stdin, 1 and 8 workers.
for WORKERS in 1 8; do
  { printf 'batch books 4\n'; cat "$WORKDIR/queries.txt"; } \
    | "$XCLUSTERCTL" serve --stdin --workers "$WORKERS" \
        --preload books="$WORKDIR/books.xcsf" \
    | strip_latency > "$WORKDIR/stdin_w$WORKERS.txt"

  start_daemon --workers "$WORKERS" --preload books="$WORKDIR/books.xcsf"
  "$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$PORT" \
    --name books --queries "$WORKDIR/queries.txt" \
    | strip_latency > "$WORKDIR/remote_w$WORKERS.txt" || true
  stop_daemon

  diff "$WORKDIR/stdin_w$WORKERS.txt" "$WORKDIR/remote_w$WORKERS.txt" \
    || fail "remote batch output diverges from serve --stdin at \
--workers $WORKERS"
done
diff "$WORKDIR/stdin_w1.txt" "$WORKDIR/stdin_w8.txt" \
  || fail "batch output depends on the worker count"

# 6. Bind failures: distinct exit code 3 with context.
start_daemon
BUSY_PORT="$PORT"
set +e
"$XCLUSTERCTL" serve --listen 127.0.0.1:"$BUSY_PORT" 2> "$WORKDIR/bind.err"
BIND_RC=$?
"$XCLUSTERCTL" serve --listen not-a-hostport 2> "$WORKDIR/spec.err"
SPEC_RC=$?
set -e
stop_daemon
[ "$BIND_RC" -eq 3 ] || fail "bind-in-use exit code $BIND_RC (want 3)"
grep -q 'Address already in use' "$WORKDIR/bind.err" \
  || fail "bind error lacks strerror context: $(cat "$WORKDIR/bind.err")"
[ "$SPEC_RC" -eq 3 ] || fail "bad --listen spec exit code $SPEC_RC (want 3)"

echo "net_smoke: OK"
