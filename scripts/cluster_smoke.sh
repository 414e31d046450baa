#!/usr/bin/env bash
# End-to-end smoke test for the cluster layer: two replica daemons behind
# one `xclusterctl route` router, all on ephemeral loopback ports.
# Exercises and checks:
#   1. replication      — `remote load --replicate` through the router must
#      install the synopsis on every replica under one generation;
#   2. determinism gate — `remote batch` through the router must be
#      line-identical (latency fields stripped) to the same batch sent
#      directly to each replica, with 1- and 8-worker replicas;
#   3. scatter-gather   — a `base@2` batch must sum the per-shard
#      estimates;
#   4. failover         — SIGKILLing one replica must not fail routed
#      batches; killing both must turn into a clean non-zero shed, with
#      the router still answering stats;
#   5. graceful drain   — SIGTERM exits 0; the exported metrics snapshot
#      must carry non-zero cluster.* counters (wildcard schema check) and
#      net.install.chunks: the router's own NetServer reassembles the
#      replication push before the router fans it out.
#
# Usage: scripts/cluster_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
XCLUSTERCTL="$BUILD_DIR/tools/xclusterctl"
WORKDIR="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
  echo "cluster_smoke: FAIL: $*" >&2
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

# Starts a daemon ("serve" or "route") with the given flags; sets
# DAEMON_PID / DAEMON_PORT (must run in this shell, not a subshell, so the
# daemon stays wait-able and killable by the later chaos steps).
start_daemon() {
  local tag="$1"; shift
  "$XCLUSTERCTL" "$@" \
    > "$WORKDIR/$tag.out" 2> "$WORKDIR/$tag.err" &
  DAEMON_PID=$!
  PIDS+=("$DAEMON_PID")
  for _ in $(seq 100); do
    grep -q '^listening ' "$WORKDIR/$tag.out" 2>/dev/null && break
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "$tag died at startup: \
$(cat "$WORKDIR/$tag.err")"
    sleep 0.1
  done
  DAEMON_PORT="$(sed -n 's/^listening .*:\([0-9]*\)$/\1/p' "$WORKDIR/$tag.out")"
  [ -n "$DAEMON_PORT" ] || fail "$tag: could not scrape the listening port"
}

# 1. Build a synopsis to replicate.
"$XCLUSTERCTL" build --in examples/books.xml --bstr 0 \
  --out "$WORKDIR/books.xcsf" >/dev/null

# 2. Fleet up: a narrow and a wide replica (the determinism gate must hold
# regardless of replica parallelism), then the router over both.
start_daemon r1 serve --listen 127.0.0.1:0 --workers 1
R1_PID="$DAEMON_PID"; R1_PORT="$DAEMON_PORT"
start_daemon r2 serve --listen 127.0.0.1:0 --workers 8
R2_PID="$DAEMON_PID"; R2_PORT="$DAEMON_PORT"
start_daemon router route --listen 127.0.0.1:0 \
  --peer 127.0.0.1:"$R1_PORT" --peer 127.0.0.1:"$R2_PORT" \
  --probe-ms 100 --metrics-json "$WORKDIR/metrics.json"
RT_PID="$DAEMON_PID"; RT_PORT="$DAEMON_PORT"
echo "--- replicas on $R1_PORT/$R2_PORT, router on $RT_PORT ---"

# 3. Replicate through the router: one push, every replica, one generation.
"$XCLUSTERCTL" remote load --replicate --connect 127.0.0.1:"$RT_PORT" \
  --name books --path "$WORKDIR/books.xcsf" > "$WORKDIR/install.txt"
grep -Eq '^ok install books gen=[0-9]+ installed books gen=[0-9]+ on 2 replicas' \
  "$WORKDIR/install.txt" || fail "replicate: $(cat "$WORKDIR/install.txt")"
GEN="$(sed -n 's/^ok install books gen=\([0-9]*\) .*/\1/p' "$WORKDIR/install.txt")"
for PORT in "$R1_PORT" "$R2_PORT"; do
  "$XCLUSTERCTL" remote estimate --connect 127.0.0.1:"$PORT" \
    --name books --query '//book' >/dev/null \
    || fail "replica :$PORT did not receive the replicated synopsis"
done
# Router stats must show both replicas healthy at the pushed generation.
# The per-replica gen comes from the background probe, so allow it a few
# probe periods to observe the install.
GEN_SEEN=""
for _ in $(seq 30); do
  "$XCLUSTERCTL" remote stats --connect 127.0.0.1:"$RT_PORT" \
    > "$WORKDIR/rstats.txt"
  if [ "$(grep -c "gen=$GEN" "$WORKDIR/rstats.txt")" -eq 2 ]; then
    GEN_SEEN=yes
    break
  fi
  sleep 0.1
done
grep -Eq '^ok stats role=router replicas=2 healthy=2' "$WORKDIR/rstats.txt" \
  || fail "router stats: $(head -1 "$WORKDIR/rstats.txt")"
[ -n "$GEN_SEEN" ] \
  || fail "router stats never showed generation $GEN on both replicas: \
$(cat "$WORKDIR/rstats.txt")"

# 4. Determinism gate: routed batch vs direct-to-replica batch, both
# worker widths. The header's wall time differs; everything else must not.
printf '//book\n//book[/price]\n][broken\n//book\n' > "$WORKDIR/queries.txt"
"$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$RT_PORT" \
  --name books --queries "$WORKDIR/queries.txt" 2>/dev/null \
  | strip_latency > "$WORKDIR/routed.txt" || true
[ -s "$WORKDIR/routed.txt" ] || fail "routed batch produced no output"
for PORT in "$R1_PORT" "$R2_PORT"; do
  "$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$PORT" \
    --name books --queries "$WORKDIR/queries.txt" 2>/dev/null \
    | strip_latency > "$WORKDIR/direct_$PORT.txt" || true
  diff "$WORKDIR/routed.txt" "$WORKDIR/direct_$PORT.txt" \
    || fail "routed batch diverges from direct batch against :$PORT"
done

# 5. Scatter-gather: shard replicas via the router, then a base@2 batch
# must sum the shards (each shard is the same synopsis, so exactly 2x).
for SHARD in part@0 part@1; do
  "$XCLUSTERCTL" remote load --replicate --connect 127.0.0.1:"$RT_PORT" \
    --name "$SHARD" --path "$WORKDIR/books.xcsf" >/dev/null \
    || fail "replicate $SHARD failed"
done
printf '//book\n' > "$WORKDIR/one.txt"
SINGLE="$("$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$RT_PORT" \
  --name books --queries "$WORKDIR/one.txt" | sed -n 's/^0 ok \([0-9.eE+-]*\).*/\1/p')"
DOUBLE="$("$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$RT_PORT" \
  --name part@2 --queries "$WORKDIR/one.txt" | sed -n 's/^0 ok \([0-9.eE+-]*\).*/\1/p')"
[ -n "$SINGLE" ] && [ -n "$DOUBLE" ] \
  || fail "could not scrape estimates (single='$SINGLE' double='$DOUBLE')"
python3 -c "import sys; s, d = float(sys.argv[1]), float(sys.argv[2]); \
sys.exit(0 if d == 2 * s else 1)" "$SINGLE" "$DOUBLE" \
  || fail "scatter-gather sum: part@2 gave $DOUBLE, expected 2 x $SINGLE"

# 6. Failover: SIGKILL the replica that owns `books`; routed batches must
# keep succeeding, and the router must count the failover. HRW ownership
# depends on the ephemeral ports, so detect the owner empirically: exactly
# one replica estimates a routed query while both are healthy. The counter
# must be one only the estimate path touches — the router's background
# `list` probes bump store hit counters on BOTH replicas every probe
# period, so those cannot tell the owner apart.
served_queries() {
  "$XCLUSTERCTL" remote stats --connect 127.0.0.1:"$1" --json \
    | python3 -c 'import json, sys; \
print(json.load(sys.stdin)["counters"].get("service.requests.ok", 0))'
}
Q1="$(served_queries "$R1_PORT")"
Q2="$(served_queries "$R2_PORT")"
"$XCLUSTERCTL" remote estimate --connect 127.0.0.1:"$RT_PORT" \
  --name books --query '//book' >/dev/null \
  || fail "routed estimate before failover failed"
if [ "$(served_queries "$R1_PORT")" -gt "$Q1" ]; then
  OWNER_PID="$R1_PID"; SURVIVOR_PID="$R2_PID"
elif [ "$(served_queries "$R2_PORT")" -gt "$Q2" ]; then
  OWNER_PID="$R2_PID"; SURVIVOR_PID="$R1_PID"
else
  fail "no replica served the routed books estimate"
fi
kill -9 "$OWNER_PID"
"$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$RT_PORT" \
  --name books --queries "$WORKDIR/one.txt" > "$WORKDIR/failover.txt" \
  || fail "routed batch failed after killing one replica: \
$(cat "$WORKDIR/failover.txt")"
grep -Eq '^ok batch n=1 ok=1 err=0' "$WORKDIR/failover.txt" \
  || fail "failover batch header: $(head -1 "$WORKDIR/failover.txt")"

# 7. Both replicas dead: the router must shed (non-zero exit, Unavailable)
# and keep answering stats itself.
kill -9 "$SURVIVOR_PID"
sleep 0.3
set +e
"$XCLUSTERCTL" remote batch --connect 127.0.0.1:"$RT_PORT" \
  --name books --queries "$WORKDIR/one.txt" > "$WORKDIR/shed.txt" \
  2> "$WORKDIR/shed.err"
SHED_RC=$?
set -e
[ "$SHED_RC" -ne 0 ] || fail "batch with no live replicas exited 0"
grep -q 'Unavailable' "$WORKDIR/shed.err" \
  || fail "shed error lacks Unavailable: $(cat "$WORKDIR/shed.err")"
kill -0 "$RT_PID" || fail "router died when the fleet did"
"$XCLUSTERCTL" remote stats --connect 127.0.0.1:"$RT_PORT" \
  | grep -Eq '^ok stats role=router replicas=2 healthy=0' \
  || fail "router stats wrong after fleet death"

# 8. Graceful drain; the exported snapshot must show cluster activity.
kill -TERM "$RT_PID"
RT_RC=0
wait "$RT_PID" || RT_RC=$?
[ "$RT_RC" -eq 0 ] || fail "router exited $RT_RC after SIGTERM (want 0)"
python3 scripts/check_metrics_schema.py "$WORKDIR/metrics.json" \
  --require-counter 'cluster.*' \
  --require-counter cluster.batches.routed \
  --require-counter cluster.installs.ok \
  --require-counter net.install.chunks \
  --require-counter cluster.batches.scatter \
  --require-counter cluster.failovers \
  --require-counter cluster.probes.ok \
  --require-histogram cluster.route_latency_ns \
  || fail "cluster metrics schema check failed"

echo "cluster_smoke: OK"
