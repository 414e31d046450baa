#!/usr/bin/env bash
# End-to-end smoke test for `xclusterctl serve --stdin`: builds a synopsis
# from the bundled example document, feeds a scripted request stream
# through the serve protocol, and validates the responses (including the
# batch framing: header + exactly k item lines, and batch items equal to
# the `estimate` command's answers). Also exercises the single- and
# multi-query estimate paths through the synopsis store, `verify`, and the
# rejection of a file that is not an XCSF image.
#
# Usage: scripts/service_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
XCLUSTERCTL="$BUILD_DIR/tools/xclusterctl"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

fail() {
  echo "service_smoke: FAIL: $*" >&2
  exit 1
}

[ -x "$XCLUSTERCTL" ] || fail "$XCLUSTERCTL not built"

# A value-predicate query (the session below spells it out literally).
RANGE_QUERY='//book[/year[range(1990,2005)]]'

# 1. Build a synopsis to serve.
"$XCLUSTERCTL" build --in examples/books.xml --bstr 0 \
  --out "$WORKDIR/books.xcsf" >/dev/null

# 2. Scripted session through the line protocol.
cat > "$WORKDIR/session.txt" <<'EOF'
# smoke session
help
load books WORKDIR/books.xcsf
list
estimate books //book
estimate books ][not-a-query
estimate missing //book
batch books 3
//book
//book[/year[range(1990,2005)]]
][broken
estimate books //book[/year[range(1990,2005)]]
batch books 2 explain
//book
//book[/year[range(1990,2005)]]
batch books 0 mode=scalar
stats
drop books
quit
EOF
sed -i "s#WORKDIR#$WORKDIR#" "$WORKDIR/session.txt"

"$XCLUSTERCTL" serve --stdin --workers 2 \
  < "$WORKDIR/session.txt" > "$WORKDIR/out.txt"

echo "--- serve responses ---"
cat "$WORKDIR/out.txt"

expect_line() { # expect_line <lineno> <grep-pattern>
  sed -n "${1}p" "$WORKDIR/out.txt" | grep -Eq "$2" \
    || fail "line $1 !~ /$2/: $(sed -n "${1}p" "$WORKDIR/out.txt")"
}

expect_line 1 '^ok help'
expect_line 2 '^ok load books gen=[0-9]+ clusters=[0-9]+'
expect_line 3 '^ok list 1$'
expect_line 4 '^synopsis books '
expect_line 5 '^ok estimate [0-9.eE+-]+ us=[0-9]+$'
expect_line 6 '^err InvalidArgument'
expect_line 7 '^err NotFound'
expect_line 8 '^ok batch n=3 ok=2 err=1 us=[0-9]+$'
expect_line 9 '^0 ok [0-9.eE+-]+$'
expect_line 10 '^1 ok [0-9.eE+-]+$'
expect_line 11 '^2 err InvalidArgument'
expect_line 12 '^ok estimate [0-9.eE+-]+ us=[0-9]+$'
expect_line 13 '^ok batch n=2 ok=2 err=0 us=[0-9]+$'
expect_line 14 '^0 ok [0-9.eE+-]+$'
expect_line 15 '^# estimate: [0-9.eE+-]+$'
expect_line 16 '^#   var +expected +sigma$'
expect_line 17 '^#   q0 \(root\) '
expect_line 18 '^#   q1 //book '
expect_line 19 '^1 ok [0-9.eE+-]+$'
expect_line 20 '^# estimate: [0-9.eE+-]+$'
expect_line 23 '^#   q1 //book '
expect_line 24 '^#   q2 /year '
expect_line 25 "^err unknown batch option 'mode=scalar'$"
expect_line 26 '^ok stats synopses=1 workers=2 '
expect_line 27 '^ok drop books$'
expect_line 28 '^ok bye$'
[ "$(wc -l < "$WORKDIR/out.txt")" -eq 28 ] \
  || fail "expected exactly 28 response lines"

# Every batch item must carry the `estimate` command's answer for the same
# query (the lane-group engine is gated to be bit-identical to
# EstimateOne): items 0/1 of the first batch against the estimates on
# lines 5 (//book) and 12 ($RANGE_QUERY), and the explain batch's items
# against the same two answers.
field() { sed -n "${1}p" "$WORKDIR/out.txt" | awk "{print \$$2}"; }
[ "$(field 9 3)" = "$(field 5 3)" ] || fail "batch item 0 != estimate //book"
[ "$(field 10 3)" = "$(field 12 3)" ] \
  || fail "batch item 1 != estimate $RANGE_QUERY"
[ "$(field 14 3)" = "$(field 5 3)" ] \
  || fail "explain item 0 != estimate //book"
[ "$(field 19 3)" = "$(field 12 3)" ] \
  || fail "explain item 1 != estimate $RANGE_QUERY"

# 3. Multi-query estimate through the synopsis store.
printf '//book\n%s\n' "$RANGE_QUERY" > "$WORKDIR/queries.txt"
"$XCLUSTERCTL" estimate --synopsis "$WORKDIR/books.xcsf" \
  --queries "$WORKDIR/queries.txt" --workers 2 > "$WORKDIR/multi.txt"
echo "--- multi-query estimate ---"
cat "$WORKDIR/multi.txt"
[ "$(grep -c '//book' "$WORKDIR/multi.txt")" -eq 2 ] \
  || fail "expected 2 per-query result lines"
grep -q ' us=' "$WORKDIR/multi.txt" \
  && fail "a per-query line carries a duration"
grep -Eq '^# 2 queries: ok=2 err=0 wall_us=[0-9]+$' "$WORKDIR/multi.txt" \
  || fail "missing batch summary line"

# 4. The built image verifies, and a single-query estimate and explain
# take the same load path as the batch.
"$XCLUSTERCTL" verify --synopsis "$WORKDIR/books.xcsf" --quiet \
  || fail "built .xcsf does not verify"
"$XCLUSTERCTL" estimate --synopsis "$WORKDIR/books.xcsf" \
  --query "$RANGE_QUERY" > "$WORKDIR/one.txt" \
  || fail "estimate --query failed"
"$XCLUSTERCTL" estimate --synopsis "$WORKDIR/books.xcsf" \
  --query "$RANGE_QUERY" --explain > "$WORKDIR/explain.txt" \
  || fail "estimate --explain failed"
echo "--- explain ---"
cat "$WORKDIR/explain.txt"
grep -Eq '^estimate: [0-9.eE+-]+$' "$WORKDIR/explain.txt" \
  || fail "explain output does not lead with the estimate"
[ "$(cat "$WORKDIR/one.txt")" = "$(field 12 3)" ] \
  || fail "estimate --query disagrees with the serve estimate"

# 5. A file that is not an XCSF image fails verify and estimate cleanly.
printf 'XCLUSTER 1\nlabels 0\n' > "$WORKDIR/not_xcsf.txt"
for command in verify estimate; do
  if "$XCLUSTERCTL" "$command" --synopsis "$WORKDIR/not_xcsf.txt" \
      --query //book > /dev/null 2> "$WORKDIR/reject.txt"; then
    fail "$command accepted a non-XCSF file"
  fi
  grep -q 'bad magic' "$WORKDIR/reject.txt" \
    || fail "$command did not report bad magic: $(cat "$WORKDIR/reject.txt")"
done

echo "service_smoke: OK"
