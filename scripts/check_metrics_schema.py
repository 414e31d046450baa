#!/usr/bin/env python3
"""Validate a metrics snapshot (and optionally a trace file) exported by
xclusterctl, a BENCH_<name>.json result file written by the benches, or a
flight-recorder dump (SIGQUIT / `remote flight`).

Usage:
    check_metrics_schema.py METRICS_BENCH_OR_FLIGHT_JSON
                            [--trace TRACE_JSON]
                            [--require-counter NAME]...
                            [--require-histogram NAME]...
                            [--require-trace-id HEXID]

Plain metrics snapshots are checked against the schema documented in
docs/OBSERVABILITY.md: the build-phase counters a real build must produce
are present and non-zero, and histograms carry sane quantiles.

With --require-counter (repeatable), the named counters must additionally
be present and non-zero. A name containing glob characters (fnmatch:
`cluster.*`) requires the family to exist with at least one non-zero
member — the cluster smoke uses it to prove the routing layer counted
without enumerating every counter. When at least one is given for a plain snapshot,
the build-phase defaults above are NOT required — the caller is validating
a snapshot from a process that served rather than built (e.g. the
chaos-smoke daemon), and states its own activity requirements instead.
Structural checks always run. For BENCH files the flag is additive on the
embedded snapshot.

BENCH files (auto-detected by their top-level "benchmark"/"entries" keys)
are checked for a non-empty entries array of named measurements plus a
structurally valid embedded metrics snapshot; the "service" bench must
additionally show serving activity (non-zero service.requests.ok and a
populated service.request_latency_ns histogram).

Flight dumps (auto-detected by their top-level "flight_records" key) are
checked record by record: hex trace ids, known lanes and statuses, and
counts that add up. --require-trace-id additionally demands a record with
that exact trace id — the chaos-smoke uses it to prove a traced request
landed in the ring.

With --trace, also checks the trace file is well-formed Chrome trace
format JSON with at least one complete event, timestamps sorted
non-decreasing (the recorder serializes in stable start order), and any
"args" trace ids well-formed. Exits non-zero with a diagnostic on the
first violation.
"""

import argparse
import fnmatch
import json
import sys

REQUIRED_NONZERO_COUNTERS = [
    "build.builds",
    "build.reference_nodes",
    "parse.documents",
    "parse.nodes",
    "storage.xcsf.bytes_encoded",
]

REQUIRED_HISTOGRAMS = [
    "build.phase1_ns",
    "build.phase2_ns",
    "parse.latency_ns",
    "storage.xcsf.encode_ns",
]


def fail(message):
    print(f"check_metrics_schema: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_histogram(name, hist):
    if not isinstance(hist, dict):
        fail(f"histogram {name}: must be an object")
    for field in ("count", "sum_ns", "min_ns", "max_ns"):
        if not isinstance(hist.get(field), int) or hist[field] < 0:
            fail(f"histogram {name}: '{field}' must be a non-negative int")
    for field in ("p50_ns", "p95_ns", "p99_ns"):
        if not isinstance(hist.get(field), (int, float)):
            fail(f"histogram {name}: '{field}' must be a number")
    if not isinstance(hist.get("buckets"), list):
        fail(f"histogram {name}: 'buckets' must be an array")
    total = 0
    previous_bound = -1
    for bucket in hist["buckets"]:
        le = bucket.get("le_ns")
        count = bucket.get("count")
        if le == "+Inf":
            bound = float("inf")
        elif isinstance(le, int) and le > 0:
            bound = le
        else:
            fail(f"histogram {name}: bad bucket bound {le!r}")
        if bound <= previous_bound:
            fail(f"histogram {name}: bucket bounds not increasing")
        previous_bound = bound
        if not isinstance(count, int) or count <= 0:
            fail(f"histogram {name}: buckets must have positive counts")
        total += count
    if total != hist["count"]:
        fail(
            f"histogram {name}: bucket counts sum to {total}, "
            f"'count' says {hist['count']}"
        )
    if hist["count"] > 0:
        if hist["min_ns"] > hist["max_ns"]:
            fail(f"histogram {name}: min_ns > max_ns")
        if not (hist["p50_ns"] <= hist["p95_ns"] <= hist["p99_ns"]):
            fail(f"histogram {name}: quantiles not monotone")


def check_snapshot_shape(snapshot):
    """Structural checks shared by standalone snapshots and BENCH files."""
    if not isinstance(snapshot, dict):
        fail("metrics snapshot must be an object")
    for key in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(key), dict):
            fail(f"metrics key '{key}' must be an object keyed by name")
    for name, value in snapshot["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"counter {name}: value must be a non-negative int")
    for name, value in snapshot["gauges"].items():
        if not isinstance(value, int):
            fail(f"gauge {name}: value must be an int")
    for name, hist in snapshot["histograms"].items():
        check_histogram(name, hist)


def is_glob(name):
    return any(c in name for c in "*?[")


def require_nonzero_counter(snapshot, name):
    counters = snapshot["counters"]
    if is_glob(name):
        # Wildcard semantics: the family must exist, and at least one
        # member must have counted — `--require-counter 'cluster.*'` proves
        # the cluster layer was exercised without naming every counter.
        matches = fnmatch.filter(counters.keys(), name)
        if not matches:
            fail(f"no counter matches required pattern '{name}'")
        if not any(counters[match] > 0 for match in matches):
            fail(
                f"all {len(matches)} counters matching '{name}' are zero: "
                f"{sorted(matches)}"
            )
        return
    if name not in counters:
        fail(f"required counter '{name}' missing")
    if counters[name] == 0:
        fail(f"required counter '{name}' is zero")


def require_populated_histogram(snapshot, name):
    histograms = snapshot["histograms"]
    if is_glob(name):
        matches = fnmatch.filter(histograms.keys(), name)
        if not matches:
            fail(f"no histogram matches required pattern '{name}'")
        if not any(histograms[match]["count"] > 0 for match in matches):
            fail(
                f"all {len(matches)} histograms matching '{name}' are "
                f"empty: {sorted(matches)}"
            )
        return
    if name not in histograms:
        fail(f"required histogram '{name}' missing")
    if histograms[name]["count"] == 0:
        fail(f"required histogram '{name}' has no samples")


def check_metrics(path, require_counters=(), require_histograms=()):
    with open(path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    check_snapshot_shape(snapshot)
    if require_counters or require_histograms:
        for name in require_counters:
            require_nonzero_counter(snapshot, name)
        for name in require_histograms:
            require_populated_histogram(snapshot, name)
    else:
        for name in REQUIRED_NONZERO_COUNTERS:
            require_nonzero_counter(snapshot, name)
        for name in REQUIRED_HISTOGRAMS:
            require_populated_histogram(snapshot, name)
    return len(snapshot["counters"]), len(snapshot["histograms"])


# Per-benchmark activity requirements for BENCH files: counters that must
# be non-zero and histograms that must have samples, keyed by the file's
# top-level "benchmark" name.
BENCH_REQUIRED = {
    "service": (
        ["service.requests.ok", "service.batches"],
        ["service.request_latency_ns", "service.batch_ns"],
    ),
    "estimator": (
        [
            "estimate.queries",
            "estimator.plan_cache.hits",
            "estimator.plan_cache.misses",
            "estimator.reach_cache.hits",
        ],
        ["estimate.latency_ns"],
    ),
    "net": (
        [
            "net.frames.rx",
            "net.frames.tx",
            "net.bytes.rx",
            "net.bytes.tx",
            "net.batches",
            "net.connections.accepted",
        ],
        ["net.request_latency_ns"],
    ),
}


# Benchmarks whose vectorized batch path must be visible in the entries:
# at least one entry carrying the lane-group shape fields.
BENCH_BATCH_FIELDS = ("batch_groups", "lanes_per_group")
BENCH_NEEDS_BATCH_ENTRY = ("service", "estimator")

# Entries that must be present by exact name, keyed by benchmark. The
# service bench must report its cold start from the `.xcsf` image:
# time-to-first-estimate and the mapped-image bit-identity verdict.
BENCH_REQUIRED_ENTRIES = {
    "service": ("cold_start/xcsf",),
}


def check_bench(report, require_counters=(), require_histograms=()):
    entries = report.get("entries")
    if not isinstance(entries, list) or not entries:
        fail("bench: 'entries' must be a non-empty array")
    batch_entries = 0
    for entry in entries:
        if not isinstance(entry, dict) or not isinstance(
            entry.get("name"), str
        ):
            fail(f"bench: entry must be an object with a 'name': {entry!r}")
        numeric = [
            key
            for key, value in entry.items()
            if key != "name" and isinstance(value, (int, float))
        ]
        if not numeric:
            fail(f"bench: entry '{entry['name']}' has no measurements")
        # Lane-group shape fields travel as a pair: an entry reporting one
        # must report both, as non-negative numbers.
        present = [key for key in BENCH_BATCH_FIELDS if key in entry]
        if present:
            for key in BENCH_BATCH_FIELDS:
                value = entry.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    fail(
                        f"bench: entry '{entry['name']}' has "
                        f"'{present[0]}' but '{key}' is not a "
                        f"non-negative number"
                    )
            batch_entries += 1
    if (
        report.get("benchmark") in BENCH_NEEDS_BATCH_ENTRY
        and batch_entries == 0
    ):
        fail(
            f"bench '{report['benchmark']}': no entry carries the "
            f"vectorized batch fields {BENCH_BATCH_FIELDS}"
        )
    entry_names = {entry["name"] for entry in entries}
    for name in BENCH_REQUIRED_ENTRIES.get(report.get("benchmark"), ()):
        if name not in entry_names:
            fail(f"bench '{report['benchmark']}': required entry "
                 f"'{name}' missing")
    metrics = report.get("metrics")
    if metrics is None:
        fail("bench: embedded 'metrics' snapshot missing")
    check_snapshot_shape(metrics)
    required_counters, required_histograms = BENCH_REQUIRED.get(
        report["benchmark"], ([], [])
    )
    for name in required_counters:
        require_nonzero_counter(metrics, name)
    for name in required_histograms:
        require_populated_histogram(metrics, name)
    for name in require_counters:
        require_nonzero_counter(metrics, name)
    for name in require_histograms:
        require_populated_histogram(metrics, name)
    return len(entries), len(metrics["counters"])


def is_hex_trace_id(value):
    return (
        isinstance(value, str)
        and len(value) == 16
        and all(c in "0123456789abcdef" for c in value)
    )


def check_trace(path, require_trace_id=None):
    with open(path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace: 'traceEvents' must be a non-empty array")
    previous_ts = -1
    seen_ids = set()
    for event in events:
        for field in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
            if field not in event:
                fail(f"trace event missing '{field}': {event!r}")
        if event["ph"] != "X":
            fail(f"trace event is not a complete event: {event!r}")
        if event["ts"] < 0 or event["dur"] < 0:
            fail(f"trace event has negative time: {event!r}")
        # The recorder sorts by start time before serializing; a dump that
        # violates that order points at a torn snapshot.
        if event["ts"] < previous_ts:
            fail(f"trace event timestamps not sorted at: {event!r}")
        previous_ts = event["ts"]
        args = event.get("args")
        if args is not None:
            if not isinstance(args, dict):
                fail(f"trace event 'args' must be an object: {event!r}")
            if "trace_id" in args:
                if not is_hex_trace_id(args["trace_id"]):
                    fail(f"trace event has malformed trace_id: {event!r}")
                seen_ids.add(args["trace_id"])
    if require_trace_id is not None:
        wanted = require_trace_id.lower().zfill(16)
        if wanted not in seen_ids:
            fail(f"trace: no span carries required trace id {wanted}")
    return len(events)


FLIGHT_LANES = ("interactive", "bulk")
FLIGHT_STATUSES = (
    "ok",
    "partial_error",
    "not_found",
    "shed_quota",
    "shed_deadline",
    "shed_other",
    "shutdown",
)


def check_flight(document, require_trace_id=None):
    records = document.get("flight_records")
    if not isinstance(records, list):
        fail("flight: 'flight_records' must be an array")
    capacity = document.get("capacity")
    recorded = document.get("recorded")
    if not isinstance(capacity, int) or capacity <= 0:
        fail("flight: 'capacity' must be a positive int")
    if not isinstance(recorded, int) or recorded < len(records):
        fail("flight: 'recorded' must be an int >= retained record count")
    seen_ids = set()
    for record in records:
        if not isinstance(record, dict):
            fail(f"flight record must be an object: {record!r}")
        if not is_hex_trace_id(record.get("trace_id")):
            fail(f"flight record has malformed trace_id: {record!r}")
        seen_ids.add(record["trace_id"])
        if not isinstance(record.get("collection"), str):
            fail(f"flight record missing 'collection': {record!r}")
        if record.get("lane") not in FLIGHT_LANES:
            fail(f"flight record has unknown lane: {record!r}")
        if record.get("status") not in FLIGHT_STATUSES:
            fail(f"flight record has unknown status: {record!r}")
        for field in (
            "queries",
            "ok",
            "end_ns",
            "wall_ns",
            "queue_ns",
            "service_ns",
            "bytes",
            "retry_after_ms",
        ):
            if not isinstance(record.get(field), int) or record[field] < 0:
                fail(
                    f"flight record '{field}' must be a non-negative int: "
                    f"{record!r}"
                )
        if record["ok"] > record["queries"]:
            fail(f"flight record has ok > queries: {record!r}")
    if require_trace_id is not None:
        wanted = require_trace_id.lower().zfill(16)
        if wanted not in seen_ids:
            fail(
                f"flight: required trace id {wanted} not found among "
                f"{len(records)} records"
            )
    return len(records)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "metrics_json", help="metrics snapshot or BENCH file to validate"
    )
    parser.add_argument("--trace", help="Chrome trace file to validate")
    parser.add_argument(
        "--require-counter",
        action="append",
        default=[],
        metavar="NAME",
        help="counter that must be present and non-zero (repeatable); "
        "for plain snapshots this replaces the build-phase defaults",
    )
    parser.add_argument(
        "--require-histogram",
        action="append",
        default=[],
        metavar="NAME",
        help="histogram that must be present with samples (repeatable); "
        "for plain snapshots this replaces the build-phase defaults",
    )
    parser.add_argument(
        "--require-trace-id",
        metavar="HEXID",
        help="a flight record (and, with --trace, a span) with this "
        "trace id must exist",
    )
    args = parser.parse_args()

    with open(args.metrics_json, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, dict) and "flight_records" in document:
        num_records = check_flight(document, args.require_trace_id)
        print(
            f"check_metrics_schema: OK: {args.metrics_json} "
            f"(flight dump, {num_records} records)"
        )
    elif isinstance(document, dict) and "benchmark" in document:
        num_entries, num_counters = check_bench(
            document, args.require_counter, args.require_histogram
        )
        print(
            f"check_metrics_schema: OK: {args.metrics_json} "
            f"(bench '{document['benchmark']}', {num_entries} entries, "
            f"{num_counters} counters)"
        )
    else:
        num_counters, num_histograms = check_metrics(
            args.metrics_json, args.require_counter, args.require_histogram
        )
        print(
            f"check_metrics_schema: OK: {args.metrics_json} "
            f"({num_counters} counters, {num_histograms} histograms)"
        )
    if args.trace:
        num_events = check_trace(args.trace, args.require_trace_id)
        print(f"check_metrics_schema: OK: {args.trace} ({num_events} events)")


if __name__ == "__main__":
    main()
