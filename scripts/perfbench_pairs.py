#!/usr/bin/env python3
"""Runs perfbench on two checkouts in alternating pairs and compares them.

    python3 scripts/perfbench_pairs.py --parent ../parent --change . \\
        --workload distinct --seed 1 --pairs 10 --out distinct.jsonl

Each pair runs `python3 perfbench/run.py --workload W --seed N --seconds S
--trace T` once in each checkout, the parent first in even pairs and the
change first in odd ones; S is BENCHMARK.json's run_seconds. Each side
builds into its own CARGO_TARGET_DIR (<target-root>/parent and
<target-root>/change), so the two builds and input caches never mix.
Every run's last JSON line is appended to --out as it finishes.

For each metric the summary prints both sides' medians and quartiles, the
pairs the change won (by BENCHMARK.json's `better`; ties count for
neither), the median's relative change against the metric's bound, and
whether the parent's own quartile spread is wider than that bound
(`unresolved`). A gain needs at least nine wins in ten and a median
difference larger than the parent's quartile spread. Every run's
`attempted` is listed. The exit code is 1 if any run reported
`correct: false` or `failed > 0`, 2 on a usage or run error.

The script reads BENCHMARK.json from the change's checkout and edits
nothing under perfbench/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(spec, trace):
    """(name, better, bound) for the metrics a run with `trace` prints."""
    if trace:
        return [(m["name"], m["better"], None) for m in spec["per_layer"]]
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def run_once(checkout, target, workload, seed, seconds, trace):
    """Runs perfbench in `checkout`; returns its last JSON line, parsed."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr[-4000:])
        sys.stderr.write("perfbench_pairs: %s printed no result (exit %d)\n"
                         % (checkout, done.returncode))
        sys.exit(2)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def better(a, b, direction):
    """True if value a is strictly better than value b."""
    return a > b if direction == "higher" else a < b


def summarize(runs, specs):
    """Prints the comparison; returns True if every run was correct."""
    pairs = sorted({r["pair"] for r in runs})
    by = {(r["pair"], r["side"]): r for r in runs}
    complete = [p for p in pairs if all((p, s) in by for s in SIDES)]

    print("runs:")
    ok = True
    for r in runs:
        result = r["result"]
        good = result["correct"] and result["failed"] == 0
        ok = ok and good
        print("  pair %2d %-6s %-6s attempted=%d failed=%d correct=%s" % (
            r["pair"], r["side"], "first" if r["order"] == 0 else "second",
            result["attempted"], result["failed"],
            str(result["correct"]).lower()))

    print("metrics (%d complete pairs, %s seed %s):" % (
        len(complete), runs[0]["workload"], runs[0]["seed"]))
    print("  %-32s %12s %23s %12s %23s %6s %9s %7s  %s" % (
        "metric", "parent p50", "parent q1..q3", "change p50",
        "change q1..q3", "wins", "rel", "bound", "verdict"))
    for name, direction, bound in specs:
        values = {s: [by[(p, s)]["result"]["metrics"][name]["value"]
                      for p in complete
                      if name in by[(p, s)]["result"]["metrics"]]
                  for s in SIDES}
        if not values["parent"] or len(values["parent"]) != len(
                values["change"]):
            continue
        med = {s: statistics.median(values[s]) for s in SIDES}
        qs = {s: quartiles(values[s]) for s in SIDES}
        wins = sum(better(c, p, direction)
                   for p, c in zip(values["parent"], values["change"]))
        # Positive `rel` means the change is worse by that fraction.
        base = med["parent"]
        if base == 0:
            rel = 0.0 if med["change"] == 0 else float("inf")
        else:
            rel = (med["change"] - base) / abs(base)
            if direction == "higher":
                rel = -rel
        spread = qs["parent"][1] - qs["parent"][0]
        verdicts = []
        if bound is not None:
            if base != 0 and spread / abs(base) > bound:
                verdicts.append("unresolved (parent spread %.1f%% > bound)" %
                                (100 * spread / abs(base)))
            elif rel > bound:
                verdicts.append("REGRESSION")
        if (wins * 10 >= 9 * len(complete) and
                abs(med["change"] - base) > spread):
            verdicts.append("gain")
        print("  %-32s %12.6g %11.6g..%-11.6g %12.6g %11.6g..%-11.6g %3d/%-2d"
              " %+8.2f%% %7s  %s" % (
                  name, med["parent"], qs["parent"][0], qs["parent"][1],
                  med["change"], qs["change"][0], qs["change"][1], wins,
                  len(complete), -100 * rel,
                  "-" if bound is None else "%.0f%%" % (100 * bound),
                  ", ".join(verdicts)))
    print("rel: the change's median against the parent's, + when better")
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.split("\n")[1:]))
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--workload", required=True,
                        help="perfbench workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--target-root",
                        default=os.path.join(tempfile.gettempdir(),
                                             "perfbench_pairs"),
                        help="parent of the two CARGO_TARGET_DIRs")
    parser.add_argument("--out", help="append every run's JSON line here")
    args = parser.parse_args()

    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    spec = load_spec(checkouts["change"])
    seconds = spec["run_seconds"]
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            result = run_once(checkouts[side],
                              os.path.join(args.target_root, side),
                              args.workload, args.seed, seconds, args.trace)
            run = {"pair": pair, "side": side, "order": position,
                   "workload": args.workload, "seed": args.seed,
                   "seconds": seconds, "trace": args.trace,
                   "result": result}
            runs.append(run)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(run) + "\n")
            print("pair %d %s: attempted=%d failed=%d" % (
                pair, side, result["attempted"], result["failed"]),
                flush=True)
    return 0 if summarize(runs, metric_specs(spec, args.trace)) else 1


if __name__ == "__main__":
    sys.exit(main())
