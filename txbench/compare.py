#!/usr/bin/env python3
"""Compare a parent and a change on one workload, in alternating pairs.

    python3 txbench/compare.py --parent ../parent --change . \\
        --workload serve_ingest [--held-out]

Both trees must hold the same benchmark (txbench/ and BENCHMARK.json). Pair i
runs seed i on both sides, the parent first on even pairs and the change first
on odd ones, untraced, for run_seconds. There are always ten pairs, and only
the end-to-end metrics are compared. Each tree builds into its own
.bench_build.

Each run's `load` line gives the hypervisor's steal. A pair whose two runs'
steal differs by more than STEAL_GAP points is run again, up to RETRIES
times; if it still differs, it is kept and marked unequal.

The verdict per metric: a gain needs the change to win at least 9 of the 10
pairs (ties count for neither) and the medians to differ by more than the
parent's own quartile spread. A regression is a median worse than the
parent's by more than the metric's bound. A metric is unresolved when the
parent's spread is wider than its bound (unless every change run reads better
than every parent run), or when it would be a gain or a regression but some
pair ran under unequal steal.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
STEAL_GAP = 3.0
RETRIES = 2


def run(tree, bench, args, seed):
    """One untraced run: (metric values, steal percent or None)."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = bench["command"] + [
        "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    if args.held_out:
        cmd.append("--held-out")
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{tree}: seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{tree}: seed {seed} answered incorrectly; no comparison is valid")
    steal = None
    for line in lines:
        if line.startswith("load "):
            steal = json.loads(line[len("load "):]).get("steal_pct")
    return {k: v["value"] for k, v in result["metrics"].items()}, steal


def pair(bench, args, i):
    """Runs pair i until both sides saw alike steal, or the retries end."""
    order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
    for attempt in range(RETRIES + 1):
        got = {side: run(getattr(args, side), bench, args, i + 1) for side in order}
        steals = [got[side][1] for side in ("parent", "change")]
        equal = None not in steals and abs(steals[0] - steals[1]) <= STEAL_GAP
        if equal or attempt == RETRIES:
            return got, equal


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def fmt_steal(s):
    return "?" if s is None else f"{s:.1f}"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--held-out", action="store_true")
    args = p.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sides = {"parent": [], "change": []}
    unequal = 0
    for i in range(PAIRS):
        got, equal = pair(bench, args, i)
        for side in sides:
            sides[side].append(got[side][0])
        unequal += not equal
        print(f"pair {i + 1}: steal parent {fmt_steal(got['parent'][1])}%,"
              f" change {fmt_steal(got['change'][1])}%{'' if equal else ' UNEQUAL'}")
    print(f"{args.workload}, {PAIRS} pairs, {bench['run_seconds']} s per run"
          f"{', held-out seeds' if args.held_out else ''};"
          f" {unequal} pair(s) under unequal steal")
    print(f"{'metric':34} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'wins':>6}  verdict")
    for spec in bench["end_to_end"]:
        name, higher, bound = spec["name"], spec["better"] == "higher", spec["bound"]
        par = [r[name] for r in sides["parent"]]
        chg = [r[name] for r in sides["change"]]
        wins = sum((c > q) if higher else (c < q) for q, c in zip(par, chg))
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
        worse = (pmed - cmed if higher else cmed - pmed) / abs(pmed) if pmed else 0.0
        verdict = "same"
        if worse > bound:
            verdict = "REGRESSION"
        elif wins >= 0.9 * PAIRS and abs(cmed - pmed) > (pq3 - pq1) and worse < 0:
            verdict = "gain"
        dominates = min(chg) > max(par) if higher else max(chg) < min(par)
        if spread > bound and not dominates:
            verdict = f"unresolved (parent spread; reads {verdict})"
        elif unequal and verdict != "same":
            verdict = f"unresolved (steal; reads {verdict})"
        print(f"{name:34} {pq1:9.4g} {pmed:9.4g} {pq3:9.4g}   {cq1:9.4g} {cmed:9.4g} {cq3:9.4g}"
              f" {wins:3}/{PAIRS}  {verdict}")


if __name__ == "__main__":
    main()
