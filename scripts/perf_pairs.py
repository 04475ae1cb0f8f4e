#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs.

Usage: perf_pairs.py --parent DIR --change DIR --workload NAME
           [--seed N] [--pairs 10] [--seconds 10] [--trace 0|1]

Runs `python3 perfbench/run.py` in two checkouts of the repository, one
pair at a time, flipping which side runs first on every pair (pair 0 runs
the parent first, pair 1 the change first, ...), so host drift hits both
sides alike. Host numbers are only comparable in such pairs.

For every metric both sides report, prints each side's median and
quartiles and in how many pairs the change was better, in the direction
BENCHMARK.json (in the change checkout) gives for the metric; metrics it
does not list are printed without a win count.

Exit codes: 0 = every run was correct and the modeled metrics agree;
1 = a run reported `correct: false` or `failed > 0`, or some `modeled_*` /
`paper_*` value differs between the sides (or between runs: they are
deterministic per seed); 2 = a run produced no result (build failure,
timeout, no JSON on its last line).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

DETERMINISTIC = ("modeled_", "paper_")


def run_once(checkout, args):
    """One perfbench run in `checkout`; returns its JSON result or None."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def metric_values(result):
    """{name: value} of a result's metrics."""
    return {name: m["value"] for name, m in result.get("metrics", {}).items()
            if isinstance(m, dict) and isinstance(m.get("value"), (int, float))}


def quartiles(xs):
    """(q1, median, q3) of a non-empty list."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def directions(checkout):
    """{metric: "higher"|"lower"} from the checkout's BENCHMARK.json."""
    try:
        with open(os.path.join(checkout, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}
    out = {}
    for key in ("end_to_end", "per_layer"):
        for m in bench.get(key, []):
            out[m["name"]] = m.get("better")
    return out


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    bad = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args)
            if result is None:
                print(f"pair {pair}: {side} run produced no result",
                      file=sys.stderr)
                return 2
            if result.get("correct") is not True or result.get("failed", 0):
                bad.append(f"pair {pair} {side}: correct="
                           f"{result.get('correct')} failed="
                           f"{result.get('failed')}")
            runs[side].append(metric_values(result))
        print(f"pair {pair} done ({order[0]} first)", file=sys.stderr)

    better = directions(args.change)
    names = sorted(set(runs["parent"][0]) & set(runs["change"][0]))
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of "
          f"{args.seconds:g} s runs")
    print(f"{'metric':40s} {'parent q1/med/q3':>36s} "
          f"{'change q1/med/q3':>36s}  won")
    mismatched = []
    for name in names:
        p = [r[name] for r in runs["parent"] if name in r]
        c = [r[name] for r in runs["change"] if name in r]
        if name.startswith(DETERMINISTIC) and len(set(p + c)) > 1:
            mismatched.append(name)
        won = ""
        if better.get(name) in ("higher", "lower") and len(p) == len(c):
            sign = 1 if better[name] == "higher" else -1
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            won = f"{wins}/{len(p)}"
        fmt = lambda q: "/".join(f"{v:.6g}" for v in q)
        print(f"{name:40s} {fmt(quartiles(p)):>36s} "
              f"{fmt(quartiles(c)):>36s}  {won}")

    for line in bad:
        print(f"FAIL: {line}")
    for name in mismatched:
        print(f"FAIL: {name} differs between runs or sides")
    return 1 if bad or mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
