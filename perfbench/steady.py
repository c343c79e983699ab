#!/usr/bin/env python3
"""Steadiness report: runs one workload repeatedly and prints, for every
metric, its per-run values, median, quartiles and spread.

    python3 perfbench/steady.py --workload serve --runs 10 [--first-seed 1]
        [--seconds 20] [--trace 0|1]

Run from the repository root. Run i uses seed first-seed + i. The spread
is (Q3 - Q1) / median with Python's statistics.quantiles(values, n=4);
for end-to-end metrics it is compared with the metric's bound in
BENCHMARK.json (a spread under a third of the bound is steady). This is
the evidence the bounds are set from.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        last = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
        try:
            out = json.loads(last)
        except ValueError:
            sys.exit(f"run with seed {seed} printed no result "
                     f"(exit {res.returncode})")
        if res.returncode != 0 or not out["correct"]:
            sys.exit(f"run with seed {seed} was not correct: {last}")
        for name, m in out["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in out["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, trace={args.trace}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
              f"{'' if bound is None else bound:>6}  {verdict}")


if __name__ == "__main__":
    main()
