"""Steadiness report: run one workload under several seeds.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload served-mixed

Runs ``run.py`` once for each of seeds 1-10 with ``BENCHMARK.json``'s
``run_seconds`` and tracing off, and prints, per metric, the median, the
quartiles (as
``statistics.quantiles(values, n=4)`` gives them), and the spread: the
inter-quartile distance as a share of the median.  End-to-end metrics
are compared with their bound; a spread under a third of the bound is
``steady``.  The bounds in ``BENCHMARK.json`` were set from this report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main() -> int:
    parser = argparse.ArgumentParser(description="perfbench steadiness report")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in SEEDS:
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=900)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": done.returncode, **result})
        print(f"seed {seed}: exit={done.returncode} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    print(f"\n{args.workload}: {len(runs)} runs")
    print(f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound")
    for name in sorted(runs[0]["metrics"]):
        values = [run["metrics"][name]["value"] for run in runs]
        row = spread(values)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f"{bound:<6g} " + (
                "steady" if row["spread"] < bound / 3 else
                "within" if row["spread"] <= bound else "TOO WIDE")
        print(f"{name:<44} {row['median']:>12.4f} {row['q1']:>12.4f} "
              f"{row['q3']:>12.4f} {row['spread']:>8.4f}  {verdict}")
    bad = [r["seed"] for r in runs if r["exit"] != 0 or not r["correct"] or r["failed"]]
    if bad:
        print(f"runs with failures or wrong outputs: seeds {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
