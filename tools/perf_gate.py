"""Throughput gate: perfbench sweep-cold on a parent checkout vs this one.

Usage::

    git worktree add /tmp/parent HEAD^
    python3 tools/perf_gate.py /tmp/parent .

Runs ``python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 8
--trace 0`` in each checkout (each run uses its own checkout's ``src/``),
``RUNS`` times per side, alternating which side goes first.  Exit 1 if
any run reports ``correct: false`` or ``failed > 0``, or if the checked
side's median ``throughput_rps`` is below ``MIN_RATIO`` times the
parent's.  Both sides run on the same machine in the same
minute, so the gate needs no committed baseline that could go stale when
the machine or the code gets faster.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Mapping, Optional, Sequence

RUNS = 3
SECONDS = 8.0
MIN_RATIO = 0.70


def run_once(checkout: str) -> Dict:
    """One sweep-cold run in ``checkout``; the parsed final JSON line.

    perfbench's per-run table goes to stderr, so a failing run explains
    itself in the log.
    """
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", "sweep-cold", "--seed", "1", "--trace", "0",
         "--seconds", str(SECONDS)],
        stdout=subprocess.PIPE,
        timeout=60 + 10 * SECONDS,
        check=True,
        text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_rps(runs: Sequence[Mapping]) -> float:
    return statistics.median(
        run["metrics"]["throughput_rps"]["value"] for run in runs
    )


def verdict(parent: Sequence[Mapping], head: Sequence[Mapping]) -> List[str]:
    """Every reason to fail the gate; empty when it passes."""
    problems = []
    for side, runs in (("parent", parent), ("head", head)):
        for index, run in enumerate(runs):
            if not run["correct"] or run["failed"] > 0:
                problems.append(
                    f"{side} run {index}: correct={run['correct']} "
                    f"failed={run['failed']}"
                )
    base, mine = median_rps(parent), median_rps(head)
    if mine < MIN_RATIO * base:
        problems.append(
            f"median throughput_rps {mine:.1f} is below {MIN_RATIO:.2f} x "
            f"the parent's {base:.1f}"
        )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("head", help="checkout under test")
    args = parser.parse_args(argv)
    runs: Dict[str, List[Dict]] = {"parent": [], "head": []}
    for index in range(RUNS):
        order = ("parent", "head") if index % 2 == 0 else ("head", "parent")
        for side in order:
            run = run_once(getattr(args, side))
            runs[side].append(run)
            print(
                f"perf gate: {side} run {index}: throughput_rps="
                f"{run['metrics']['throughput_rps']['value']:.1f} "
                f"correct={run['correct']} failed={run['failed']}",
                flush=True,
            )
    problems = verdict(runs["parent"], runs["head"])
    for problem in problems:
        print(f"perf gate FAILED: {problem}")
    if not problems:
        print(
            f"perf gate ok: median throughput_rps "
            f"{median_rps(runs['head']):.1f} vs the parent's "
            f"{median_rps(runs['parent']):.1f} (floor {MIN_RATIO:.2f}x)"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
