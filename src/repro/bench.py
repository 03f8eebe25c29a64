"""Micro-benchmark harness: ``repro bench``.

Times the three layers whose speed the roadmap actually tracks:

* ``optimize_intra`` -- the principle-based single-operator optimizer
  (the paper's core loop; microseconds matter because sweeps call it
  thousands of times);
* ``optimize_fused`` -- the fused-chain dataflow search;
* end-to-end ``repro batch`` throughput through the full service stack
  (parse -> cache -> pool -> report), in requests/second.

Methodology: every measurement is the **median of best-of-``repeats``
wall times** on fixed, representative shapes -- medians because a shared
CI box has tail noise, fixed shapes so numbers are comparable across
commits.  Results land in a ``BENCH_<date>.json`` with enough machine
context (python version, platform) to judge whether two files are even
comparable.  This is a trend tool, not a marketing tool: compare numbers
from the same machine class only.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from typing import Any, Callable, Dict, List

from .core import optimize_fused, optimize_intra
from .ir import matmul
from .service import BatchEngine, EngineConfig, intra_request

#: Bumped when the measurement methodology changes enough that old and
#: new BENCH files must not be trend-compared.
BENCH_SCHEMA_VERSION = 1

#: Fixed shapes: a small, a paper-typical, and a skinny-K operator.
INTRA_SHAPES = ((64, 32, 48), (512, 256, 256), (1024, 16, 1024))
FUSED_CHAINS = ((64, 32, 48, 56), (512, 256, 256, 128))
BUFFER_ELEMS = 64 << 10

#: Fixed DAG-planning point for the cold/warm memoization comparison.
PLAN_SCENARIO = "attention"
PLAN_BUFFER_ELEMS = 32 << 10


def _time_call(fn: Callable[[], Any], repeats: int) -> Dict[str, Any]:
    """Median/min/max of ``repeats`` timed calls (seconds)."""
    times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {
        "repeats": repeats,
        "median_seconds": round(statistics.median(times), 6),
        "min_seconds": round(min(times), 6),
        "max_seconds": round(max(times), 6),
    }


def bench_intra(repeats: int) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for m, k, l in INTRA_SHAPES:
        op = matmul("mm", m, k, l)
        out[f"{m}x{k}x{l}"] = _time_call(
            lambda op=op: optimize_intra(op, BUFFER_ELEMS), repeats
        )
    return out


def bench_fused(repeats: int) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for m, k, l, n in FUSED_CHAINS:
        op1 = matmul("mm1", m, k, l)
        op2 = matmul("mm2", m, l, n, a=op1.output)
        out[f"{m}x{k}x{l}x{n}"] = _time_call(
            lambda ops=[op1, op2]: optimize_fused(ops, BUFFER_ELEMS), repeats
        )
    return out


def bench_batch(batch_requests: int, jobs: int) -> Dict[str, Any]:
    """Cold-cache end-to-end batch throughput (requests/second).

    Every request is unique (the ``m`` dimension varies) so the LRU
    cache cannot answer any of them -- this measures the compute path,
    not cache lookup.
    """

    requests = [
        intra_request(32 + index, 24, 40, 4096)
        for index in range(batch_requests)
    ]
    engine = BatchEngine(EngineConfig(jobs=jobs, cache_size=4))
    start = time.perf_counter()
    report = engine.run_batch(requests)
    wall = time.perf_counter() - start
    if report.errors:
        raise RuntimeError(
            f"bench batch had {report.errors} errors; timings are invalid"
        )
    return {
        "requests": batch_requests,
        "jobs": jobs,
        "wall_seconds": round(wall, 6),
        "requests_per_second": round(batch_requests / wall, 3) if wall else 0.0,
    }


def bench_dag_plan(repeats: int) -> Dict[str, Any]:
    """Cold vs warm DAG planning: the memoization delta.

    ``cold`` clears the analysis memo (NRA/intra/fused tables) before every call;
    ``warm`` reuses them -- the planner's steady state inside sweeps,
    the enumerative baseline, and the serving tier, where identical
    segments recur across candidate partitions.  The cold/warm ratio is
    the measured payoff of routing ``segment_cost`` through
    :mod:`repro.core.memo`.
    """

    from .core.memo import clear_memo
    from .plan import plan_dag, scenario_graph

    graph = scenario_graph(PLAN_SCENARIO)

    def cold() -> None:
        clear_memo()
        plan_dag(graph, PLAN_BUFFER_ELEMS)

    def warm() -> None:
        plan_dag(graph, PLAN_BUFFER_ELEMS)

    warm()  # prime the caches so the first warm repeat is steady-state
    return {
        "scenario": PLAN_SCENARIO,
        "buffer_elems": PLAN_BUFFER_ELEMS,
        "cold": _time_call(cold, repeats),
        "warm": _time_call(warm, repeats),
    }


def bench_dag_plan_batch(jobs: int) -> Dict[str, Any]:
    """Served ``dag_plan`` throughput over the full scenario matrix."""
    from .plan import SCENARIO_BUFFERS, list_scenarios
    from .service import dag_plan_request

    requests = [
        dag_plan_request(scenario, buffer_elems, baseline=True)
        for scenario in list_scenarios()
        for buffer_elems in SCENARIO_BUFFERS
    ]
    engine = BatchEngine(EngineConfig(jobs=jobs, cache_size=4))
    start = time.perf_counter()
    report = engine.run_batch(requests)
    wall = time.perf_counter() - start
    if report.errors:
        raise RuntimeError(
            f"bench dag_plan batch had {report.errors} errors; "
            "timings are invalid"
        )
    return {
        "requests": len(requests),
        "jobs": jobs,
        "wall_seconds": round(wall, 6),
        "requests_per_second": (
            round(len(requests) / wall, 3) if wall else 0.0
        ),
    }


def run_bench(
    repeats: int = 5, batch_requests: int = 200, jobs: int = 2
) -> Dict[str, Any]:
    """Run every benchmark; returns the JSON-able result document."""
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "date": time.strftime("%Y-%m-%d"),
        "machine": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        "buffer_elems": BUFFER_ELEMS,
        "optimize_intra": bench_intra(repeats),
        "optimize_fused": bench_fused(repeats),
        "batch": bench_batch(batch_requests, jobs),
        "dag_plan": bench_dag_plan(repeats),
        "dag_plan_batch": bench_dag_plan_batch(jobs),
    }


def render_bench_text(result: Dict[str, Any]) -> str:
    lines = [
        "bench summary",
        "-------------",
        f"python {result['machine']['python']} "
        f"({result['machine']['platform']})",
    ]
    for section in ("optimize_intra", "optimize_fused"):
        for shape, timing in result[section].items():
            lines.append(
                f"{section:<16} {shape:<16} "
                f"median={timing['median_seconds'] * 1e3:.3f}ms "
                f"(min={timing['min_seconds'] * 1e3:.3f}ms)"
            )
    batch = result["batch"]
    lines.append(
        f"{'batch':<16} {batch['requests']} reqs @ jobs={batch['jobs']}: "
        f"{batch['requests_per_second']:.1f} req/s "
        f"({batch['wall_seconds']:.3f}s wall)"
    )
    dag_plan = result.get("dag_plan")
    if dag_plan:
        cold = dag_plan["cold"]["median_seconds"]
        warm = dag_plan["warm"]["median_seconds"]
        speedup = cold / warm if warm else float("inf")
        lines.append(
            f"{'dag_plan':<16} {dag_plan['scenario']} "
            f"@ {dag_plan['buffer_elems']} elems: "
            f"cold={cold * 1e3:.3f}ms warm={warm * 1e3:.3f}ms "
            f"({speedup:.1f}x memoization)"
        )
    plan_batch = result.get("dag_plan_batch")
    if plan_batch:
        lines.append(
            f"{'dag_plan_batch':<16} {plan_batch['requests']} reqs @ "
            f"jobs={plan_batch['jobs']}: "
            f"{plan_batch['requests_per_second']:.1f} req/s "
            f"({plan_batch['wall_seconds']:.3f}s wall)"
        )
    return "\n".join(lines)


def write_bench(result: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(result, sort_keys=True, indent=2) + "\n")


def read_bench(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_regression(
    result: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.30,
) -> List[str]:
    """Compare ``result`` to a committed baseline; returns violations.

    Guards the headline number only -- end-to-end batch throughput --
    because micro-benchmark medians on a shared CI box swing too much to
    gate on, while a >30% collapse of whole-stack throughput means a
    real regression (an accidental O(n^2), a lock on the hot path)
    regardless of machine noise.  Schema mismatches refuse loudly
    instead of comparing incomparables.
    """

    if not 0.0 < max_regression < 1.0:
        raise ValueError("max_regression must be in (0, 1)")
    problems: List[str] = []
    if baseline.get("schema") != result.get("schema"):
        problems.append(
            f"bench schema mismatch: baseline schema "
            f"{baseline.get('schema')!r} vs current "
            f"{result.get('schema')!r}; re-baseline instead of comparing"
        )
        return problems
    base_rps = (baseline.get("batch") or {}).get("requests_per_second")
    cur_rps = (result.get("batch") or {}).get("requests_per_second")
    if not base_rps or base_rps <= 0:
        problems.append(
            "baseline has no positive batch.requests_per_second; "
            "re-baseline"
        )
        return problems
    if cur_rps is None:
        problems.append("current result has no batch.requests_per_second")
        return problems
    floor = base_rps * (1.0 - max_regression)
    if cur_rps < floor:
        problems.append(
            f"batch throughput regressed {100 * (1 - cur_rps / base_rps):.1f}%: "
            f"{cur_rps:.1f} req/s vs baseline {base_rps:.1f} req/s "
            f"(floor {floor:.1f} at --max-regression {max_regression:g})"
        )
    return problems
