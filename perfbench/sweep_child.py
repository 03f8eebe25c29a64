"""The sweep-cold system under test: one fresh process per run.

Usage::

    python sweep_child.py REQUESTS_JSONL OUT_JSON SECONDS [TRACE_DIR]
    python sweep_child.py --setup-only

Prints ``READY`` once the engine is importable and constructed (the end
of set-up), asserts the process-wide memo caches are empty, then runs
``BatchEngine(jobs=2, executor="process").run_batch`` over consecutive
chunks of the request file until ``SECONDS`` have passed.  The engine
forks a fresh pool per batch from this process, which never computes, so
every batch starts with cold workers.  With ``TRACE_DIR`` every other
batch runs with the span wrappers installed, which yields the tracing
overhead from interleaved traced and untraced batches.
"""

import json
import sys
import time

from repro.core.nra import nra_cache_info
from repro.service import BatchEngine, EngineConfig
from repro.service.intra_cache import fused_cache_stats, intra_cache_stats

import tracing
from workloads import SWEEP_BATCH

ENGINE = EngineConfig(jobs=2, executor="process")


def memo_sizes() -> dict:
    return {
        "nra": nra_cache_info().currsize,
        "intra": intra_cache_stats().size,
        "fused": fused_cache_stats().size,
    }


def main(argv: list) -> int:
    engine = BatchEngine(ENGINE)
    print("READY", flush=True)
    if argv == ["--setup-only"]:
        return 0
    requests_path, out_path, seconds = argv[0], argv[1], float(argv[2])
    tracer = tracing.Tracer(argv[3]) if len(argv) > 3 else None
    with open(requests_path, "r", encoding="utf-8") as handle:
        requests = [json.loads(line) for line in handle]
    out = {
        "memo_at_start": memo_sizes(),
        "batches": [],
        "lines": [],
        "eval_seconds": [],
    }
    started = time.perf_counter()
    for number, offset in enumerate(range(0, len(requests), SWEEP_BATCH)):
        if time.perf_counter() - started >= seconds:
            break
        traced = tracer is not None and number % 2 == 1
        if traced:
            tracer.install()
        wrapped = tracing.wrapped_spans()
        try:
            report = engine.run_batch(requests[offset: offset + SWEEP_BATCH])
        finally:
            if traced:
                tracer.uninstall()
        out["batches"].append({
            "traced": traced,
            "wrapped": wrapped,
            "wall": report.wall_seconds,
            "requests": report.requests,
            "errors": report.errors,
            "hits": report.cache.hits,
            "misses": report.cache.misses,
            "degradations": report.degradations,
        })
        out["lines"].extend(report.to_jsonl().split("\n"))
        out["eval_seconds"].extend(
            entry.seconds for entry in report.entries if not entry.cached
        )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
