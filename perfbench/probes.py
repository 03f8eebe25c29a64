"""Probes: microsecond-scale layers timed on the workload's own data.

Wrapping these layers in place would cost more than the layers
themselves, so the traced run times their public functions directly from
the benchmark, on the payloads and result records the run produced.
"""

from __future__ import annotations

import json
import multiprocessing
import statistics
import time
from typing import Dict, List, Mapping, Sequence, Tuple

REPEATS = 5


def _median_us(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def parse_key_us(payloads: Sequence[Mapping]) -> float:
    """Median per-request ``parse_request`` + ``request_key`` time."""
    from repro.service.requests import parse_request, request_key

    def run() -> None:
        for payload in payloads:
            request_key(parse_request(payload))

    return _median_us(run) / max(1, len(payloads))


def serialize_us(records: Sequence[Mapping]) -> float:
    """Median per-record ``BatchReport.to_jsonl`` time."""
    from repro.service import BatchEntry, BatchReport, CacheStats

    entries = [
        BatchEntry(index=i, key=r.get("key"), kind=r.get("kind"), ok=bool(r.get("ok")),
                   cached=True, seconds=0.0, record=dict(r))
        for i, r in enumerate(records)
    ]
    report = BatchReport(
        entries=entries, cache=CacheStats(0, 0, 0, 0, 1), jobs=1,
        executor="thread", wall_seconds=0.0, computed=0, deduplicated=0,
    )
    return _median_us(report.to_jsonl) / max(1, len(records))


def memory_access_us(pairs: Sequence[Tuple[Mapping, Mapping]]) -> float:
    """Median ``dataflow.cost.memory_access`` time on returned dataflows."""
    from repro.dataflow.cost import memory_access
    from repro.dataflow.serialize import dataflow_from_dict
    from repro.ir import matmul

    cases = [
        (matmul("mm", p["m"], p["k"], p["l"]), dataflow_from_dict(r["result"]["dataflow"]))
        for p, r in pairs
        if p["kind"] == "intra" and r.get("ok")
    ]
    if not cases:
        return 0.0

    def run() -> None:
        for op, dataflow in cases:
            memory_access(op, dataflow)

    return _median_us(run) / len(cases)


def _echo(conn) -> None:
    from repro.shard.ipc import recv_message, send_message

    while True:
        message = recv_message(conn)
        if message.get("op") == "stop":
            return
        send_message(conn, message)


def ipc_fit(records: Sequence[Mapping], rounds: int = 200) -> Dict[str, float]:
    """Round trips of analyze-reply frames over a ``multiprocessing.Pipe``.

    Frames carry the run's own result records at the smallest, median and
    largest sizes plus 4x/16x multiples; a least-squares ``k*s + b`` fit
    over (size, median round trip) separates per-message from per-byte
    cost.  Returns the round trip at the median size and ``k`` per KiB.
    """

    from repro.shard.ipc import recv_message, send_message

    by_size = sorted(records, key=lambda r: len(json.dumps(r)))
    if not by_size:
        return {"roundtrip_us": 0.0, "per_kb_us": 0.0}
    picks = [by_size[0], by_size[len(by_size) // 2], by_size[-1]]
    frames = [{"op": "analyze", "seq": 0, "records": [r]} for r in picks]
    frames += [{"op": "analyze", "seq": 0, "records": [picks[1]] * n} for n in (4, 16)]
    # Fork, as the shard supervisor does by default on Linux.  Spawn would
    # also start a resource-tracker process that outlives the benchmark.
    context = multiprocessing.get_context("fork")
    ours, theirs = context.Pipe(duplex=True)
    peer = context.Process(target=_echo, args=(theirs,), daemon=True)
    peer.start()
    points: List[Tuple[int, float]] = []
    try:
        for frame in frames:
            size = len(json.dumps(frame, sort_keys=True, separators=(",", ":")))
            times = []
            for _ in range(rounds):
                start = time.perf_counter()
                send_message(ours, frame)
                recv_message(ours)
                times.append(time.perf_counter() - start)
            points.append((size, statistics.median(times) * 1e6))
        send_message(ours, {"op": "stop"})
    finally:
        peer.join(timeout=10.0)
        if peer.is_alive():
            peer.kill()
            peer.join(timeout=10.0)
    sizes = [s for s, _ in points]
    mean_s = statistics.fmean(sizes)
    mean_t = statistics.fmean(t for _, t in points)
    var = sum((s - mean_s) ** 2 for s in sizes)
    slope = sum((s - mean_s) * (t - mean_t) for s, t in points) / var if var else 0.0
    return {"roundtrip_us": points[1][1], "per_kb_us": slope * 1024.0}
