"""Layered benchmark for the repro analysis service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Runs one seeded workload against a fresh process tree, checks that every
output is correct, prints a human-readable table on stderr and, as the
last line of stdout, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer breakdown from a traced run (see README.md for the tables).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
CHILD_TIMEOUT = 170.0
#: How long client threads wait for each other to connect.
BARRIER_TIMEOUT = 60.0
#: Fleet/engine set-ups per run; ``setup_s`` is their median.
SETUPS = 9
#: Distinct served keys re-derived by the in-process oracle per run.
ORACLE_SAMPLE = 16
KINDS = ("intra", "sweep_point", "fusion", "dag_plan", "graph_plan", "platform_compare")

if __name__ == "__main__":
    sys.path.insert(0, SRC)

import checks  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from fleet import (  # noqa: E402
    Fleet, RssSampler, become_subreaper, child_env, reap_orphans, tree_pids,
)


# ----------------------------------------------------------------------
# Small statistics helpers
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def ratio(hits: float, lookups: float) -> float:
    return hits / lookups if lookups else 0.0


class Result:
    """Metrics plus the correctness tally of one run."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: List[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def wrong(self, failures: Sequence[str]) -> None:
        self.failures.extend(failures)

    def line(self) -> str:
        return json.dumps({
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in sorted(self.metrics.items())
            },
        })

    def table(self, workload: str) -> str:
        rows = [f"perfbench {workload}: attempted={self.attempted} failed={self.failed}"
                f" fail_ratio={ratio(self.failed, self.attempted):.4f}"
                f" wrong_outputs={len(self.failures)}"]
        rows += [f"  {name:<44} {value:>14.4f} {unit}"
                 for name, (value, unit) in sorted(self.metrics.items())]
        rows += [f"  note: {note}" for note in self.notes]
        rows += [f"  WRONG: {failure}" for failure in self.failures[:20]]
        return "\n".join(rows)


def span_stats(spans: Sequence[Mapping], name: str) -> List[float]:
    return [s["seconds"] for s in spans if s["name"] == name]


def put_layer_spans(result: Result, spans: Sequence[Mapping]) -> None:
    """Per-layer metrics from in-place spans (zero where a layer was idle)."""
    execute = [s for s in spans if s["name"] == tracing.EXECUTE_SPAN]
    for kind in KINDS:
        times = [s["seconds"] for s in execute if s.get("kind") == kind]
        result.put(f"service.workers.execute_ms.{kind}", percentile(times, 50) * 1e3, "ms")
        result.put(f"service.workers.execute_count.{kind}", len(times), "count")
    for metric, span in (
        ("core.nra.candidates_ms", "core.nra.candidates"),
        ("core.intra.optimize_ms", "core.intra.optimize"),
        ("core.fusion.optimize_fused_ms", "core.fusion.optimize_fused"),
        ("plan.plan_dag_ms", "plan.plan_dag"),
        ("plan.enumerate_plans_ms", "plan.enumerate_plans"),
        ("core.graph_optimizer.optimize_graph_ms", "core.graph_optimizer.optimize_graph"),
        ("arch.evaluate_graph_ms", "arch.evaluate_graph"),
        ("service.journal.append_ms", "service.journal.append"),
    ):
        result.put(metric, percentile(span_stats(spans, span), 50) * 1e3, "ms")
    memo = {key: sum(s["memo"][key] for s in execute) for key in
            ("nra_h", "nra_m", "intra_h", "intra_m", "fused_h", "fused_m")}
    result.put("core.nra.cache_hit_ratio",
               ratio(memo["nra_h"], memo["nra_h"] + memo["nra_m"]), "ratio")
    result.put("service.fused_cache.hit_ratio",
               ratio(memo["fused_h"], memo["fused_h"] + memo["fused_m"]), "ratio")


def put_probes(result: Result, payloads: Sequence[Mapping],
               pairs: Sequence[Tuple[Mapping, Mapping]]) -> None:
    records = [record for _, record in pairs]
    result.put("service.parse_key_us", probes.parse_key_us(payloads), "us")
    result.put("service.report.serialize_us", probes.serialize_us(records), "us")
    result.put("dataflow.cost.memory_access_us", probes.memory_access_us(pairs), "us")
    ipc = probes.ipc_fit(records)
    result.put("shard.ipc_roundtrip_us", ipc["roundtrip_us"], "us")
    result.put("shard.ipc_per_kb_us", ipc["per_kb_us"], "us/KiB")


def distinct_pairs(pairs: Sequence[Tuple[Mapping, Mapping]]) -> List[Tuple[Mapping, Mapping]]:
    seen, out = set(), []
    for payload, record in pairs:
        ident = wl.payload_id(payload)
        if ident not in seen:
            seen.add(ident)
            out.append((payload, record))
    return out


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------
def _spawn_child(args: List[str], workdir: str) -> Tuple[subprocess.Popen, float]:
    """Start the sweep child; returns it and its seconds to ``READY``."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "sweep_child.py")] + args,
        cwd=workdir, env=child_env(ROOT), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    )
    line = child.stdout.readline()
    if line.strip() != "READY":
        child.kill()
        child.wait()
        child.stdout.close()
        reap_orphans()
        raise RuntimeError("sweep child failed to start")
    return child, time.perf_counter() - started


def _finish_child(child: subprocess.Popen) -> None:
    try:
        child.wait(timeout=CHILD_TIMEOUT)
    finally:
        if child.poll() is None:
            # Interrupted or hung: kill its pool workers along with it.
            for pid in tree_pids(child.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            child.wait()
        child.stdout.close()
        # Even after a clean exit, its forkserver or resource tracker may
        # still be running.
        reap_orphans()
    if child.returncode != 0:
        raise RuntimeError(f"sweep child exited with {child.returncode}")


def run_sweep(seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    spec = wl.WORKLOADS["sweep-cold"]
    result = Result()
    stream = wl.sweep_stream(seed)
    requests = [next(stream) for _ in range(max(400, int(seconds * 150)))]
    requests_path = os.path.join(workdir, "requests.jsonl")
    with open(requests_path, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(r) + "\n" for r in requests)
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            child, ready = _spawn_child(["--setup-only"], workdir)
            _finish_child(child)
            setups.append(ready)
    out_path = os.path.join(workdir, "out.json")
    args = [requests_path, out_path, str(seconds)]
    trace_dir = os.path.join(workdir, "spans")
    if trace:
        os.makedirs(trace_dir)
        args.append(trace_dir)
    child, ready = _spawn_child(args, workdir)
    setups.append(ready)
    sampler = RssSampler(child.pid)
    try:
        _finish_child(child)
    finally:
        peak_mb = sampler.stop()
    with open(out_path, "r", encoding="utf-8") as handle:
        out = json.load(handle)

    records = [json.loads(line) for line in out["lines"]]
    pairs = list(zip(requests, records))
    batches = out["batches"]
    result.attempted = len(records)
    result.failed = sum(1 for r in records if not r.get("ok"))
    if any(out["memo_at_start"].values()):
        result.wrong([f"memo caches not empty at start: {out['memo_at_start']}"])
    if any(b["wrapped"] for b in batches if not b["traced"]):
        result.wrong(["tracing wrappers were installed in an untraced batch"])
    if any(b["degradations"] for b in batches):
        result.wrong(["the process pool degraded during the run"])
    hits = sum(b["hits"] for b in batches)
    lookups = hits + sum(b["misses"] for b in batches)
    if ratio(hits, lookups) > 0.01:
        result.wrong([f"sweep-cold result-cache hit ratio {ratio(hits, lookups):.3f} > 0.01"])
    result.wrong(checks.audit(pairs, seed))
    result.wrong(_sweep_oracle(pairs, seed))
    checked, golden = checks.compare_golden("sweep-cold", seed, pairs)
    result.wrong(golden)
    result.notes.append(f"golden digests checked: {checked}")

    if not trace:
        ok = result.attempted - result.failed
        wall = sum(b["wall"] for b in batches)
        evals = out["eval_seconds"]
        result.put("throughput_rps", ok / wall, "1/s")
        result.put("latency_p50_ms", percentile(evals, 50) * 1e3, "ms")
        result.put("latency_tail_ms", percentile(evals, spec.tail_pct) * 1e3, "ms")
        result.put("slo_ok_ratio", sum(
            1 for r, s in zip(records, evals) if r.get("ok") and s * 1e3 <= spec.slo_ms
        ) / len(records), "ratio")
        result.put("setup_s", statistics.median(setups), "s")
        result.put("peak_rss_mb", peak_mb, "MB")
        result.notes.append(f"tail is p{spec.tail_pct:g} of {len(evals)} evaluations")
        return result

    per_request = {
        flag: sum(b["wall"] for b in batches if b["traced"] is flag)
        / max(1, sum(b["requests"] for b in batches if b["traced"] is flag))
        for flag in (True, False)
    }
    spans = tracing.read_spans(trace_dir)
    put_layer_spans(result, spans)
    put_served_zeros(result)
    result.put("service.cache.hit_ratio", ratio(hits, lookups), "ratio")
    intra_hits = sum(s["memo"]["intra_h"] for s in spans if "memo" in s)
    intra_misses = sum(s["memo"]["intra_m"] for s in spans if "memo" in s)
    result.put("service.intra_cache.hit_ratio",
               ratio(intra_hits, intra_hits + intra_misses), "ratio")
    traced_wall = sum(b["wall"] for b in batches if b["traced"])
    busy = sum(span_stats(spans, tracing.EXECUTE_SPAN))
    result.put("trace.attributed_ratio", busy / (2 * traced_wall) if traced_wall else 0.0,
               "ratio")
    result.put("trace.overhead_ratio", ratio(per_request[True], per_request[False]), "ratio")
    result.put("gen_lag_tail_ms", 0.0, "ms")
    put_probes(result, requests[: len(records)], pairs)
    return result


def _sweep_oracle(pairs, seed) -> List[str]:
    """A seeded sample of the run's lines vs a fresh in-process engine."""
    sample = random.Random(f"perfbench:{seed}:oracle").sample(
        pairs, min(ORACLE_SAMPLE // 2, len(pairs)))
    calls = [[payload] for payload, _ in sample]
    served = [[json.dumps(dict(record, index=0), sort_keys=True, separators=(",", ":"))]
              for _, record in sample]
    return checks.compare_oracle(calls, served)


def put_served_zeros(result: Result) -> None:
    """Serving-tier layers a non-served workload never touches."""
    for name, unit in (
        ("server.http_overhead_ms.p50", "ms"), ("server.http_overhead_ms.tail", "ms"),
        ("server.http.handler_ms.p50", "ms"), ("shard.dispatch_ms.p50", "ms"),
        ("server.transport_ms.p50", "ms"), ("server.transport.body_wait_ms.p50", "ms"),
        ("server.admission.rejected", "count"), ("shard.app_ms.p50", "ms"),
        ("shard.app_ms.tail", "ms"), ("service.journal.bytes", "bytes"),
    ):
        result.put(name, 0.0, unit)


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------
class Call:
    """One client call's outcome."""

    __slots__ = ("payloads", "due", "sent", "done", "ok", "lines", "error")

    def __init__(self, payloads, due):
        self.payloads = payloads
        self.due = due
        self.sent = self.done = 0.0
        self.ok = False
        self.lines: List[str] = []
        self.error = ""

    @property
    def latency(self) -> float:
        return self.done - self.due


def _send(client, call: Call, batch: bool) -> None:
    from repro.server.client import ClientError, canonical_record_line

    call.sent = time.perf_counter()
    try:
        if batch:
            call.lines = client.batch_lines(call.payloads)
        else:
            call.lines = [canonical_record_line(client.analyze(call.payloads[0]))]
        records = [json.loads(line) for line in call.lines]
        call.ok = len(records) == len(call.payloads) and all(r.get("ok") for r in records)
        if not call.ok:
            call.error = "error record in response"
    except ClientError as exc:
        call.error = str(exc)
    call.done = time.perf_counter()


def closed_loop(fleet: Fleet, seed: int, seconds: float) -> List[Call]:
    pool = wl.hot_pool(seed)
    sequences = [wl.hot_sequence(seed, c, int(seconds * 400) + 100)
                 for c in range(wl.CONNECTIONS)]
    results: List[List[Call]] = [[] for _ in range(wl.CONNECTIONS)]
    barrier = threading.Barrier(wl.CONNECTIONS, timeout=BARRIER_TIMEOUT)

    def worker(conn: int) -> None:
        client = fleet.client(f"perfbench-{conn}")
        client.handshake()
        barrier.wait()
        end = time.perf_counter() + seconds
        try:
            for index in sequences[conn]:
                if time.perf_counter() >= end:
                    break
                call = Call((pool[index],), time.perf_counter())
                _send(client, call, batch=False)
                results[conn].append(call)
        finally:
            client.close()

    _run_threads(worker)
    return [call for calls in results for call in calls]


def open_loop(fleet: Fleet, seed: int, seconds: float) -> Tuple[List[Call], List[float]]:
    schedule = wl.mixed_calls(seed, seconds)
    work: "queue.Queue[Optional[Tuple[Call, bool]]]" = queue.Queue()
    calls = [Call(c.payloads, 0.0) for c in schedule]
    lags: List[float] = []
    ready = threading.Barrier(wl.CONNECTIONS + 1, timeout=BARRIER_TIMEOUT)

    def worker(conn: int) -> None:
        client = fleet.client(f"perfbench-{conn}")
        try:
            client.handshake()
            ready.wait()
            while True:
                item = work.get()
                if item is None:
                    return
                _send(client, *item)
        finally:
            client.close()

    threads = _start_threads(worker)
    ready.wait()
    start = time.perf_counter()
    for call, planned in zip(calls, schedule):
        call.due = start + planned.due
        delay = call.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags.append(time.perf_counter() - call.due)
        work.put((call, planned.batch))
    for _ in threads:
        work.put(None)
    for thread in threads:
        thread.join(timeout=CHILD_TIMEOUT)
    return calls, lags


def _start_threads(target: Callable[[int], None]) -> List[threading.Thread]:
    threads = [threading.Thread(target=target, args=(c,), daemon=True)
               for c in range(wl.CONNECTIONS)]
    for thread in threads:
        thread.start()
    return threads


def _run_threads(target: Callable[[int], None]) -> None:
    for thread in _start_threads(target):
        thread.join(timeout=CHILD_TIMEOUT)


class Phase:
    """One fleet boot, warm-up and measured window."""

    def __init__(self, name: str, seed: int, seconds: float, workdir: str,
                 traced: bool):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace_dir = os.path.join(workdir, "spans") if traced else None
        if self.trace_dir:
            os.makedirs(self.trace_dir)
        self.fleet = Fleet(ROOT, workdir, journal=name == "served-mixed",
                           trace_dir=self.trace_dir)
        self.calls: List[Call] = []
        self.lags: List[float] = []
        self.warm_calls: List[Call] = []
        self.boot_stats: Dict[str, Any] = {}
        self.before: Dict[str, Any] = {}
        self.after: Dict[str, Any] = {}
        self.window = (0.0, 0.0)
        self.started = 0.0
        self.peak_mb = 0.0
        self.client_wrapped: List[str] = []

    def run(self) -> "Phase":
        sampler = None
        client_tracer = None
        try:
            self.fleet.start()
            self.boot_stats = self.fleet.stats()
            pool = (wl.hot_pool(self.seed) if self.name == "served-hot"
                    else wl.mixed_repeat_pool(self.seed))
            client = self.fleet.client("perfbench-warm")
            try:
                # One NDJSON call: one latency sample per shard, not per key.
                warm = Call(tuple(pool), time.perf_counter())
                _send(client, warm, batch=True)
                self.warm_calls = [warm]
            finally:
                client.close()
            sampler = RssSampler(self.fleet.process.pid)
            self.before = self.fleet.stats()
            if self.trace_dir:
                client_tracer = tracing.Tracer(self.trace_dir)
                client_tracer.install(tracing.CLIENT_WRAPPED)
            self.client_wrapped = tracing.wrapped_spans()
            start = time.time()
            self.started = time.perf_counter()
            if self.name == "served-hot":
                self.calls = closed_loop(self.fleet, self.seed, self.seconds)
            else:
                self.calls, self.lags = open_loop(self.fleet, self.seed, self.seconds)
            self.window = (start, time.time())
            self.after = self.fleet.stats()
        finally:
            if client_tracer is not None:
                client_tracer.uninstall()
            if sampler is not None:
                self.peak_mb = sampler.stop()
            self.fleet.stop()
        return self

    def delta(self, *path: str) -> float:
        def get(stats: Mapping) -> float:
            node: Any = stats
            for part in path:
                node = node.get(part, 0) if isinstance(node, Mapping) else 0
            return float(node or 0)
        return get(self.after) - get(self.before)

    def pairs(self) -> List[Tuple[Mapping, Mapping]]:
        return [(payload, json.loads(line))
                for call in self.warm_calls + self.calls
                for payload, line in zip(call.payloads, call.lines)]


def boot_setups(workdir: str, journal: bool) -> List[float]:
    """Seconds to ``/readyz`` for ``SETUPS - 1`` throwaway fleets."""
    times = []
    for number in range(SETUPS - 1):
        fleet = Fleet(ROOT, os.path.join(workdir, f"setup-{number}"), journal=journal)
        try:
            times.append(fleet.start())
        finally:
            fleet.stop()
    return times


def check_served(result: Result, phase: Phase, spec: wl.WorkloadSpec) -> None:
    calls = phase.calls
    result.attempted += sum(len(c.payloads) for c in calls)
    result.failed += sum(len(c.payloads) for c in calls if not c.ok)
    result.notes.extend(sorted({c.error for c in calls if c.error})[:5])
    boot = phase.boot_stats
    if boot.get("cache", {}).get("size") or boot.get("intra_cache", {}).get("size"):
        result.wrong([f"{phase.name}: caches not empty at boot"])
    if phase.trace_dir is None and (phase.fleet.command()[1:3] != ["-m", "repro"]
                                    or phase.client_wrapped):
        result.wrong(["untraced phase ran with tracing wrappers"])
    hits = phase.delta("cache", "hits")
    lookups = hits + phase.delta("cache", "misses")
    if spec.name == "served-hot" and ratio(hits, lookups) < 0.95:
        result.wrong([f"served-hot result-cache hit ratio {ratio(hits, lookups):.3f} < 0.95"])
    if not all(c.ok for c in phase.warm_calls):
        result.wrong(["warm-up call failed"])
    pairs = distinct_pairs(phase.pairs())
    result.wrong(checks.audit(pairs, phase.seed))
    checked, golden = checks.compare_golden(spec.name, phase.seed, pairs)
    result.wrong(golden)
    result.notes.append(f"golden digests checked: {checked}")
    # Oracle: every NDJSON call seen plus a seeded sample of single calls.
    rng = random.Random(f"perfbench:{phase.seed}:oracle")
    batch_calls = [c for c in calls if len(c.payloads) > 1 and c.ok][:2]
    singles = {}
    for call in calls:
        if len(call.payloads) == 1 and call.ok:
            singles.setdefault(wl.payload_id(call.payloads[0]), call)
    sample = rng.sample(sorted(singles.values(), key=lambda c: c.sent),
                        min(ORACLE_SAMPLE, len(singles)))
    chosen = batch_calls + sample
    result.wrong(checks.compare_oracle([c.payloads for c in chosen],
                                       [c.lines for c in chosen]))


def run_served(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    spec = wl.WORKLOADS[name]
    result = Result()
    if not trace:
        setups = boot_setups(workdir, journal=name == "served-mixed")
        phase = Phase(name, seed, seconds, os.path.join(workdir, "run"), False).run()
        check_served(result, phase, spec)
        put_served_e2e(result, phase, spec, setups + [phase.fleet.setup_seconds])
        return result
    # Identical streams on an untraced then a traced fleet, half a window each.
    plain = Phase(name, seed, seconds / 2, os.path.join(workdir, "plain"), False).run()
    traced = Phase(name, seed, seconds / 2, os.path.join(workdir, "traced"), True).run()
    for phase in (plain, traced):
        check_served(result, phase, spec)
    put_served_layers(result, plain, traced, spec)
    return result


def put_served_e2e(result: Result, phase: Phase, spec: wl.WorkloadSpec,
                   setups: List[float]) -> None:
    calls = phase.calls
    ok_requests = sum(len(c.payloads) for c in calls if c.ok)
    last = max(c.done for c in calls)
    latencies = [c.latency for c in calls]
    result.put("throughput_rps", ok_requests / (last - phase.started), "1/s")
    result.put("latency_p50_ms", percentile(latencies, 50) * 1e3, "ms")
    result.put("latency_tail_ms", percentile(latencies, spec.tail_pct) * 1e3, "ms")
    result.put("slo_ok_ratio", sum(
        1 for c in calls if c.ok and c.latency * 1e3 <= spec.slo_ms) / len(calls), "ratio")
    result.put("setup_s", statistics.median(setups), "s")
    result.put("peak_rss_mb", phase.peak_mb, "MB")
    result.notes.append(f"tail is p{spec.tail_pct:g} of {len(calls)} calls")


def put_served_layers(result: Result, plain: Phase, traced: Phase,
                      spec: wl.WorkloadSpec) -> None:
    start, end = traced.window
    spans = [s for s in tracing.read_spans(traced.trace_dir) if start <= s["wall"] <= end]
    # Shard-side time: spans around ServerApp.run_payloads, the interval
    # the /stats reservoir records, restricted to the measured window
    # (the reservoir also holds the warm-up call).
    shard = span_stats(spans, "shard.app")
    latencies = [c.latency for c in traced.calls]
    client_p50, shard_p50 = percentile(latencies, 50), percentile(shard, 50)
    shard_tail = percentile(shard, spec.tail_pct)
    result.put("server.http_overhead_ms.p50", (client_p50 - shard_p50) * 1e3, "ms")
    # Clamped: a queueing-dominated client tail can sit below the shards'.
    result.put("server.http_overhead_ms.tail", max(
        0.0, percentile(latencies, spec.tail_pct) - shard_tail) * 1e3, "ms")
    # The router's analyze handlers, each paired with the routed fan-out
    # it called (same process and thread), which excludes GET handlers.
    routed = {(s["pid"], s["parent"]): s["seconds"]
              for s in spans if s["name"] == "shard.router.dispatch"}
    handled = [(s["seconds"], routed[(s["pid"], s["id"])]) for s in spans
               if s["name"] == "server.http.dispatch" and (s["pid"], s["id"]) in routed]
    handler_own = percentile([total - routed_s for total, routed_s in handled], 50)
    fanout = percentile([routed_s for _, routed_s in handled], 50)
    body_wait = percentile(span_stats(spans, "client.body_read"), 50)
    result.put("server.http.handler_ms.p50", handler_own * 1e3, "ms")
    result.put("shard.dispatch_ms.p50", (fanout - shard_p50) * 1e3, "ms")
    result.put("server.transport_ms.p50",
               (client_p50 - percentile([total for total, _ in handled], 50)) * 1e3, "ms")
    result.put("server.transport.body_wait_ms.p50", body_wait * 1e3, "ms")
    result.put("shard.app_ms.p50", shard_p50 * 1e3, "ms")
    result.put("shard.app_ms.tail", shard_tail * 1e3, "ms")
    result.put("server.admission.rejected",
               traced.delta("admission", "rejected_queue_full")
               + traced.delta("admission", "rejected_rate_limited"), "count")
    hits = traced.delta("cache", "hits")
    result.put("service.cache.hit_ratio",
               ratio(hits, hits + traced.delta("cache", "misses")), "ratio")
    intra_hits = traced.delta("intra_cache", "hits")
    result.put("service.intra_cache.hit_ratio",
               ratio(intra_hits, intra_hits + traced.delta("intra_cache", "misses")),
               "ratio")
    result.put("service.journal.bytes", traced.delta("shards", "journal_bytes"), "bytes")
    put_layer_spans(result, spans)
    # Measured spans only: router handler + routed fan-out (which holds the
    # shard side) + the client's wait for the response body.  What no span
    # covers (request send, header parsing, scheduling) stays unattributed.
    result.put("trace.attributed_ratio",
               ratio(handler_own + fanout + body_wait, client_p50), "ratio")
    mean = {id(p): statistics.fmean(c.latency for c in p.calls) for p in (plain, traced)}
    result.put("trace.overhead_ratio", mean[id(traced)] / mean[id(plain)], "ratio")
    result.put("gen_lag_tail_ms", percentile(traced.lags, spec.tail_pct) * 1e3, "ms")
    pairs = traced.pairs()
    put_probes(result, [p for p, _ in pairs], distinct_pairs(pairs))


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so every started process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    become_subreaper()
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        if args.workload == "sweep-cold":
            result = run_sweep(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            result = run_served(args.workload, args.seed, args.seconds,
                                bool(args.trace), workdir)
    finally:
        reap_orphans()
        shutil.rmtree(workdir, ignore_errors=True)
    print(result.table(args.workload), file=sys.stderr)
    print(result.line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
