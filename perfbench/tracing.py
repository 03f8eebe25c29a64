"""Span tracing installed from the benchmark's own code.

The traced run wraps a fixed table of the program's public functions in
whichever process is about to fork the workers that call them (the sweep
child before each pool fork, the traced ``repro serve`` launcher before
the shard fleet forks), so every forked worker inherits the wrappers.
Each span is appended as one JSON line to ``<dir>/spans-<pid>.jsonl``
with an unbuffered write, because pool and shard workers exit through
``os._exit`` and would lose anything buffered.  A traced served phase
also installs :data:`CLIENT_WRAPPED` in the benchmark's own process, to
time the client side of the transport.  The untraced run never
constructs a :class:`Tracer`, so it runs the program's functions as-is.
"""

from __future__ import annotations

import glob
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name).  Only millisecond-scale layers are
#: wrapped in place; microsecond-scale ones (parse, key, serialize, IPC,
#: the cost model) are timed by probes so tracing does not swamp them.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.workers", "execute_request", "service.workers.execute"),
    ("repro.service.workers", "optimize_intra", "core.intra.optimize"),
    ("repro.core.intra", "all_candidates", "core.nra.candidates"),
    ("repro.core.fusion", "optimize_fused", "core.fusion.optimize_fused"),
    ("repro.service.workers", "optimize_graph", "core.graph_optimizer.optimize_graph"),
    ("repro.service.workers", "evaluate_graph", "arch.evaluate_graph"),
    ("repro.plan", "plan_dag", "plan.plan_dag"),
    ("repro.plan", "enumerate_plans", "plan.enumerate_plans"),
    ("repro.service.journal", "BatchJournal.record_completion",
     "service.journal.append"),
    ("repro.server.app", "ServerApp.run_payloads", "shard.app"),
    # Router process: the whole handler after the body is read (parse,
    # admission, response build and write), and the routed fan-out.
    ("repro.server.http", "RequestHandler._dispatch", "server.http.dispatch"),
    ("repro.shard.router", "ShardedApp._dispatch", "shard.router.dispatch"),
)

#: Wrapped in the benchmark's own process for a traced served phase: the
#: client's read of a response body after its headers have arrived.
CLIENT_WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("http.client", "HTTPResponse.read", "client.body_read"),
)

EXECUTE_SPAN = "service.workers.execute"


def _memo_counters() -> Dict[str, int]:
    """Cumulative hit/miss counters of the process-wide memo caches."""
    from repro.core.nra import nra_cache_info
    from repro.service.intra_cache import fused_cache_stats, intra_cache_stats

    nra = nra_cache_info()
    intra = intra_cache_stats()
    fused = fused_cache_stats()
    return {
        "nra_h": nra.hits, "nra_m": nra.misses,
        "intra_h": intra.hits, "intra_m": intra.misses,
        "fused_h": fused.hits, "fused_m": fused.misses,
    }


class Tracer:
    """Installs span-recording wrappers and writes spans per process."""

    def __init__(self, directory: str):
        self.directory = directory
        self._originals: List[Tuple[Any, str, Any]] = []
        self._fd: Optional[int] = None
        self._fd_pid = -1
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    def install(self, table: Tuple[Tuple[str, str, str], ...] = WRAPPED) -> List[str]:
        """Wrap every function in ``table``; returns span names."""
        for module_name, path, span in table:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))
        return [span for _, _, span in table]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # ------------------------------------------------------------------
    def _write(self, span: Dict[str, Any]) -> None:
        pid = os.getpid()
        if self._fd_pid != pid:  # first span in this (possibly forked) process
            path = os.path.join(self.directory, f"spans-{pid}.jsonl")
            self._fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            self._fd_pid = pid
            self._ids = itertools.count(1)
        assert self._fd is not None
        os.write(self._fd, (json.dumps(span) + "\n").encode("utf-8"))

    def _wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self
        execute = name == EXECUTE_SPAN

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            before = _memo_counters() if execute else None
            stack.append(span_id)
            wall = time.time()
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                span: Dict[str, Any] = {
                    "name": name, "id": span_id, "parent": parent,
                    "pid": os.getpid(), "wall": wall, "seconds": seconds,
                }
                if execute:
                    span["kind"] = getattr(args[0], "kind", None)
                    after = _memo_counters()
                    span["memo"] = {k: after[k] - before[k] for k in after}
                tracer._write(span)

        traced.perfbench_original = function  # type: ignore[attr-defined]
        return traced


def read_spans(directory: str) -> List[Dict[str, Any]]:
    """Every span written under ``directory`` by any process."""
    spans: List[Dict[str, Any]] = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path, "r", encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def wrapped_spans() -> List[str]:
    """Span names of both tables currently replaced in this process."""
    names = []
    for module_name, path, span in WRAPPED + CLIENT_WRAPPED:
        owner: Any = sys.modules.get(module_name)
        if owner is None:  # never imported, so nothing of it is wrapped
            continue
        for part in path.split("."):
            owner = getattr(owner, part)
        if hasattr(owner, "perfbench_original"):
            names.append(span)
    return names
