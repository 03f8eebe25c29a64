"""The serving front door and its single-process backend.

:class:`FrontDoor` is the one HTTP contract every tier answers the same
way: which bodies ``POST /v1/analyze`` accepts, how errors and drains
are reported, and which bytes come back.  Two backends sit behind it:

* :class:`ServerApp` (this module) runs payloads in process.  It owns
  exactly one result cache, one circuit breaker and one counter
  registry, shared by every request, while each analyze call gets a
  lightweight :class:`~repro.service.engine.BatchEngine` facade over
  that shared state so per-request knobs (the deadline) never race
  between calls.
* :class:`~repro.shard.router.ShardedApp` routes them to worker
  processes, each running its own :class:`ServerApp`.

Requests ride the exact schemas and content keys of
:mod:`repro.service.requests`, so a result served over the wire is
byte-identical to the same analysis run through ``run_batch`` directly,
and the LRU cache keeps earning across calls.  :class:`ReproServer`
binds either app to the HTTP listener.

Endpoints
---------
``POST /v1/analyze``  one JSON request object, or a JSON-lines /
                      ``{"requests": [...]}`` batch; responses mirror the
                      batch engine's deterministic result records
``GET  /healthz``     liveness + protocol handshake (always 200)
``GET  /readyz``      readiness (503 while draining)
``GET  /metrics``     text exposition (Prometheus-flavored) or
                      ``?format=json``
``GET  /stats``       cache / admission / resilience / certification
                      rollups as JSON
``POST /admin/compact`` compact the journal(s) now
``POST /admin/reshard`` live fleet resize (sharded tier only)

Shutdown follows :mod:`repro.service.shutdown` semantics: draining stops
*admission* (503 + ``Retry-After``), every already-accepted request runs
to completion, and the journal (if any) is flushed and the result cache
(if ``cache_file`` is set) saved before the process exits -- SIGTERM
never loses accepted work.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..core.memo import memo_stats
from ..service.engine import BatchEngine, EngineConfig
from ..service.journal import BatchJournal
from ..service.metrics import CounterRegistry, LatencyReservoir, Stopwatch
from ..service.report import BatchReport
from .admission import (
    AdmissionController,
    AdmissionError,
    ServerDrainingError,
    jittered_retry_after,
)
from .http import HttpResponse, ReproHTTPServer, first_query_value
from .protocol import protocol_info

#: Retry-After hint handed out while the server drains for shutdown.
DRAIN_RETRY_AFTER = 2.0

#: One decoded analyze payload (a raw string for an undecodable line).
Payload = Union[Dict[str, Any], str]


class BadRequestError(ValueError):
    """The request body could not be understood (HTTP 400)."""


def parse_analyze_payloads(
    body: bytes, content_type: str
) -> Tuple[List[Payload], bool]:
    """Decode a ``POST /v1/analyze`` body into engine payloads.

    Returns ``(payloads, single)``.  Accepted shapes: one JSON object
    (single mode), a JSON array, ``{"requests": [...]}``, or JSON-lines
    (forced by an ``application/x-ndjson`` content type).  Undecodable
    JSON-lines entries pass through as raw strings so the engine records
    a structured per-line error at the right index, exactly like
    ``repro batch``.  Shared by the single-process :class:`ServerApp`
    and the sharded router, so both fronts accept identical bodies.
    """

    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadRequestError(f"body is not valid UTF-8: {exc}") from None
    stripped = text.strip()
    if not stripped:
        raise BadRequestError("empty request body")
    ndjson = content_type.split(";")[0].strip() == "application/x-ndjson"
    if not ndjson:
        try:
            decoded = json.loads(stripped)
        except ValueError:
            ndjson = True  # multi-line body: fall through to JSON-lines
        else:
            if isinstance(decoded, list):
                return list(decoded), False
            if isinstance(decoded, dict) and "requests" in decoded:
                requests = decoded["requests"]
                if not isinstance(requests, list):
                    raise BadRequestError('"requests" must be a list')
                return list(requests), False
            if isinstance(decoded, dict):
                return [decoded], True
            raise BadRequestError(
                "body must be a JSON object, array, or JSON lines"
            )
    payloads: List[Payload] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            payloads.append(json.loads(line))
        except ValueError:
            payloads.append(line)  # engine records the structured error
    if not payloads:
        raise BadRequestError("empty request body")
    return payloads, False


def resolve_deadline(
    query: Dict[str, List[str]],
    headers: Mapping[str, str],
    default_deadline: Optional[float],
    max_deadline: Optional[float],
) -> Optional[float]:
    """The effective per-request deadline for one analyze call.

    ``X-Repro-Deadline`` (or ``?deadline=``) wins over the server
    default, clamped by ``max_deadline``; malformed values raise
    :class:`BadRequestError`.
    """

    raw = headers.get("x-repro-deadline") or first_query_value(
        query, "deadline"
    )
    if raw is None:
        return default_deadline
    try:
        deadline = float(raw)
    except ValueError:
        raise BadRequestError(
            f"deadline must be a positive number, got {raw!r}"
        ) from None
    if not deadline > 0:  # also rejects NaN, which min() would pass on
        raise BadRequestError("deadline must be positive")
    if max_deadline is not None:
        deadline = min(deadline, max_deadline)
    return deadline


def render_metrics_text(stats: Dict[str, Any]) -> str:
    """Prometheus-flavored text exposition of a /stats payload.

    Shared by the single-process app and the sharded router: the router
    feeds an *aggregated* stats dict (reservoirs merged, counters
    summed) and gets the same metric names out, plus per-shard health
    gauges when a ``shards`` rollup is present.
    """

    lines: List[str] = ["# repro serve metrics"]

    def emit(name: str, value: Any, labels: str = "") -> None:
        if value is None or isinstance(value, bool):
            return
        lines.append(f"repro_{name}{labels} {value}")

    emit("uptime_seconds", stats["uptime_seconds"])
    for name, value in stats["serving"].items():
        emit("serving_total", value, f'{{counter="{name}"}}')
    admission = stats["admission"]
    for name in (
        "active",
        "waiting",
        "admitted",
        "rejected_rate_limited",
        "rejected_queue_full",
    ):
        emit(f"admission_{name}", admission[name])
    latency = stats["latency"]
    emit("latency_seconds_count", latency["count"])
    for quantile in ("p50", "p95", "p99"):
        emit(
            "latency_seconds",
            latency[quantile],
            f'{{quantile="{quantile[1:]}"}}',
        )
    emit("latency_seconds_max", latency["max"])
    for scope in ("cache", "intra_cache"):
        for name in ("hits", "misses", "evictions", "size"):
            emit(f"{scope}_{name}", stats[scope][name])
    for name, value in stats["engine_counters"].items():
        emit("engine_total", value, f'{{counter="{name}"}}')
    journal = stats.get("journal")
    if journal:
        emit("journal_degraded", 1 if journal.get("degraded") else 0)
        emit("journal_appended_total", journal.get("appended"))
        emit("journal_write_errors_total", journal.get("write_errors"))
        emit("journal_records", journal.get("completed"))
        emit("journal_bytes", journal.get("file_bytes"))
        emit("journal_compactions_total", journal.get("compactions"))
        emit(
            "journal_corrupt_quarantined_total",
            journal.get("corrupt_quarantined"),
        )
        emit("journal_replay_seconds", journal.get("replay_seconds"))
    shards = stats.get("shards")
    if shards:
        emit("shards_total", shards["count"])
        emit("shards_ready", shards["ready"])
        emit("shards_failed", shards.get("failed"))
        emit("shards_respawns_total", shards["respawns"])
        emit("shards_contained_total", shards.get("contained"))
        emit("shards_timeouts_total", shards.get("timeouts"))
        emit(
            "shards_journals_degraded", shards.get("journals_degraded")
        )
        # Tier-wide durable-state rollups (summed across shard journals).
        emit("journal_records", shards.get("journal_records"))
        emit("journal_bytes", shards.get("journal_bytes"))
        emit("journal_compactions_total", shards.get("journal_compactions"))
        emit(
            "journal_corrupt_quarantined_total",
            shards.get("journal_corrupt_quarantined"),
        )
        emit("journal_replay_seconds", shards.get("journal_replay_seconds"))
        for shard in shards["shards"]:
            emit(
                "shard_up",
                1 if shard["state"] == "ready" else 0,
                f'{{shard="{shard["label"]}"}}',
            )
            emit(
                "shard_respawns",
                shard["respawns"],
                f'{{shard="{shard["label"]}"}}',
            )
    resharding = stats.get("resharding")
    if resharding:
        emit("resharding_active", 1 if resharding.get("active") else 0)
        emit("handoff_pending", resharding.get("pending"))
        emit("reshards_total", resharding.get("reshards_completed"))
        emit("reshard_keys_moved_total", resharding.get("keys_moved"))
    hot_keys = stats.get("hot_keys")
    if hot_keys:
        emit("hot_keys", hot_keys.get("hot"))
        emit("hot_keys_tracked", hot_keys.get("tracked"))
        emit("replica_reads_total", hot_keys.get("replica_reads"))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ServerConfig:
    """Daemon tuning knobs (engine + admission + transport)."""

    host: str = "127.0.0.1"
    port: int = 8177
    #: Engine pool width for each analyze call (thread executor).
    jobs: int = 1
    cache_size: int = 4096
    #: Concurrent analyze calls executing (each may fan out ``jobs`` wide).
    max_concurrency: int = 4
    #: Analyze calls allowed to wait for a slot before 503s start.
    queue_depth: int = 16
    #: Per-client admission rate in requests/second (0 disables).
    rate_limit: float = 0.0
    #: Token-bucket burst capacity (None: max(1, int(rate_limit))).
    burst: Optional[int] = None
    #: Default per-request deadline applied when the client sends none.
    default_deadline: Optional[float] = None
    #: Ceiling on client-requested deadlines (None: unbounded).
    max_deadline: Optional[float] = None
    #: Run every certifiable request under paranoid certification.
    paranoid: bool = False
    #: Write-ahead journal path (None: no journal).
    journal_path: Optional[str] = None
    #: Result-cache file: warmed at boot if it exists, saved on close
    #: (None: the cache lives in memory only).
    cache_file: Optional[str] = None
    #: Auto-compact the journal past this many on-disk lines (None: off).
    compact_max_records: Optional[int] = None
    #: Auto-compact the journal past this many on-disk bytes (None: off).
    compact_max_bytes: Optional[int] = None
    max_body_bytes: int = 8 << 20
    #: Ceiling on requests per analyze call (split bigger batches).
    max_batch_requests: int = 10000
    #: Seed for the deterministic per-client Retry-After jitter on
    #: 429/503 responses (see ``admission.jittered_retry_after``).
    retry_jitter_seed: int = 0
    #: Log per-request access lines to stderr.
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be non-negative")
        if self.rate_limit < 0:
            raise ValueError("rate_limit must be non-negative")
        if self.default_deadline is not None and not self.default_deadline > 0:
            raise ValueError("default_deadline must be positive")
        if self.max_deadline is not None and not self.max_deadline > 0:
            raise ValueError("max_deadline must be positive")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be positive")
        if self.max_batch_requests < 1:
            raise ValueError("max_batch_requests must be positive")
        if self.compact_max_records is not None and self.compact_max_records < 1:
            raise ValueError("compact_max_records must be positive (or None)")
        if self.compact_max_bytes is not None and self.compact_max_bytes < 1:
            raise ValueError("compact_max_bytes must be positive (or None)")


def report_counts(report: BatchReport) -> Dict[str, int]:
    """The per-call counters a response reports for one batch.

    Shard workers send them back with each analyze reply (the router
    sums them across shards); the single-process app feeds them straight
    into the response headers.
    """

    return {
        "requests": report.requests,
        "errors": report.errors,
        "cached": report.cached_answers,
        "computed": report.computed,
        "replayed": report.replayed,
        "certified": report.certified,
        "discrepancies": len(report.discrepancies()),
    }


class FrontDoor:
    """The HTTP contract every serving tier shares.

    Owns the route table, the drain and in-flight bookkeeping,
    ``/healthz``, the draining branch of ``/readyz``, ``/metrics``, the
    analyze preamble (drain check, parse, deadline, batch limit,
    admission), admission-error responses and the single-object vs
    JSON-lines rendering.  A subclass supplies the backend
    (:meth:`_dispatch`, plus :meth:`_dispatch_error` for its own failure
    taxonomy), its ``stats_dict``, its ready body, ``/admin/compact``
    and ``close``.
    """

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.admission = AdmissionController(
            max_concurrency=self.config.max_concurrency,
            queue_depth=self.config.queue_depth,
            rate_limit=self.config.rate_limit,
            burst=self.config.burst,
        )
        self.serving = CounterRegistry()
        self.uptime = Stopwatch()
        self.max_body_bytes = self.config.max_body_bytes
        #: POST-only routes: path -> handler(query, headers, body, client).
        self.post_routes: Dict[str, Callable[..., HttpResponse]] = {
            "/v1/analyze": self._analyze,
            "/admin/compact": self._admin_compact,
        }
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        self._inflight = 0
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        with self._state_lock:
            return self._draining

    def begin_drain(self) -> None:
        """Stop admitting analyze work; in-flight requests keep running."""
        with self._state_lock:
            self._draining = True

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no analyze call is in flight; True if drained."""
        with self._idle:
            if self._inflight == 0:
                return True
            return self._idle.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    def close(self) -> None:
        """Release the backend (journal, cache, worker processes)."""
        raise NotImplementedError

    def log(self, message: str, access: bool = False) -> None:
        if access and not self.config.verbose:
            return
        print(f"repro serve: {message}", file=sys.stderr)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        query: Dict[str, List[str]],
        headers: Mapping[str, str],
        body: bytes,
        client: str,
    ) -> HttpResponse:
        self.serving.increment("http_requests")
        if method == "GET":
            if path == "/healthz":
                return HttpResponse.json(self.health_dict())
            if path == "/readyz":
                return self._readyz()
            if path == "/metrics":
                return self._metrics(query)
            if path == "/stats":
                return HttpResponse.json(self.stats_dict())
        route = self.post_routes.get(path)
        if route is not None:
            if method != "POST":
                return HttpResponse.error(
                    405, "MethodNotAllowed", f"use POST {path}"
                )
            return route(query, headers, body, client)
        self.serving.increment("http_not_found")
        return HttpResponse.error(
            404,
            "NotFound",
            f"no route {method} {path}; see /healthz /readyz /metrics "
            "/stats " + " ".join(self.post_routes),
        )

    def _admin_compact(
        self,
        query: Dict[str, List[str]],
        headers: Mapping[str, str],
        body: bytes,
        client: str,
    ) -> HttpResponse:
        """``POST /admin/compact``: compact the backend's journal(s)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Observability endpoints
    # ------------------------------------------------------------------
    def health_dict(self) -> Dict[str, Any]:
        """The /healthz payload: liveness plus the protocol handshake."""
        payload = dict(protocol_info())
        payload.update(
            {
                "ok": True,
                "draining": self.draining,
                "uptime_seconds": round(self.uptime.elapsed(), 3),
            }
        )
        return payload

    def ready_dict(self) -> Dict[str, Any]:
        """The /readyz payload of a tier that is not draining."""
        raise NotImplementedError

    def _readyz(self) -> HttpResponse:
        if self.draining:
            return HttpResponse.error(
                503,
                "ServerDrainingError",
                "server is draining for shutdown",
                retry_after=DRAIN_RETRY_AFTER,
            )
        return HttpResponse.json(self.ready_dict())

    def stats_dict(self) -> Dict[str, Any]:
        """The /stats payload (also what /metrics renders)."""
        raise NotImplementedError

    def _metrics(self, query: Dict[str, List[str]]) -> HttpResponse:
        stats = self.stats_dict()
        if first_query_value(query, "format") == "json":
            return HttpResponse.json(stats)
        return HttpResponse.text(render_metrics_text(stats))

    # ------------------------------------------------------------------
    # The analyze endpoint
    # ------------------------------------------------------------------
    def _analyze(
        self,
        query: Dict[str, List[str]],
        headers: Mapping[str, str],
        body: bytes,
        client: str,
    ) -> HttpResponse:
        watch = Stopwatch()
        self.serving.increment("analyze_calls")
        with self._state_lock:
            if self._draining:
                self.serving.increment("rejected_draining")
                drain = ServerDrainingError(
                    "server is draining for shutdown; retry against "
                    "another instance",
                    retry_after=DRAIN_RETRY_AFTER,
                )
                return self._admission_response(drain, client)
            # Accepted: from here the request is guaranteed to complete
            # (the drain waits on this counter).
            self._inflight += 1
        try:
            try:
                payloads, single = parse_analyze_payloads(
                    body, headers.get("content-type", "")
                )
                deadline = resolve_deadline(
                    query,
                    headers,
                    self.config.default_deadline,
                    self.config.max_deadline,
                )
            except BadRequestError as exc:
                self.serving.increment("bad_requests")
                return HttpResponse.error(400, "BadRequest", str(exc))
            if len(payloads) > self.config.max_batch_requests:
                self.serving.increment("bad_requests")
                return HttpResponse.error(
                    400,
                    "BatchTooLarge",
                    f"{len(payloads)} requests exceed the per-call limit "
                    f"of {self.config.max_batch_requests}; split the batch",
                )
            try:
                with self.admission.admit(client):
                    records, counts = self._dispatch(payloads, deadline)
            except AdmissionError as exc:
                return self._admission_response(exc, client)
            except Exception as exc:
                response = self._dispatch_error(exc, client)
                if response is None:
                    raise
                return response
            return self._records_response(records, counts, single)
        finally:
            self._analyze_finished(watch.stop())
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    def _dispatch(
        self,
        payloads: List[Payload],
        deadline: Optional[float],
    ) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
        """Answer decoded payloads: records in input order + counters."""
        raise NotImplementedError

    def _dispatch_error(
        self, exc: Exception, client: str
    ) -> Optional[HttpResponse]:
        """The response for a backend failure; None re-raises it."""
        return None

    def _analyze_finished(self, seconds: float) -> None:
        """Called with the wall time of every admitted analyze call."""

    def _admission_response(
        self, exc: AdmissionError, client: str
    ) -> HttpResponse:
        self.serving.increment(f"http_{exc.status}")
        return HttpResponse.error(
            exc.status,
            exc.error_type,
            str(exc),
            retry_after=jittered_retry_after(
                exc.retry_after, client, self.config.retry_jitter_seed
            ),
        )

    def _records_response(
        self,
        records: List[Dict[str, Any]],
        counts: Dict[str, int],
        single: bool,
    ) -> HttpResponse:
        headers = {
            "X-Repro-Requests": str(counts["requests"]),
            "X-Repro-Errors": str(counts["errors"]),
            "X-Repro-Cached": str(counts["cached"]),
        }
        if single:
            body = json.dumps(
                records[0], sort_keys=True, separators=(",", ":")
            )
            return HttpResponse(
                status=200,
                body=(body + "\n").encode("utf-8"),
                content_type="application/json",
                headers=headers,
            )
        # The exact bytes `repro batch` prints (BatchReport.to_jsonl):
        # the wire format IS the engine's deterministic JSON-lines stream.
        lines = "\n".join(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in records
        )
        return HttpResponse.ndjson(lines, headers=headers)


class ServerApp(FrontDoor):
    """The single-process backend: one shared engine state per daemon."""

    def __init__(self, config: Optional[ServerConfig] = None):
        super().__init__(config)
        self._engine_config = EngineConfig(
            jobs=self.config.jobs,
            cache_size=self.config.cache_size,
            executor="thread",
            deadline_seconds=self.config.default_deadline,
            paranoid=self.config.paranoid,
        )
        #: Owns the shared cache / counters / breaker every call reuses.
        self._base = BatchEngine(self._engine_config)
        self.latency = LatencyReservoir()
        self._journal: Optional[BatchJournal] = None
        if self.config.journal_path:
            self._journal = BatchJournal(
                self.config.journal_path,
                resume=True,
                compact_max_records=self.config.compact_max_records,
                compact_max_bytes=self.config.compact_max_bytes,
            )
            # Boot is the cheapest compaction point: replay just paid for
            # reading every line, so fold the journal down before serving.
            self._journal.maybe_compact()
        #: The journal is single-writer; journaled runs serialize on this.
        self._journal_lock = threading.Lock()
        loaded = self._base.warm_cache_file(self.config.cache_file, self.log)
        if loaded is not None:
            self.log(
                f"warmed {loaded} cache entr"
                f"{'y' if loaded == 1 else 'ies'} from {self.config.cache_file}"
            )

    def close(self) -> None:
        """Save the result cache, then flush and close the journal.

        Safe to call again: the cache is rewritten with the same
        entries and the journal is closed only once.
        """
        saved = self._base.save_cache_file(self.config.cache_file, self.log)
        if saved is not None:
            self.log(f"saved {saved} cache entries to {self.config.cache_file}")
        if self._journal is not None:
            self._journal.flush()
            self._journal.close()
            self._journal = None

    def _engine_for(self, deadline: Optional[float]) -> BatchEngine:
        """A per-call engine facade over the shared cache/counters/breaker.

        ``run_batch`` keeps per-run state on the engine instance, so
        concurrent calls each get their own; the expensive, shared parts
        (LRU cache, counter registry, circuit breaker -- all thread-safe)
        are swapped in so results and statistics accumulate across calls.
        """

        if deadline == self._engine_config.deadline_seconds:
            config = self._engine_config
        else:
            config = replace(self._engine_config, deadline_seconds=deadline)
        engine = BatchEngine(config)
        engine.cache = self._base.cache
        engine.counters = self._base.counters
        engine.breaker = self._base.breaker
        return engine

    def arm_journal_fault(self, mode: str, after: int = 0) -> bool:
        """Arm a one-shot journal write fault (chaos harness only).

        Returns False when the app runs without a journal.  Reached via
        the shard worker's env-guarded ``chaos`` op; the injected
        ``OSError`` then exercises the journal's real degrade path.
        """

        if self._journal is None:
            return False
        self._journal.inject_write_fault(mode, after=after)
        return True

    def arm_compact_kill(self, step: str) -> bool:
        """Arm a SIGKILL at a compaction step (chaos harness only).

        Returns False when the app runs without a journal.  Reached via
        the shard worker's env-guarded ``chaos`` op; the next compaction
        then dies at ``step``, proving the crash-safe rewrite end to end.
        """

        if self._journal is None:
            return False
        self._journal.inject_compact_kill(step)
        return True

    def compact_journal(self) -> Optional[Dict[str, Any]]:
        """Force a journal compaction now (the admin surface).

        Serialized with journaled batches on the journal lock.  Returns
        the compaction summary, or ``None`` when the app runs without a
        journal or the journal is degraded (a failing volume is no place
        to rewrite the only valid copy).
        """

        if self._journal is None:
            return None
        with self._journal_lock:
            return self._journal.compact()

    def journal_stats(self) -> Optional[Dict[str, Any]]:
        return self._journal.stats() if self._journal is not None else None

    # ------------------------------------------------------------------
    # Admin and observability
    # ------------------------------------------------------------------
    def _admin_compact(
        self,
        query: Dict[str, List[str]],
        headers: Mapping[str, str],
        body: bytes,
        client: str,
    ) -> HttpResponse:
        if self._journal is None:
            return HttpResponse.error(
                409,
                "NoJournal",
                "this server runs without a journal; nothing to compact",
            )
        summary = self.compact_journal()
        if summary is None:
            return HttpResponse.error(
                409,
                "JournalDegraded",
                "journal is degraded (non-durable); fix the volume and "
                "restart before compacting",
            )
        self.serving.increment("compactions")
        return HttpResponse.json({"ok": True, "compact": summary})

    def ready_dict(self) -> Dict[str, Any]:
        return {"ready": True}

    def stats_dict(self) -> Dict[str, Any]:
        """The /stats payload: every rollup the daemon keeps."""
        serving = self.serving.as_dict()
        return {
            "protocol": protocol_info(),
            "uptime_seconds": round(self.uptime.elapsed(), 3),
            "config": {
                "jobs": self.config.jobs,
                "max_concurrency": self.config.max_concurrency,
                "queue_depth": self.config.queue_depth,
                "rate_limit": self.config.rate_limit,
                "paranoid": self.config.paranoid,
                "journal": bool(self.config.journal_path),
                "compact_max_records": self.config.compact_max_records,
                "compact_max_bytes": self.config.compact_max_bytes,
                "default_deadline": self.config.default_deadline,
            },
            "serving": serving,
            "admission": self.admission.snapshot(),
            "latency": self.latency.summary(),
            "cache": self._base.cache.stats().as_dict(),
            "intra_cache": memo_stats()["intra"].as_dict(),
            "engine_counters": self._base.counters.as_dict(),
            "breaker": self._base.breaker.snapshot(),
            "certification": {
                "certified": serving.get("certified", 0),
                "discrepancies": serving.get("discrepancies", 0),
            },
            "journal": (
                self._journal.stats() if self._journal is not None else None
            ),
        }

    # ------------------------------------------------------------------
    # The engine backend
    # ------------------------------------------------------------------
    def run_payloads(
        self,
        payloads: List[Payload],
        deadline: Optional[float] = None,
    ) -> BatchReport:
        """Run decoded payloads through the shared engine state.

        The non-HTTP entry point shard workers use: identical engine
        semantics (cache, journal, serving counters) and identical
        per-call latency accounting as ``POST /v1/analyze``, minus the
        transport and admission layers (the router owns those).
        """

        watch = Stopwatch()
        try:
            return self._run(payloads, deadline)
        finally:
            self.latency.record(watch.stop())

    def _run(
        self,
        payloads: List[Payload],
        deadline: Optional[float],
    ) -> BatchReport:
        engine = self._engine_for(deadline)
        if self._journal is not None:
            with self._journal_lock:
                report = engine.run_batch(payloads, journal=self._journal)
        else:
            report = engine.run_batch(payloads)
        self.serving.increment("requests_served", report.requests)
        self.serving.increment("request_errors", report.errors)
        self.serving.increment("cached_answers", report.cached_answers)
        self.serving.increment("computed", report.computed)
        if report.certified:
            self.serving.increment("certified", report.certified)
        discrepancies = len(report.discrepancies())
        if discrepancies:
            self.serving.increment("discrepancies", discrepancies)
        return report

    def _dispatch(
        self,
        payloads: List[Payload],
        deadline: Optional[float],
    ) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
        report = self._run(payloads, deadline)
        return report.result_records(), report_counts(report)

    def _analyze_finished(self, seconds: float) -> None:
        self.latency.record(seconds)


class ReproServer:
    """The daemon: an HTTP server bound to a :class:`FrontDoor` app.

    ``start()`` serves from a background thread (tests, embedding);
    ``serve_forever()`` blocks (the CLI).  ``shutdown(drain=True)``
    performs the lossless drain: stop admission, wait for in-flight
    work, stop the listener, close the app (journal flushed, cache
    saved).  The app is a :class:`ServerApp`; subclasses build another
    backend in :meth:`_make_app`.
    """

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.app = self._make_app()
        self.httpd = ReproHTTPServer(
            (self.config.host, self.config.port), self.app
        )
        self._thread: Optional[threading.Thread] = None
        self._stopped = False
        self._drained = True

    def _make_app(self) -> FrontDoor:
        return ServerApp(self.config)

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        """Serve from a background thread; a no-op once started.

        ``with ReproServer(config).start() as server:`` calls this twice
        (``__enter__`` starts too); a second ``serve_forever`` thread
        would outlive ``shutdown`` until its join timed out.
        """
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> bool:
        """Stop the daemon; returns True if the drain completed.

        Idempotent: explicit calls compose with ``__exit__`` (the second
        call reports the first call's drain outcome).
        """
        if self._stopped:
            return self._drained
        self._stopped = True
        drained = True
        if drain:
            self.app.begin_drain()
            drained = self.app.wait_idle(timeout=timeout)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.app.close()
        self._drained = drained
        return drained

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(drain=True)
