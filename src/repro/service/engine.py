"""The batch analysis engine: cache + pool + metering + resilience.

:class:`BatchEngine` turns a stream of analysis requests into a
:class:`~repro.service.report.BatchReport`:

1. **Canonicalize** every request (:mod:`repro.service.requests`); malformed
   requests become structured error entries without touching the pool.
2. **Dedup + cache**: each distinct content-addressed key is looked up once
   per batch in the bounded LRU result cache; repeats inside the batch are
   answered from the first computation.
3. **Fan out** the remaining unique requests across a
   ``concurrent.futures`` thread or process pool, collecting results in
   submission order so output stays deterministic; each worker captures
   its own failures, so one poisoned request never kills the batch.
4. **Survive** infrastructure failure: transient errors are retried under
   a :class:`~repro.service.resilience.RetryPolicy`, per-request deadlines
   are enforced preemptively for process pools (timed-out workers are
   terminated and the pool respawned) and cooperatively for threads, a
   broken pool degrades the batch process -> thread -> serial instead of
   aborting it, and a per-kind circuit breaker converts hopeless request
   kinds into fast structured errors.
5. **Meter** everything: per-request monotonic timings, batch wall time,
   cache hit/miss/eviction deltas, dedup/error counts, and resilience
   counters (retries, timeouts, degradations, breaker trips).

Results are pure data in input order, so batch output is byte-identical
across ``jobs`` settings and cache temperatures; all resilience bookkeeping
lives in the report summary, never in the result stream.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.memo import CacheStats, LRUCache
from .errors import PERMANENT, TRANSIENT, record_category
from .faults import active_fault_plan
from .journal import BatchJournal
from .metrics import CounterRegistry, Stopwatch
from .report import BatchEntry, BatchReport
from .requests import (
    AnalysisRequest,
    RequestError,
    apply_paranoid,
    parse_request,
    request_key,
)
from .resilience import CircuitBreaker, RetryPolicy
from .workers import result_digest, run_payload

#: Executor kinds accepted by :class:`EngineConfig`.
EXECUTORS = ("thread", "process")

#: Multiprocessing start methods accepted by :class:`EngineConfig`.
START_METHODS = ("fork", "spawn", "forkserver")

#: Schema version written to persisted cache files.  Bump on any format
#: change; :meth:`BatchEngine.load_cache` refuses unknown versions loudly
#: instead of silently misloading.
CACHE_SCHEMA_VERSION = 2
_COMPATIBLE_CACHE_VERSIONS = (1, 2)

#: Grace added to the preemptive ``future.result`` timeout beyond the
#: cooperative deadline, so a well-behaved worker reports its own clean
#: deadline record before the engine resorts to killing it.
_DEADLINE_GRACE = 0.25

#: Ceiling on a single ``future.result`` wait when a stop event is being
#: watched, so a SIGINT is noticed within a fraction of a second even
#: while a worker grinds on.
_INTERRUPT_POLL = 0.2

RequestLike = Union[AnalysisRequest, Mapping[str, Any]]


class _PoolDegraded(Exception):
    """Internal signal: the current pool mode broke; fall back."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _BatchInterrupted(Exception):
    """Internal signal: the stop event fired; unwind and drain."""


class BatchInterrupted(RuntimeError):
    """A batch stopped early on a graceful shutdown request.

    Raised by :meth:`BatchEngine.run_batch` when its ``stop_event`` fires
    mid-batch.  Every completion that landed before (or finished during
    the drain) is in the journal, so re-running the same batch with the
    same journal recomputes only what is missing.
    """

    def __init__(
        self,
        total_requests: int,
        replayed: int,
        journaled: int,
        completed_keys: int,
        signal_name: Optional[str] = None,
    ):
        self.total_requests = total_requests
        #: Requests answered from the journal before the interrupt.
        self.replayed = replayed
        #: Completions journaled by this run.
        self.journaled = journaled
        #: Total durable completions now in the journal (0 if none).
        self.completed_keys = completed_keys
        self.signal_name = signal_name
        source = f" on {signal_name}" if signal_name else ""
        super().__init__(
            f"batch interrupted{source}: {journaled} completion(s) "
            f"journaled this run, {completed_keys} total checkpointed "
            f"of {total_requests} request(s); rerun with the same "
            "journal to resume"
        )


@dataclass(frozen=True)
class EngineConfig:
    """Engine tuning knobs.

    The resilience defaults are all "off" (one attempt, no deadline, no
    breaker), so a default-configured engine behaves exactly like the
    pre-resilience engine; ``fallback`` alone defaults on, because
    finishing a batch serially always beats losing it.
    """

    jobs: int = 1
    cache_size: int = 4096
    executor: str = "thread"
    #: Total attempts per request (1 = no retries of transient failures).
    max_attempts: int = 1
    #: First backoff delay in seconds (0 = immediate retries).
    retry_base_delay: float = 0.0
    #: Per-request deadline in seconds (None = unlimited).
    deadline_seconds: Optional[float] = None
    #: Consecutive permanent failures per kind before the circuit opens
    #: (0 = breaker disabled).
    breaker_threshold: int = 0
    #: Degrade process -> thread -> serial on pool breakage instead of
    #: synthesizing pool-broken error records.
    fallback: bool = True
    #: Multiprocessing start method for the process executor (None =
    #: platform default; "spawn" matches the py3.12+/macOS CI default).
    start_method: Optional[str] = None
    #: Stalled-batch watchdog: if no request completes for this many
    #: seconds while a pool has work in flight, the engine declares a
    #: stall -- journal heartbeat, ``stalls`` counter, and (for process
    #: pools) a worker respawn, the same escalation path as a preempted
    #: deadline.  ``None`` disables the watchdog.
    stall_timeout_seconds: Optional[float] = None
    #: Rewrite every certification-capable request (intra/fusion) to run
    #: under paranoid certification: results are independently audited and
    #: cross-checked against a budgeted branch-and-bound probe, with the
    #: self-healing fallback on discrepancy.  Changes request keys (a
    #: paranoid result record carries a certificate an ordinary one lacks).
    paranoid: bool = False

    def __post_init__(self) -> None:
        if self.jobs <= 0:
            raise ValueError("jobs must be positive")
        if self.cache_size <= 0:
            raise ValueError("cache_size must be positive")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; choose from {EXECUTORS}"
            )
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.deadline_seconds is not None and not self.deadline_seconds > 0:
            raise ValueError("deadline_seconds must be positive")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be non-negative")
        if (
            self.stall_timeout_seconds is not None
            and self.stall_timeout_seconds <= 0
        ):
            raise ValueError("stall_timeout_seconds must be positive")
        if self.start_method is not None and (
            self.start_method not in START_METHODS
        ):
            raise ValueError(
                f"unknown start_method {self.start_method!r}; "
                f"choose from {START_METHODS}"
            )

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=self.max_attempts,
            base_delay=self.retry_base_delay,
        )


def _encode_record(record: Dict[str, Any]) -> bytes:
    """Compact JSON form of a result record, as held in the result cache.

    A parsed record costs several times its JSON size in Python objects,
    and forked pool workers inherit every cached page; bytes keep a full
    cache small.
    """
    return json.dumps(record, separators=(",", ":")).encode("utf-8")


def _decode_record(blob: bytes) -> Dict[str, Any]:
    return json.loads(blob)


class BatchEngine:
    """Parallel, cached, metered, fault-tolerant evaluation of requests."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.config = config or EngineConfig()
        self.cache = LRUCache(self.config.cache_size)
        self.counters = CounterRegistry()
        self.retry_policy = retry_policy or self.config.retry_policy()
        self.breaker = CircuitBreaker(self.config.breaker_threshold)
        #: Monotonic timestamp of the latest in-flight completion,
        #: updated by future done-callbacks; the stall watchdog's clock.
        self._progress_at = time.monotonic()
        #: Completions finished by the current run_batch (the
        #: crash-after-n fault's counter).
        self._completions = 0

    # ------------------------------------------------------------------
    # Single-request convenience
    # ------------------------------------------------------------------
    def evaluate(self, request: RequestLike) -> Dict[str, Any]:
        """Evaluate one request through the cache; returns its result record."""
        return self.run_batch([request]).entries[0].result_record()

    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------
    def run_batch(
        self,
        requests: Sequence[RequestLike],
        journal: Optional[BatchJournal] = None,
        stop_event: Optional[Any] = None,
    ) -> BatchReport:
        """Evaluate a batch, preserving input order in the results.

        ``journal`` makes the batch crash-safe: keys the journal already
        holds are *replayed* into the result stream (in input order, so
        output stays byte-identical to an uninterrupted run) and every
        new durable completion is fsync'd to the journal before the
        batch proceeds.  ``stop_event`` (any object with ``is_set()``,
        e.g. :class:`~repro.service.shutdown.ShutdownRequested`) requests
        a graceful stop: dispatch halts, finished in-flight work is
        drained into the journal, and :class:`BatchInterrupted` is
        raised with resume bookkeeping.
        """

        requests = list(requests)
        watch = Stopwatch()
        stats_before = self.cache.stats()
        self.counters.increment("batches")
        self._completions = 0

        entries: List[Optional[BatchEntry]] = [None] * len(requests)
        # First-occurrence order of keys that need computation.
        pending_order: List[str] = []
        pending_payloads: Dict[str, Dict[str, Any]] = {}
        pending_indices: Dict[str, List[int]] = {}
        seen_records: Dict[str, Dict[str, Any]] = {}
        deduplicated = 0
        replayed = 0

        for index, raw in enumerate(requests):
            self.counters.increment("requests")
            try:
                request = (
                    raw if isinstance(raw, AnalysisRequest) else parse_request(raw)
                )
                if self.config.paranoid:
                    request = apply_paranoid(request)
            except RequestError as exc:
                self.counters.increment("errors")
                self.breaker.record_failure(exc.kind, PERMANENT)
                entries[index] = BatchEntry(
                    index=index,
                    key=None,
                    kind=raw.get("kind") if isinstance(raw, Mapping) else None,
                    ok=False,
                    cached=False,
                    seconds=0.0,
                    record={
                        "error": {
                            "type": type(exc).__name__,
                            "message": str(exc),
                            "category": PERMANENT,
                        }
                    },
                )
                continue
            key = request_key(request)
            if key in seen_records:
                # Duplicate of an earlier cache hit in this batch; the
                # lookup counts as a hit, as it would when run serially.
                self.counters.increment("deduplicated")
                deduplicated += 1
                blob = self.cache.get(key)
                if blob is None:  # unreachable: no puts during this pass
                    record = seen_records[key]
                else:
                    record = _decode_record(blob)
                entries[index] = self._entry_from_record(
                    index, key, record, cached=True, seconds=0.0
                )
                continue
            if key in pending_payloads:
                # Duplicate of a not-yet-computed request: share the compute.
                self.counters.increment("deduplicated")
                deduplicated += 1
                pending_indices[key].append(index)
                continue
            if journal is not None and key in journal.completed:
                # Resume: this key finished in an earlier (interrupted)
                # run.  Replay the journaled record at this input
                # position -- the stream stays byte-identical to an
                # uninterrupted run -- and warm the cache with it.
                record = dict(journal.completed[key])
                record.pop("seconds", None)
                self.counters.increment("replayed")
                replayed += 1
                seen_records[key] = record
                if self._cacheable(record):
                    self.cache.put(key, _encode_record(record))
                entries[index] = self._entry_from_record(
                    index, key, record, cached=False, seconds=0.0,
                    replayed=True,
                )
                continue
            blob = self.cache.get(key)
            if blob is not None:
                hit = _decode_record(blob)
                seen_records[key] = hit
                entries[index] = self._entry_from_record(
                    index, key, hit, cached=True, seconds=0.0
                )
                continue
            pending_order.append(key)
            pending_payloads[key] = request.canonical_payload()
            pending_indices[key] = [index]

        pending = [(key, pending_payloads[key]) for key in pending_order]
        try:
            records, resilience, degradations = self._compute(
                pending, journal=journal, stop_event=stop_event
            )
        except _BatchInterrupted:
            if journal is not None:
                journal.flush()
            raise BatchInterrupted(
                total_requests=len(requests),
                replayed=replayed,
                journaled=journal.appended if journal is not None else 0,
                completed_keys=(
                    len(journal.completed) if journal is not None else 0
                ),
                signal_name=getattr(stop_event, "signal_name", None),
            ) from None
        for key, record in zip(pending_order, records):
            seconds = float(record.pop("seconds", 0.0))
            self.counters.increment("computed")
            if not record.get("ok"):
                self.counters.increment("errors")
            if self._cacheable(record):
                # Permanent errors are cached alongside successes: every
                # request kind is a pure function, so "unknown model" and
                # "infeasible buffer" are as deterministic as any optimum.
                # Transient errors (timeouts, crashes, open circuits) are
                # infrastructure outcomes, not answers -- never cached.
                self.cache.put(key, _encode_record(record))
            first, *rest = pending_indices[key]
            entries[first] = self._entry_from_record(
                first, key, record, cached=False, seconds=seconds
            )
            for index in rest:
                # Count the duplicate's lookup as the hit it would have
                # been in serial execution (the entry is cached by now).
                self.cache.get(key)
                entries[index] = self._entry_from_record(
                    index, key, record, cached=True, seconds=0.0
                )

        self.counters.merge(resilience)
        if journal is not None:
            # End-of-batch is the natural compaction point: the journal
            # is quiescent and every duplicate/superseded line written
            # this run is reclaimable.  No-op unless thresholds are
            # armed and exceeded.
            journal.maybe_compact()
        stats_after = self.cache.stats()
        final = [entry for entry in entries if entry is not None]
        assert len(final) == len(requests)
        return BatchReport(
            entries=final,
            cache=CacheStats(
                hits=stats_after.hits - stats_before.hits,
                misses=stats_after.misses - stats_before.misses,
                evictions=stats_after.evictions - stats_before.evictions,
                size=stats_after.size,
                maxsize=stats_after.maxsize,
            ),
            jobs=self.config.jobs,
            executor=self.config.executor,
            wall_seconds=watch.stop(),
            computed=len(pending_order),
            deduplicated=deduplicated,
            counters=self.counters.as_dict(),
            resilience=resilience,
            degradations=degradations,
            replayed=replayed,
            journal=journal.stats() if journal is not None else None,
        )

    @staticmethod
    def _entry_from_record(
        index: int,
        key: str,
        record: Dict[str, Any],
        cached: bool,
        seconds: float,
        replayed: bool = False,
    ) -> BatchEntry:
        return BatchEntry(
            index=index,
            key=key,
            kind=record.get("kind"),
            ok=bool(record.get("ok")),
            cached=cached,
            seconds=seconds,
            record=record,
            replayed=replayed,
        )

    @staticmethod
    def _cacheable(record: Dict[str, Any]) -> bool:
        if record.get("ok"):
            return True
        error = record.get("error") or {}
        if error.get("type") == "CircuitOpenError":
            return False
        return record_category(record) == PERMANENT

    # ------------------------------------------------------------------
    # Resilient computation
    # ------------------------------------------------------------------
    def _compute(
        self,
        pending: Sequence[Tuple[str, Dict[str, Any]]],
        journal: Optional[BatchJournal] = None,
        stop_event: Optional[Any] = None,
    ) -> Tuple[List[Dict[str, Any]], Dict[str, int], List[Dict[str, str]]]:
        """Run unique (key, payload) pairs to final records, in order.

        Returns ``(records, resilience_counters, degradation_events)``.
        ``records`` is aligned with ``pending``; every pair gets a final
        record no matter what breaks underneath -- unless the stop event
        fires, in which case :class:`_BatchInterrupted` unwinds with
        whatever completed already journaled.
        """

        resilience = CounterRegistry()
        events: List[Dict[str, str]] = []
        if not pending:
            return [], resilience.as_dict(), events
        if stop_event is not None and stop_event.is_set():
            raise _BatchInterrupted()

        records: Dict[int, Dict[str, Any]] = {}
        probed: Set[str] = set()
        work: List[int] = []
        for index, (key, payload) in enumerate(pending):
            kind = payload.get("kind")
            if self._breaker_allows(kind, probed):
                work.append(index)
            else:
                resilience.increment("breaker_fastfail")
                records[index] = self._breaker_record(key, kind)

        chain = self._mode_chain(len(work))
        for position, mode in enumerate(chain):
            todo = [index for index in work if index not in records]
            if not todo:
                break
            try:
                self._compute_mode(
                    mode, pending, todo, records, resilience,
                    journal, stop_event,
                )
                break
            except _PoolDegraded as degraded:
                remaining = [i for i in todo if i not in records]
                if position + 1 < len(chain):
                    resilience.increment("degradations")
                    events.append(
                        {
                            "from": mode,
                            "to": chain[position + 1],
                            "reason": degraded.reason,
                        }
                    )
                else:
                    # Fallback disabled (or nowhere left to go): the
                    # remaining requests become structured pool errors.
                    for index in remaining:
                        key, payload = pending[index]
                        resilience.increment("pool_errors")
                        records[index] = self._infra_record(
                            key,
                            payload.get("kind"),
                            "PoolBrokenError",
                            f"executor pool broke ({degraded.reason}) and "
                            "fallback is disabled",
                        )
        return (
            [records[index] for index in range(len(pending))],
            resilience.as_dict(),
            events,
        )

    def _mode_chain(self, work_items: int) -> List[str]:
        jobs = min(self.config.jobs, max(work_items, 1))
        if jobs <= 1:
            return ["serial"]
        if not self.config.fallback:
            return [self.config.executor]
        if self.config.executor == "process":
            return ["process", "thread", "serial"]
        return ["thread", "serial"]

    def _compute_mode(
        self,
        mode: str,
        pending: Sequence[Tuple[str, Dict[str, Any]]],
        todo: Sequence[int],
        records: Dict[int, Dict[str, Any]],
        resilience: CounterRegistry,
        journal: Optional[BatchJournal],
        stop_event: Optional[Any],
    ) -> None:
        if mode == "serial":
            self._compute_serial(
                pending, todo, records, resilience, journal, stop_event
            )
        else:
            self._compute_pooled(
                mode, pending, todo, records, resilience, journal, stop_event
            )

    def _compute_serial(
        self,
        pending: Sequence[Tuple[str, Dict[str, Any]]],
        todo: Sequence[int],
        records: Dict[int, Dict[str, Any]],
        resilience: CounterRegistry,
        journal: Optional[BatchJournal],
        stop_event: Optional[Any],
    ) -> None:
        # Serial execution sees breaker trips immediately, so a kind that
        # turns hopeless mid-batch starts failing fast mid-batch.
        probed: Set[str] = set()
        deadline = self.config.deadline_seconds
        for index in todo:
            if stop_event is not None and stop_event.is_set():
                raise _BatchInterrupted()
            key, payload = pending[index]
            kind = payload.get("kind")
            if not self._breaker_allows(kind, probed):
                resilience.increment("breaker_fastfail")
                records[index] = self._breaker_record(key, kind)
                continue
            attempt = 0
            while True:
                attempt += 1
                record = self._observe(
                    run_payload(payload, deadline), resilience
                )
                category = record_category(record)
                if category is None or not self.retry_policy.should_retry(
                    category, attempt
                ):
                    break
                resilience.increment("retries")
                self.retry_policy.backoff(attempt + 1, key)
            self._finish(index, key, kind, record, records, resilience, journal)

    def _compute_pooled(
        self,
        mode: str,
        pending: Sequence[Tuple[str, Dict[str, Any]]],
        todo: Sequence[int],
        records: Dict[int, Dict[str, Any]],
        resilience: CounterRegistry,
        journal: Optional[BatchJournal],
        stop_event: Optional[Any],
    ) -> None:
        deadline = self.config.deadline_seconds
        grace = None if deadline is None else deadline + _DEADLINE_GRACE
        stall = self.config.stall_timeout_seconds
        jobs = min(self.config.jobs, len(todo))
        pool = self._make_pool(mode, jobs)
        futures: Dict[int, Future] = {}
        attempts: Dict[int, int] = {}
        interrupted = False
        self._note_progress()
        try:
            for index in todo:
                attempts[index] = 1
                futures[index] = self._submit(
                    pool, pending[index][1], deadline
                )
            for index in todo:
                key, payload = pending[index]
                kind = payload.get("kind")
                # The deadline grace window runs from when this future's
                # turn to be collected starts (matching the cooperative
                # clock its worker starts when it actually executes), and
                # resets on every resubmission.
                wait_began = time.monotonic()
                while True:
                    if stop_event is not None and stop_event.is_set():
                        raise _BatchInterrupted()
                    try:
                        record = futures[index].result(
                            timeout=self._wait_slice(
                                wait_began, grace, stall, stop_event
                            )
                        )
                    except FutureTimeoutError:
                        now = time.monotonic()
                        if grace is not None and now - wait_began >= grace:
                            resilience.increment("timeouts")
                            record = self._infra_record(
                                key,
                                kind,
                                "DeadlineExceededError",
                                f"request exceeded its {deadline:.3f}s "
                                "deadline (preempted by the engine)",
                            )
                            futures[index].cancel()
                            if mode == "process":
                                # The worker holding this request never
                                # yielded: kill the workers and respawn
                                # the pool so the rest of the batch isn't
                                # hostage.
                                resilience.increment("pool_respawns")
                                pool = self._respawn_pool(
                                    pool, jobs, pending, todo, records,
                                    futures, exclude=index,
                                )
                                self._note_progress()
                        elif (
                            stall is not None
                            and now - self._progress_at >= stall
                        ):
                            # Stalled batch: nothing has completed
                            # anywhere in the pool for a full watchdog
                            # window.  Escalate like a preempted
                            # deadline: heartbeat the journal, count it,
                            # and (process pools) respawn the workers.
                            resilience.increment("stalls")
                            if journal is not None:
                                journal.heartbeat(
                                    len(journal.completed),
                                    note=f"stall watchdog ({mode} pool)",
                                )
                            if mode == "process":
                                resilience.increment("pool_respawns")
                                pool = self._respawn_pool(
                                    pool, jobs, pending, todo, records,
                                    futures, exclude=None,
                                )
                                wait_began = time.monotonic()
                            self._note_progress()
                            continue
                        else:
                            continue  # poll wakeup; re-check and wait on
                    except BrokenExecutor as exc:
                        raise _PoolDegraded(type(exc).__name__) from exc
                    else:
                        record = self._observe(record, resilience)
                    category = record_category(record)
                    if category is None or not self.retry_policy.should_retry(
                        category, attempts[index]
                    ):
                        break
                    resilience.increment("retries")
                    attempts[index] += 1
                    self.retry_policy.backoff(attempts[index], key)
                    futures[index] = self._submit(pool, payload, deadline)
                    wait_began = time.monotonic()
                self._finish(
                    index, key, kind, record, records, resilience, journal
                )
        except _BatchInterrupted:
            # Graceful shutdown: harvest whatever already finished so it
            # reaches the journal, then stop the pool without waiting on
            # unfinished workers.
            interrupted = True
            self._drain_done(pending, todo, records, futures, resilience, journal)
            if mode == "process":
                for process in list(getattr(pool, "_processes", {}).values()):
                    try:
                        process.terminate()
                    except Exception:  # already dead
                        pass
            raise
        finally:
            # Thread pools may still hold a hung worker past its deadline,
            # and an interrupted batch must not block on in-flight work;
            # don't wait in either case.
            pool.shutdown(
                wait=(mode == "process" and not interrupted),
                cancel_futures=True,
            )

    def _wait_slice(
        self,
        wait_began: float,
        grace: Optional[float],
        stall: Optional[float],
        stop_event: Optional[Any],
    ) -> Optional[float]:
        """How long the next ``future.result`` wait may block.

        Bounded by the deadline grace remaining, the stall watchdog
        window remaining, and (when a stop event is watched) a short
        poll interval; ``None`` means wait forever.
        """

        now = time.monotonic()
        bounds: List[float] = []
        if grace is not None:
            bounds.append(wait_began + grace - now)
        if stall is not None:
            bounds.append(self._progress_at + stall - now)
        if stop_event is not None:
            bounds.append(_INTERRUPT_POLL)
        if not bounds:
            return None
        return max(min(bounds), 0.0)

    def _note_progress(self, _future: Optional[Future] = None) -> None:
        """Done-callback + engine hook feeding the stall watchdog clock."""
        self._progress_at = time.monotonic()

    def _drain_done(
        self,
        pending: Sequence[Tuple[str, Dict[str, Any]]],
        todo: Sequence[int],
        records: Dict[int, Dict[str, Any]],
        futures: Dict[int, Future],
        resilience: CounterRegistry,
        journal: Optional[BatchJournal],
    ) -> None:
        """Collect finished in-flight futures during an interrupt.

        Work a worker already finished is work the resumed run should
        not repeat: finish (and journal) every done future before the
        pool is torn down.  Unfinished and failed futures are left for
        the resume.
        """

        for index in todo:
            if index in records:
                continue
            future = futures.get(index)
            if (
                future is None
                or not future.done()
                or future.cancelled()
                or future.exception() is not None
            ):
                continue
            key, payload = pending[index]
            record = self._observe(future.result(), resilience)
            self._finish(
                index, key, payload.get("kind"), record, records,
                resilience, journal, draining=True,
            )

    def _submit(
        self,
        pool: Any,
        payload: Dict[str, Any],
        deadline: Optional[float],
    ) -> Future:
        try:
            future = pool.submit(run_payload, payload, deadline)
        except BrokenExecutor as exc:
            raise _PoolDegraded(type(exc).__name__) from exc
        except RuntimeError as exc:  # submit on a shut-down pool
            raise _PoolDegraded(type(exc).__name__) from exc
        # Completions anywhere in the pool feed the stall watchdog, even
        # while the engine is blocked collecting an earlier future.
        future.add_done_callback(self._note_progress)
        return future

    def _make_pool(self, mode: str, jobs: int) -> Any:
        if mode == "process":
            mp_context = None
            if self.config.start_method is not None:
                import multiprocessing

                mp_context = multiprocessing.get_context(
                    self.config.start_method
                )
            try:
                return ProcessPoolExecutor(
                    max_workers=jobs, mp_context=mp_context
                )
            except Exception as exc:  # e.g. no /dev/shm, sandboxed fork
                raise _PoolDegraded(type(exc).__name__) from exc
        return ThreadPoolExecutor(max_workers=jobs)

    def _respawn_pool(
        self,
        pool: Any,
        jobs: int,
        pending: Sequence[Tuple[str, Dict[str, Any]]],
        todo: Sequence[int],
        records: Dict[int, Dict[str, Any]],
        futures: Dict[int, Future],
        exclude: Optional[int],
    ) -> Any:
        """Terminate a process pool's workers and resubmit in-flight work.

        Completed futures keep their results; everything else (except
        ``exclude``, whose retry loop handles its own resubmission --
        ``None`` for a stall respawn, which resubmits everything) is
        resubmitted to the fresh pool.
        """

        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:  # already dead
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        fresh = self._make_pool("process", jobs)
        deadline = self.config.deadline_seconds
        for index in todo:
            if index in records or index == exclude:
                continue
            future = futures.get(index)
            if (
                future is not None
                and future.done()
                and not future.cancelled()
                and future.exception() is None
            ):
                continue  # finished before the respawn; result is safe
            futures[index] = self._submit(fresh, pending[index][1], deadline)
        return fresh

    def _observe(
        self, record: Dict[str, Any], resilience: CounterRegistry
    ) -> Dict[str, Any]:
        """Verify a worker record's integrity and count notable outcomes."""
        record = self._verify_integrity(record, resilience)
        if not record.get("ok"):
            error = record.get("error") or {}
            if error.get("type") == "DeadlineExceededError":
                resilience.increment("timeouts")
        return record

    def _verify_integrity(
        self, record: Dict[str, Any], resilience: CounterRegistry
    ) -> Dict[str, Any]:
        digest = record.pop("integrity", None)
        if not record.get("ok") or digest is None:
            return record
        if digest == result_digest(record.get("result")):
            return record
        resilience.increment("corrupt_results")
        return self._infra_record(
            record.get("key"),
            record.get("kind"),
            "CorruptResultError",
            "result record failed its integrity check in transit",
            seconds=record.get("seconds", 0.0),
        )

    def _finish(
        self,
        index: int,
        key: Optional[str],
        kind: Optional[str],
        record: Dict[str, Any],
        records: Dict[int, Dict[str, Any]],
        resilience: Optional[CounterRegistry] = None,
        journal: Optional[BatchJournal] = None,
        draining: bool = False,
    ) -> None:
        category = record_category(record)
        if category is None:
            self.breaker.record_success(kind)
        else:
            self.breaker.record_failure(kind, category)
        records[index] = record
        if journal is not None and key is not None:
            # Write-ahead: the completion is durable on disk before the
            # batch counts it as done, so process death right after this
            # point loses nothing.
            if journal.record_completion(key, record) and resilience:
                resilience.increment("journaled")
        self._completions += 1
        if not draining:
            plan = active_fault_plan()
            if plan is not None:
                # The crash-after-n-completions hook: fires *after* the
                # journal write, which is exactly the recovery boundary
                # the fault exists to test.
                plan.maybe_abort(self._completions)

    def _breaker_allows(self, kind: Optional[str], probed: Set[str]) -> bool:
        """Gate a request on the breaker, letting one probe per kind by."""
        if not self.breaker.is_open(kind):
            return True
        if kind not in probed:
            probed.add(kind)
            return True
        return False

    def _breaker_record(
        self, key: Optional[str], kind: Optional[str]
    ) -> Dict[str, Any]:
        return {
            "key": key,
            "kind": kind,
            "ok": False,
            "error": {
                "type": "CircuitOpenError",
                "message": (
                    f"circuit open for kind {kind!r} after "
                    f"{self.breaker.threshold} consecutive permanent "
                    "failures; failing fast"
                ),
                "category": PERMANENT,
            },
            "seconds": 0.0,
        }

    @staticmethod
    def _infra_record(
        key: Optional[str],
        kind: Optional[str],
        error_type: str,
        message: str,
        seconds: float = 0.0,
    ) -> Dict[str, Any]:
        return {
            "key": key,
            "kind": kind,
            "ok": False,
            "error": {
                "type": error_type,
                "message": message,
                "category": TRANSIENT,
            },
            "seconds": seconds,
        }

    # ------------------------------------------------------------------
    # Cache persistence
    # ------------------------------------------------------------------
    def save_cache(self, path: str) -> int:
        """Write the cache to a JSON file (LRU order); returns entry count.

        Crash-safe: the payload is written to a temporary file in the
        target directory, fsynced, and atomically :func:`os.replace`-d
        into place, so a crash mid-write can never leave a half-written
        cache where the next run would trip over it.
        """

        items: List[Tuple[str, Dict[str, Any]]] = [
            (key, _decode_record(blob)) for key, blob in self.cache.items()
        ]
        payload = {"version": CACHE_SCHEMA_VERSION, "entries": items}
        target = os.path.abspath(path)
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(target) + ".",
            suffix=".tmp",
            dir=os.path.dirname(target),
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, target)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return len(items)

    def load_cache(self, path: str) -> int:
        """Warm the cache from a JSON file; returns entries loaded.

        Unknown schema versions fail loud (a format change must never be
        silently misread as an empty or garbled cache); corrupt files
        raise ``ValueError`` for the caller to handle.
        """

        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict) or "entries" not in payload:
            raise ValueError(f"malformed cache file {path!r}")
        version = payload.get("version")
        if version not in _COMPATIBLE_CACHE_VERSIONS:
            raise ValueError(
                f"cache file {path!r} has schema version {version!r}; "
                f"this build supports {_COMPATIBLE_CACHE_VERSIONS}"
            )
        entries = payload["entries"]
        if not isinstance(entries, list):
            raise ValueError(f"malformed cache file {path!r}")
        return self.cache.load(
            (str(key), _encode_record(value)) for key, value in entries
        )

    def warm_cache_file(
        self, path: Optional[str], log: Callable[[str], None]
    ) -> Optional[int]:
        """Warm from ``path`` if it exists; entries loaded, or ``None``.

        The cache-file policy of ``repro batch`` and ``repro serve``: the
        file is an optimization, so an unreadable one is logged and
        ignored (the next save overwrites it).
        """
        if not path or not os.path.exists(path):
            return None
        try:
            return self.load_cache(path)
        except (ValueError, OSError, KeyError, TypeError) as exc:
            log(f"ignoring unreadable cache file {path} ({exc})")
            return None

    def save_cache_file(
        self, path: Optional[str], log: Callable[[str], None]
    ) -> Optional[int]:
        """Save to ``path`` if given; entries saved, or ``None``.

        A failed save is logged, never raised: its results were delivered.
        """
        if not path:
            return None
        try:
            return self.save_cache(path)
        except OSError as exc:
            log(f"cache save to {path} failed: {exc}")
            return None
