"""Batch analysis engine: parallel, cached, metered evaluation service.

The serving substrate over the analysis layers below it: structured
requests (:mod:`~repro.service.requests`) are content-addressed, answered
from a bounded LRU result cache (:class:`~repro.core.memo.LRUCache`), fanned out
across a thread/process pool with deterministic ordering and per-request
error capture (:mod:`~repro.service.engine` / :mod:`~repro.service.workers`),
and metered end to end (:mod:`~repro.service.metrics`,
:mod:`~repro.service.report`).  A resilience layer
(:mod:`~repro.service.errors`, :mod:`~repro.service.resilience`) adds a
transient/permanent error taxonomy, bounded retries with deterministic
backoff, per-request deadlines, a per-kind circuit breaker, and graceful
process -> thread -> serial degradation on pool breakage; the
deterministic fault-injection harness (:mod:`~repro.service.faults`)
proves every one of those paths end to end.  A durable-execution layer
(:mod:`~repro.service.journal`, :mod:`~repro.service.shutdown`) makes
batches survive *process death*: completions are checkpointed to a
fsync'd write-ahead journal, resumed runs replay them into a
byte-identical result stream, and SIGINT/SIGTERM drain gracefully into
a resumable state.
:mod:`~repro.service.intra_cache` reports the counters of the analysis
memo (:mod:`repro.core.memo`), which shares intra-operator and fused
optima process-wide so sweeps and DSE baselines stop recomputing
identical (dims, buffer) problems.

Quick start::

    from repro.service import BatchEngine, EngineConfig, intra_request

    engine = BatchEngine(EngineConfig(jobs=4))
    report = engine.run_batch(
        [intra_request(1024, 768, 768, buffer_elems=64 << 10)]
    )
    print(report.render_text())
"""

from ..core.memo import CacheStats, LRUCache
from .engine import (
    CACHE_SCHEMA_VERSION,
    EXECUTORS,
    START_METHODS,
    BatchEngine,
    BatchInterrupted,
    EngineConfig,
)
from .errors import (
    PERMANENT,
    TRANSIENT,
    BatchAbortError,
    CircuitOpenError,
    CorruptResultError,
    DeadlineExceededError,
    InjectedFaultError,
    PermanentError,
    PoolBrokenError,
    ServiceError,
    TransientError,
    WorkerCrashError,
    classify_error_name,
    classify_exception,
    record_category,
)
from .faults import (
    FAULTS_ENV,
    FAULTS_GUARD_ENV,
    FaultClause,
    FaultPlan,
    FaultSpecError,
    active_fault_plan,
    injected_faults,
    parse_fault_spec,
    reset_fault_state,
    set_fault_plan,
)
from .journal import (
    COMPACT_STEPS,
    FSCK_CLEAN,
    FSCK_FATAL,
    FSCK_PROBLEMS,
    JOURNAL_FORMAT,
    JOURNAL_SCHEMA_VERSION,
    BatchJournal,
    JournalError,
    JournalExistsError,
    JournalLockedError,
    JournalVersionError,
    fsck_file,
    read_journal_completions,
    record_crc,
    scan_journal,
)
from .locking import (
    LOCKING_SUPPORTED,
    FileLock,
    FileLockedError,
    lock_handle,
    unlock_handle,
)
from .shutdown import RESUMABLE_EXIT_CODE, ShutdownRequested, shutdown_guard
from .intra_cache import fused_cache_stats, intra_cache_stats
from .metrics import CounterRegistry, LatencyReservoir, Stopwatch
from .report import BatchEntry, BatchReport
from .requests import (
    PARANOID_KINDS,
    REQUEST_KINDS,
    AnalysisRequest,
    RequestError,
    apply_paranoid,
    dag_plan_request,
    fusion_request,
    graph_plan_request,
    intra_request,
    parse_request,
    request_key,
    sweep_point_request,
)
from .resilience import CircuitBreaker, Deadline, RetryPolicy
from .workers import execute_request, result_digest, run_payload

__all__ = [
    "AnalysisRequest",
    "BatchAbortError",
    "BatchEngine",
    "BatchEntry",
    "BatchInterrupted",
    "BatchJournal",
    "BatchReport",
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "CircuitBreaker",
    "COMPACT_STEPS",
    "CircuitOpenError",
    "CorruptResultError",
    "CounterRegistry",
    "Deadline",
    "DeadlineExceededError",
    "EngineConfig",
    "EXECUTORS",
    "FAULTS_ENV",
    "FAULTS_GUARD_ENV",
    "FSCK_CLEAN",
    "FSCK_FATAL",
    "FSCK_PROBLEMS",
    "FaultClause",
    "FaultPlan",
    "FaultSpecError",
    "FileLock",
    "FileLockedError",
    "InjectedFaultError",
    "JOURNAL_FORMAT",
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "JournalExistsError",
    "JournalLockedError",
    "JournalVersionError",
    "LOCKING_SUPPORTED",
    "LRUCache",
    "LatencyReservoir",
    "PARANOID_KINDS",
    "PERMANENT",
    "PermanentError",
    "PoolBrokenError",
    "REQUEST_KINDS",
    "RESUMABLE_EXIT_CODE",
    "RequestError",
    "RetryPolicy",
    "START_METHODS",
    "ServiceError",
    "ShutdownRequested",
    "Stopwatch",
    "TRANSIENT",
    "TransientError",
    "WorkerCrashError",
    "active_fault_plan",
    "apply_paranoid",
    "classify_error_name",
    "classify_exception",
    "dag_plan_request",
    "execute_request",
    "fsck_file",
    "fused_cache_stats",
    "fusion_request",
    "graph_plan_request",
    "injected_faults",
    "intra_cache_stats",
    "intra_request",
    "lock_handle",
    "parse_fault_spec",
    "parse_request",
    "read_journal_completions",
    "record_category",
    "record_crc",
    "request_key",
    "scan_journal",
    "reset_fault_state",
    "result_digest",
    "run_payload",
    "set_fault_plan",
    "shutdown_guard",
    "sweep_point_request",
    "unlock_handle",
]
