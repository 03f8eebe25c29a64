"""Structured error taxonomy for the batch service.

Every failure the service can observe is classified **transient** (worth
retrying: the same request may succeed on another attempt or another
worker) or **permanent** (deterministic: the request itself is the
problem, so retrying burns cycles for the same answer).  The
classification rides inside each error record as a ``category`` field, so
it survives pickling across process pools, persistence in the result
cache, and replay from a warm cache file.

Transient by construction: deadline overruns, worker crashes, broken
pools, corrupted result envelopes.  Permanent by construction: malformed
requests (:class:`~repro.service.requests.RequestError`), structurally
invalid workloads (:class:`~repro.ir.operator.InvalidWorkloadError` --
zero/negative dims, non-positive or non-integer buffer sizes), infeasible
buffers (:class:`~repro.core.intra.InfeasibleError`), impossible fusions
(:class:`~repro.dataflow.fusion_nest.FusionError`), certification
failures (:class:`~repro.verify.CertificationError` -- the audit recount
is deterministic, so a failed certificate fails identically on every
retry), unknown models, and a tripped circuit breaker.  All of these are
``ValueError`` subclasses outside :data:`_TRANSIENT_NAMES`, so the
name-based default covers them.  Anything unrecognized defaults to
permanent -- retrying an unknown failure mode is how retry storms start.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Category labels carried in error records.
TRANSIENT = "transient"
PERMANENT = "permanent"


class ServiceError(Exception):
    """Base class for errors raised by the service layer itself."""

    category = PERMANENT


class TransientError(ServiceError):
    """A failure worth retrying: infrastructure, not the request."""

    category = TRANSIENT


class PermanentError(ServiceError):
    """A deterministic failure: the request itself cannot succeed."""

    category = PERMANENT


class DeadlineExceededError(TransientError):
    """A request overran its per-request deadline."""


class WorkerCrashError(TransientError):
    """A worker died (or a fault simulated its death) mid-request."""


class PoolBrokenError(TransientError):
    """The executor pool itself broke; the request never completed."""


class CorruptResultError(TransientError):
    """A result record failed its integrity check in transit."""


class CircuitOpenError(PermanentError):
    """The circuit breaker for this request kind is open (failing fast)."""


class InjectedFaultError(ServiceError):
    """Raised by the fault-injection harness (category set per clause)."""

    def __init__(self, message: str, category: str = PERMANENT):
        super().__init__(message)
        self.category = category


class BatchAbortError(BaseException):
    """An injected *process death* (the ``exit`` fault action).

    Deliberately a ``BaseException``: the batch layers catch ``Exception``
    to isolate request failures, and a simulated crash must tear through
    all of them exactly like a real SIGKILL would -- leaving the journal
    behind as the only survivor.  The ``hard=1`` variant calls
    ``os._exit`` instead and never raises at all.
    """


#: Exception type *names* that classify as transient.  Names (not types)
#: because records cross process boundaries as plain dicts, and the cache
#: replays records written by earlier processes.
_TRANSIENT_NAMES = frozenset(
    {
        "BrokenProcessPool",
        "BrokenExecutor",
        "ConnectionError",
        "CorruptResultError",
        "DeadlineExceededError",
        "InterruptedError",
        "PoolBrokenError",
        "TimeoutError",
        "WorkerCrashError",
    }
)


def classify_exception(exc: BaseException) -> str:
    """Classify a live exception object as transient or permanent."""
    if isinstance(exc, ServiceError):
        return exc.category
    if isinstance(exc, (TimeoutError, BrokenPipeError, InterruptedError)):
        return TRANSIENT
    return classify_error_name(type(exc).__name__)


def classify_error_name(name: Optional[str]) -> str:
    """Classify an exception by type name (for records crossing pickles)."""
    return TRANSIENT if name in _TRANSIENT_NAMES else PERMANENT


def record_category(record: Dict[str, Any]) -> Optional[str]:
    """Category of a result record: ``None`` for successes.

    Falls back to name-based classification for records written before
    the taxonomy existed (e.g. replayed from an old cache file).
    """

    if record.get("ok"):
        return None
    error = record.get("error") or {}
    category = error.get("category")
    if category in (TRANSIENT, PERMANENT):
        return category
    return classify_error_name(error.get("type"))
