"""Admission control for the serving daemon.

Three independent gates stand between a socket and the engine, applied
in order:

1. **Rate limiting** (:class:`RateLimiter`): a token bucket per client
   identity.  An empty bucket rejects immediately with 429 and a
   ``Retry-After`` hint derived from the refill rate -- never a sleep on
   the server, so one chatty client cannot occupy a handler thread.
2. **Bounded queue** (:class:`AdmissionController`): at most
   ``max_concurrency`` requests execute; up to ``queue_depth`` more may
   wait for a slot.  Beyond that the server is genuinely overloaded and
   sheds load with 503 + ``Retry-After`` instead of queueing unboundedly.
3. **Concurrency semaphore**: the slot itself.  Admitted requests block
   (in their own handler thread) until a slot frees, then run.

Every admitted request is guaranteed to run to completion -- the drain
logic counts admissions, not executions -- which is what makes SIGTERM
lossless for accepted work.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional

from ..core.memo import LRUCache


def jittered_retry_after(
    base: float, key: str, seed: int = 0, spread: float = 0.5
) -> float:
    """Deterministic per-client jitter on a ``Retry-After`` hint.

    After a mass rejection (a shard respawn 503s a burst, a drain turns
    everyone away) every client holding the *same* hint retries in
    lockstep and recreates the thundering herd.  Spreading the hint
    multiplicatively over ``[base, base * (1 + spread)]`` breaks the
    herd up -- and deriving the offset from ``SHA-256(seed ':' key)``
    instead of an RNG keeps it reproducible: a given (seed, client)
    pair always receives the same hint, so responses stay byte-stable
    for tests and for the chaos harness's oracle comparisons.
    """

    if base <= 0.0 or spread <= 0.0:
        return base
    digest = hashlib.sha256(
        f"{seed}:{key}".encode("utf-8", "replace")
    ).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return base * (1.0 + spread * fraction)


class AdmissionError(Exception):
    """A request was refused admission (rate limit or queue bound).

    ``status`` is the HTTP status the refusal maps to; ``retry_after``
    is the server's (advisory) seconds-until-retry hint.
    """

    status = 503
    error_type = "AdmissionError"

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = max(retry_after, 0.0)


class RateLimitedError(AdmissionError):
    """The client's token bucket is empty (HTTP 429)."""

    status = 429
    error_type = "RateLimitedError"


class QueueFullError(AdmissionError):
    """Both the execution slots and the wait queue are full (HTTP 503)."""

    status = 503
    error_type = "QueueFullError"


class ServerDrainingError(AdmissionError):
    """The server is draining for shutdown; no new work (HTTP 503)."""

    status = 503
    error_type = "ServerDrainingError"


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    ``try_acquire`` never blocks: it returns 0.0 on success or the
    seconds until enough tokens will have refilled.  The clock is
    injectable so tests never sleep.
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` if available; else return seconds until refill."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                float(self.burst),
                self._tokens + (now - self._updated) * self.rate,
            )
            self._updated = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return 0.0
            return (tokens - self._tokens) / self.rate

    def available(self) -> float:
        with self._lock:
            now = self._clock()
            return min(
                float(self.burst),
                self._tokens + (now - self._updated) * self.rate,
            )


class RateLimiter:
    """Per-client token buckets behind a bounded LRU.

    Client identities are free-form strings (the daemon uses the
    ``X-Repro-Client`` header, falling back to the peer address).  The
    bucket table is itself bounded: a flood of distinct identities
    evicts the least-recently-seen bucket instead of growing without
    bound -- an evicted client simply starts over with a full bucket,
    which errs on the side of admitting.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[int] = None,
        max_clients: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.burst = int(burst) if burst is not None else max(1, int(rate))
        if self.burst < 1:
            raise ValueError("burst must be at least 1")
        self._clock = clock
        self._buckets = LRUCache(max_clients)
        self._lock = threading.Lock()

    def check(self, client: str) -> None:
        """Admit or raise :class:`RateLimitedError` with a retry hint."""
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
                self._buckets.put(client, bucket)
        wait = bucket.try_acquire()
        if wait > 0.0:
            raise RateLimitedError(
                f"client {client!r} exceeded {self.rate:g} requests/s "
                f"(burst {self.burst})",
                retry_after=wait,
            )

    def snapshot(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "burst": self.burst,
            "clients": len(self._buckets),
        }


class AdmissionController:
    """Bounded queue + concurrency semaphore (+ optional rate limiter).

    ``admit`` is a context manager: entered, the caller holds one of the
    ``max_concurrency`` execution slots (having possibly waited in the
    bounded queue for it); exiting releases the slot.  Refusals raise
    :class:`RateLimitedError` / :class:`QueueFullError` *before* any
    waiting happens, so rejected requests cost nothing.
    """

    def __init__(
        self,
        max_concurrency: int = 4,
        queue_depth: int = 16,
        rate_limit: float = 0.0,
        burst: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be non-negative")
        self.max_concurrency = max_concurrency
        self.queue_depth = queue_depth
        self.limiter = (
            RateLimiter(rate_limit, burst=burst, clock=clock)
            if rate_limit > 0
            else None
        )
        self._slots = threading.BoundedSemaphore(max_concurrency)
        self._lock = threading.Lock()
        self._waiting = 0
        self._active = 0
        self._rejected_rate = 0
        self._rejected_queue = 0
        self._admitted = 0

    @contextmanager
    def admit(self, client: str) -> Iterator[None]:
        if self.limiter is not None:
            try:
                self.limiter.check(client)
            except RateLimitedError:
                with self._lock:
                    self._rejected_rate += 1
                raise
        if not self._slots.acquire(blocking=False):
            with self._lock:
                if self._waiting >= self.queue_depth:
                    self._rejected_queue += 1
                    raise QueueFullError(
                        f"server saturated: {self.max_concurrency} "
                        f"executing and {self._waiting} queued "
                        f"(queue_depth {self.queue_depth})",
                        retry_after=1.0,
                    )
                self._waiting += 1
            try:
                self._slots.acquire()
            finally:
                with self._lock:
                    self._waiting -= 1
        try:
            with self._lock:
                self._admitted += 1
                self._active += 1
            yield
        finally:
            with self._lock:
                self._active -= 1
            self._slots.release()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            snap: Dict[str, Any] = {
                "max_concurrency": self.max_concurrency,
                "queue_depth": self.queue_depth,
                "active": self._active,
                "waiting": self._waiting,
                "admitted": self._admitted,
                "rejected_rate_limited": self._rejected_rate,
                "rejected_queue_full": self._rejected_queue,
            }
        snap["rate_limit"] = (
            None if self.limiter is None else self.limiter.snapshot()
        )
        return snap
