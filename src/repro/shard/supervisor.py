"""Shard process supervision: boot, health, respawn-on-death.

:class:`ShardSupervisor` owns N :class:`ShardHandle`\\ s, one per
rendezvous slot.  A handle wraps the worker process plus its pipe and
serializes all IPC on a per-shard lock (the worker loop is serial, so
one outstanding op per shard is the invariant, not a limitation).

Failure handling is built around one idea: **the slot outlives the
process**.  When a worker dies -- detected either by a dispatch thread
hitting :class:`~repro.shard.ipc.ShardConnectionError` mid-call or by the
health monitor's liveness/ping sweep -- the handle respawns a fresh
process into the same slot.  The successor re-locks the dead worker's
journal (the kernel released the flock at death, even for SIGKILL),
replays its completions, and resumes serving the same keyspace slice.
A *generation counter* makes respawn race-free: every caller states
which generation it observed dying, and only the first such claim
respawns -- latecomers see the bumped generation and simply retry their
call against the successor.

The health monitor is deliberately polite: it only pings a shard whose
lock it can take without blocking.  A busy shard (lock held by a
dispatch thread) is *working*, not dead -- and if it died mid-call, the
dispatch thread holding the lock gets the broken pipe first and handles
it.  This keeps slow analyze calls from being misdiagnosed as hangs.

Respawning is **contained**, not unconditional
(:class:`RespawnPolicy`): a first death respawns immediately, rapid
repeat deaths back off exponentially (the spawn is deferred to the
monitor sweep), and once a slot dies more than ``max_rapid_deaths``
times inside ``death_window`` seconds it is quarantined as ``failed``
-- the router reroutes its keys to survivors via the rendezvous
ranking while the monitor periodically attempts recovery and re-admits
the slot once a successor boots cleanly.  A *stalled* worker (alive
but silent past the supervisor's ``op_timeout``, e.g. SIGSTOPped) is
escalated down the same path: the dispatch thread's timeout kills and
respawns it instead of hanging forever.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..server.app import ServerConfig
from .hashing import shard_label
from .ipc import (
    SHARD_IPC_VERSION,
    ShardConnectionError,
    ShardIPCError,
    ShardProtocolError,
    ShardTimeoutError,
    recv_message,
    send_message,
)
from .worker import shard_worker_main

#: Shard lifecycle states surfaced by /readyz and /stats.
SHARD_STATES = ("starting", "ready", "respawning", "failed", "stopped")


class ShardBootError(RuntimeError):
    """A shard worker failed to boot (bad config, locked journal...)."""


@dataclass(frozen=True)
class RespawnPolicy:
    """Crash-loop containment knobs for one shard slot.

    ``backoff_base`` doubles per rapid death up to ``backoff_max``
    between respawn attempts; more than ``max_rapid_deaths`` deaths
    within ``death_window`` seconds quarantines the slot as ``failed``
    (keys reroute to survivors) until a recovery attempt, retried every
    ``failed_retry_interval`` seconds, boots a successor cleanly.
    """

    backoff_base: float = 0.5
    backoff_max: float = 30.0
    max_rapid_deaths: int = 5
    death_window: float = 30.0
    failed_retry_interval: float = 10.0

    def __post_init__(self) -> None:
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.max_rapid_deaths < 1:
            raise ValueError("max_rapid_deaths must be at least 1")
        if self.death_window <= 0:
            raise ValueError("death_window must be positive")
        if self.failed_retry_interval <= 0:
            raise ValueError("failed_retry_interval must be positive")


def _default_log(message: str) -> None:
    import sys

    print(f"repro shard: {message}", file=sys.stderr, flush=True)


class ShardHandle:
    """One rendezvous slot: the live worker process + its pipe.

    All IPC goes through :meth:`call`, which holds the per-shard lock for
    the full request/reply round trip -- the pipe carries exactly one
    op at a time, so ``seq`` echoes are a desync alarm, not a routing
    mechanism.
    """

    def __init__(
        self,
        index: int,
        config: ServerConfig,
        context: multiprocessing.context.BaseContext,
        boot_timeout: float = 60.0,
        log: Callable[[str], None] = _default_log,
        policy: Optional[RespawnPolicy] = None,
    ):
        self.index = index
        self.label = shard_label(index)
        self.config = config
        self.boot_timeout = boot_timeout
        self.policy = policy or RespawnPolicy()
        #: Bumped on every successful (re)spawn; dispatchers quote the
        #: generation they saw die so only one of them respawns it.
        self.generation = 0
        self.respawns = 0
        self.state = "starting"
        self.pid: Optional[int] = None
        self.started_replay = 0
        #: Monotonic timestamps of deaths inside the containment window.
        self.deaths: List[float] = []
        #: Times the crash-loop containment quarantined this slot.
        self.contained = 0
        #: Ops escalated for stalling past the supervisor's op timeout.
        self.timeouts = 0
        self.next_respawn_at = 0.0
        self.failed_retry_at = 0.0
        #: Chaos-harness hook: extra latency injected before each op's
        #: send, simulating a slow/congested pipe.  Always 0 in prod.
        self.ipc_delay = 0.0
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn: Any = None
        self._context = context
        self._log = log
        self._lock = threading.RLock()
        self._seq = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker and wait for its hello frame."""
        with self._lock:
            parent_conn, child_conn = self._context.Pipe(duplex=True)
            process = self._context.Process(
                target=shard_worker_main,
                args=(
                    child_conn,
                    parent_conn,
                    self.index,
                    self.config,
                ),
                name=f"repro-{self.label}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self.process = process
            self.conn = parent_conn
            try:
                hello = recv_message(parent_conn, timeout=self.boot_timeout)
            except ShardIPCError as exc:
                self._reap()
                self.state = "failed"
                raise ShardBootError(
                    f"{self.label} sent no hello within "
                    f"{self.boot_timeout:.0f}s: {exc}"
                ) from exc
            if not hello.get("ok"):
                error = hello.get("error") or {}
                self._reap()
                self.state = "failed"
                raise ShardBootError(
                    f"{self.label} failed to boot: "
                    f"{error.get('type', 'Error')}: "
                    f"{error.get('message', 'unknown error')}"
                )
            version = hello.get("ipc_version")
            if version != SHARD_IPC_VERSION:
                self._reap()
                self.state = "failed"
                raise ShardBootError(
                    f"{self.label} speaks IPC v{version!r}; this router "
                    f"requires v{SHARD_IPC_VERSION} (mixed builds?)"
                )
            self.pid = hello.get("pid")
            self.started_replay = int(hello.get("journal_replayed") or 0)
            self.state = "ready"
            self._log(
                f"{self.label} ready (pid {self.pid}, "
                f"generation {self.generation}, "
                f"journal replay {self.started_replay})"
            )

    def respawn(self, seen_generation: int) -> bool:
        """Bury a dead (or stalled) worker; maybe boot a successor.

        ``seen_generation`` is the generation the caller observed
        failing.  If another thread already claimed that death
        (generation moved on, or the corpse is already buried), this is
        a no-op and the caller just retries against the slot's current
        state.

        Containment (:class:`RespawnPolicy`) decides what the claim
        does: a first death respawns inline; rapid repeats defer the
        spawn behind an exponential backoff (the health monitor boots
        it when due); too many rapid deaths quarantine the slot as
        ``failed``.  Returns ``True`` only when *this* call booted a
        live successor.
        """

        with self._lock:
            if self.generation != seen_generation:
                return False
            if self.state == "failed":
                return False
            if self.process is None and self.conn is None:
                return False  # death already claimed; spawn is deferred
            self.respawns += 1
            self._reap()
            self.generation += 1
            now = time.monotonic()
            self.deaths = [
                t for t in self.deaths
                if now - t <= self.policy.death_window
            ]
            self.deaths.append(now)
            if len(self.deaths) > self.policy.max_rapid_deaths:
                self._contain(now, seen_generation)
                return False
            delay = self._backoff_delay(len(self.deaths))
            self.state = "respawning"
            if delay > 0.0:
                self.next_respawn_at = now + delay
                self._log(
                    f"{self.label} died (generation {seen_generation}, "
                    f"death {len(self.deaths)}/"
                    f"{self.policy.max_rapid_deaths} in window); "
                    f"respawn backed off {delay:.2f}s"
                )
                return False
            self._log(
                f"{self.label} died (generation {seen_generation}); "
                "respawning"
            )
            try:
                self.start()
            except ShardBootError as exc:
                self.state = "respawning"
                self.next_respawn_at = now + max(
                    self.policy.backoff_base, 0.1
                )
                self._log(
                    f"{self.label} successor failed to boot ({exc}); "
                    "deferred to the health monitor"
                )
                return False
            return True

    def _contain(self, now: float, seen_generation: int) -> None:
        """Quarantine a crash-looping slot (lock held)."""
        self.contained += 1
        self.state = "failed"
        self.failed_retry_at = now + self.policy.failed_retry_interval
        self._log(
            f"{self.label} died {len(self.deaths)} times within "
            f"{self.policy.death_window:.0f}s (generation "
            f"{seen_generation}); crash loop CONTAINED -- slot failed, "
            "keys reroute to survivors, recovery attempt in "
            f"{self.policy.failed_retry_interval:.1f}s"
        )

    def _backoff_delay(self, recent_deaths: int) -> float:
        """Exponential backoff before the Nth rapid respawn (0 = now)."""
        if recent_deaths <= 1:
            return 0.0
        return min(
            self.policy.backoff_max,
            self.policy.backoff_base * (2.0 ** (recent_deaths - 2)),
        )

    def try_deferred_start(self) -> bool:
        """Boot a backoff-deferred successor when due (monitor hook)."""
        with self._lock:
            if self.state != "respawning" or self.process is not None:
                return False
            now = time.monotonic()
            if now < self.next_respawn_at:
                return False
            try:
                self.start()
            except ShardBootError as exc:
                now = time.monotonic()
                self.deaths = [
                    t for t in self.deaths
                    if now - t <= self.policy.death_window
                ]
                self.deaths.append(now)
                if len(self.deaths) > self.policy.max_rapid_deaths:
                    self._contain(now, self.generation)
                else:
                    self.state = "respawning"
                    self.next_respawn_at = now + self._backoff_delay(
                        max(2, len(self.deaths))
                    )
                    self._log(
                        f"{self.label} deferred respawn failed ({exc}); "
                        "backing off again"
                    )
                return False
            return True

    def attempt_recovery(self) -> bool:
        """Re-admit a quarantined (``failed``) slot once its timer lapses.

        A clean successor boot clears the death history and returns the
        slot to ``ready`` -- the router's rendezvous ranking then sends
        its keys home again.  A failed boot re-arms the retry timer.
        """

        with self._lock:
            if self.state != "failed":
                return False
            if time.monotonic() < self.failed_retry_at:
                return False
            self._log(f"{self.label} attempting recovery of failed slot")
            try:
                self.start()
            except ShardBootError as exc:
                self.state = "failed"
                self.failed_retry_at = (
                    time.monotonic() + self.policy.failed_retry_interval
                )
                self._log(
                    f"{self.label} recovery failed ({exc}); next attempt "
                    f"in {self.policy.failed_retry_interval:.1f}s"
                )
                return False
            self.deaths = []
            self.next_respawn_at = 0.0
            self._log(f"{self.label} recovered; slot re-admitted")
            return True

    def _reap(self) -> None:
        """Close the pipe and bury the old process (lock held)."""
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
        process = self.process
        self.process = None
        self.pid = None
        if process is None:
            return
        process.join(timeout=0.5)
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
        if process.is_alive() and hasattr(process, "kill"):
            process.kill()
            process.join(timeout=2.0)

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain (flush journal, save cache) and stop the worker."""
        with self._lock:
            if self.conn is not None and drain:
                try:
                    self.call("drain", timeout=timeout)
                except ShardIPCError:
                    pass  # already dead; nothing left to flush
            self._reap()
            self.state = "stopped"

    # ------------------------------------------------------------------
    # IPC
    # ------------------------------------------------------------------
    def call(
        self, op: str, timeout: Optional[float] = None, **fields: Any
    ) -> Dict[str, Any]:
        """One request/reply round trip; raises the IPC taxonomy."""
        with self._lock:
            if self.conn is None:
                raise ShardConnectionError(f"{self.label} is not running")
            if self.ipc_delay > 0.0:
                time.sleep(self.ipc_delay)  # chaos: simulated slow pipe
            self._seq += 1
            seq = self._seq
            send_message(self.conn, {"op": op, "seq": seq, **fields})
            reply = recv_message(self.conn, timeout=timeout)
            if reply.get("seq") != seq:
                # A desynchronized stream cannot be trusted for any
                # future reply either; treat it as a dead shard.
                raise ShardProtocolError(
                    f"{self.label} answered seq {reply.get('seq')!r} "
                    f"to request seq {seq}"
                )
            if not reply.get("ok"):
                error = reply.get("error") or {}
                raise ShardOpError(
                    op,
                    error.get("type", "Error"),
                    error.get("message", "unknown error"),
                )
            return reply

    def try_ping(self, timeout: float = 5.0) -> Optional[bool]:
        """Non-blocking liveness probe for the health monitor.

        Returns ``True`` (alive), ``False`` (dead/unresponsive), or
        ``None`` when the shard is busy serving -- busy is not dead, and
        the dispatch thread holding the lock will surface a real death
        itself.
        """

        if not self._lock.acquire(blocking=False):
            return None
        try:
            if self.conn is None or self.state != "ready":
                return None
            try:
                self.call("ping", timeout=timeout)
                return True
            except ShardIPCError:
                return False
        finally:
            self._lock.release()

    def snapshot(self) -> Dict[str, Any]:
        """State summary for /readyz, /stats, and the kill-shard tests."""
        return {
            "shard": self.index,
            "label": self.label,
            "state": self.state,
            "pid": self.pid,
            "generation": self.generation,
            "respawns": self.respawns,
            "rapid_deaths": len(self.deaths),
            "contained": self.contained,
            "timeouts": self.timeouts,
            "journal_replayed_at_boot": self.started_replay,
        }


class ShardOpError(ShardIPCError):
    """The worker answered with a structured failure frame.

    Unlike a connection error this is *not* a shard death: the worker is
    alive and made a deliberate statement about this op.  The router
    maps it to a 500 for the offending call rather than a respawn.
    """

    def __init__(self, op: str, error_type: str, message: str):
        super().__init__(f"shard op {op!r} failed: {error_type}: {message}")
        self.op = op
        self.error_type = error_type
        self.error_message = message


class ShardSupervisor:
    """N shard handles + the health-monitor thread."""

    def __init__(
        self,
        shard_count: int,
        config_for_shard: Callable[[int], ServerConfig],
        start_method: Optional[str] = None,
        health_interval: float = 0.5,
        boot_timeout: float = 60.0,
        dispatch_attempts: int = 3,
        op_timeout: Optional[float] = None,
        respawn_policy: Optional[RespawnPolicy] = None,
        log: Callable[[str], None] = _default_log,
    ):
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        if dispatch_attempts < 1:
            raise ValueError("dispatch_attempts must be at least 1")
        if op_timeout is not None and op_timeout <= 0:
            raise ValueError("op_timeout must be positive (or None)")
        self.shard_count = shard_count
        self.dispatch_attempts = dispatch_attempts
        self.health_interval = health_interval
        #: Default per-op IPC deadline; a shard that is alive but silent
        #: past this (SIGSTOPped, livelocked) is escalated -- killed and
        #: respawned -- instead of hanging the dispatch thread forever.
        self.op_timeout = op_timeout
        self._log = log
        # The factories and spawn context are kept for the handles'
        # entire lifetime, not just boot: live resharding mints new
        # handles through the exact same path the constructor used.
        self._config_for_shard = config_for_shard
        self._policy = respawn_policy or RespawnPolicy()
        self._boot_timeout = boot_timeout
        self._context = multiprocessing.get_context(start_method)
        #: Serializes topology changes (grow/retire); dispatch and the
        #: monitor never take it -- they read ``self.handles`` once per
        #: operation, and the list reference is swapped atomically.
        self._topology_lock = threading.RLock()
        self.handles: List[ShardHandle] = [
            self._make_handle(index) for index in range(shard_count)
        ]
        self._monitor_stop = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None
        self._stopped = False

    @property
    def respawn_policy(self) -> RespawnPolicy:
        return self._policy

    def _make_handle(self, index: int) -> ShardHandle:
        return ShardHandle(
            index,
            self._config_for_shard(index),
            self._context,
            boot_timeout=self._boot_timeout,
            log=self._log,
            policy=self._policy,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardSupervisor":
        for handle in self.handles:
            handle.start()
        if self.health_interval > 0:
            self._monitor_thread = threading.Thread(
                target=self._monitor,
                name="repro-shard-monitor",
                daemon=True,
            )
            self._monitor_thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._monitor_stop.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)
            self._monitor_thread = None
        for handle in list(self.handles):
            handle.stop(drain=drain, timeout=timeout)

    # ------------------------------------------------------------------
    # Elastic topology (live resharding)
    # ------------------------------------------------------------------
    def grow_to(self, new_count: int) -> List[ShardHandle]:
        """Boot slots ``shard_count..new_count-1``; all-or-nothing.

        New workers are fully booted (hello received, journal replayed)
        *before* they are published into ``self.handles``, so the health
        monitor and dispatchers never see a half-started slot.  If any
        new slot fails to boot, the ones already started are stopped and
        :class:`ShardBootError` propagates -- the fleet is left exactly
        as it was.  Returns the new handles.
        """

        with self._topology_lock:
            if new_count <= self.shard_count:
                raise ValueError(
                    f"grow_to({new_count}) with {self.shard_count} shards"
                )
            fresh: List[ShardHandle] = []
            try:
                for index in range(self.shard_count, new_count):
                    handle = self._make_handle(index)
                    handle.start()
                    fresh.append(handle)
            except ShardBootError:
                for handle in fresh:
                    handle.stop(drain=False)
                raise
            self.handles = self.handles + fresh
            self.shard_count = new_count
            return fresh

    def retire_to(
        self, new_count: int, drain: bool = True, timeout: float = 30.0
    ) -> List[ShardHandle]:
        """Remove slots ``new_count..shard_count-1`` and stop them.

        The surviving list is published *before* the retirees are
        stopped: from the moment ``self.handles`` shrinks, no dispatcher
        or monitor sweep can route to a retiring slot, and the stop then
        waits out (per-handle lock) any call already in flight.  Returns
        the retired handles so the caller can dispose of their journal
        and cache files once their records are safely handed off.
        """

        with self._topology_lock:
            if not 1 <= new_count < self.shard_count:
                raise ValueError(
                    f"retire_to({new_count}) with {self.shard_count} shards"
                )
            survivors = self.handles[:new_count]
            retired = self.handles[new_count:]
            self.handles = survivors
            self.shard_count = new_count
            for handle in retired:
                handle.stop(drain=drain, timeout=timeout)
            return retired

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Dispatch with the transient-retry taxonomy
    # ------------------------------------------------------------------
    def call_with_retry(
        self,
        shard_index: int,
        op: str,
        timeout: Optional[float] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Call a shard; on death, respawn its slot and retry.

        Shard death is *transient* by construction -- the successor
        replays the journal, so a resent sub-batch completes losslessly
        (journaled completions replay byte-identically, the rest simply
        recompute).  :class:`ShardOpError` (worker alive, op rejected)
        is permanent for this call and is never retried.
        """

        try:
            handle = self.handles[shard_index]
        except IndexError:
            raise ShardConnectionError(
                f"shard {shard_index} is not in the fleet "
                f"(count {self.shard_count})"
            ) from None
        if timeout is None:
            timeout = self.op_timeout
        last: Optional[ShardIPCError] = None
        for _ in range(self.dispatch_attempts):
            seen = handle.generation
            try:
                return handle.call(op, timeout=timeout, **fields)
            except ShardOpError:
                raise
            except ShardTimeoutError as exc:
                # Alive but silent: after a timeout the reply stream is
                # unusable (the answer may still arrive later), so the
                # stall escalates exactly like a death -- the respawn
                # path SIGKILLs the stuck process and boots a successor.
                handle.timeouts += 1
                last = exc
                self._log(
                    f"{handle.label} {op} stalled ({exc}); escalating: "
                    "killing the stuck worker and respawning"
                )
                handle.respawn(seen)
            except ShardIPCError as exc:
                last = exc
                self._log(
                    f"{handle.label} {op} failed ({exc}); "
                    "respawning and retrying"
                )
                handle.respawn(seen)
        raise last if last is not None else ShardConnectionError(
            f"{handle.label} unavailable"
        )

    # ------------------------------------------------------------------
    # Health monitoring
    # ------------------------------------------------------------------
    def _monitor(self) -> None:
        while not self._monitor_stop.wait(self.health_interval):
            # Snapshot: a concurrent reshard swaps the handles list; a
            # retired handle swept here is harmlessly "stopped".
            for handle in list(self.handles):
                if self._monitor_stop.is_set():
                    return
                try:
                    self._sweep_handle(handle)
                except BaseException as exc:
                    self._log(
                        f"{handle.label} monitor sweep failed: {exc}; "
                        "will retry on next sweep"
                    )

    def _sweep_handle(self, handle: ShardHandle) -> None:
        """One monitor pass over one slot: heal, boot deferred, recover."""
        state = handle.state
        if state == "ready":
            process = handle.process
            dead = process is not None and not process.is_alive()
            if not dead:
                verdict = handle.try_ping(timeout=10.0)
                dead = verdict is False
            if dead:
                handle.respawn(handle.generation)
        elif state == "respawning":
            handle.try_deferred_start()
        elif state == "failed":
            handle.attempt_recovery()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        handles = list(self.handles)
        states = [handle.snapshot() for handle in handles]
        return {
            "count": len(handles),
            "ready": sum(1 for s in states if s["state"] == "ready"),
            "failed": sum(1 for s in states if s["state"] == "failed"),
            "respawns": sum(s["respawns"] for s in states),
            "contained": sum(s["contained"] for s in states),
            "timeouts": sum(s["timeouts"] for s in states),
            "shards": states,
        }

    @property
    def pids(self) -> List[Optional[int]]:
        return [handle.pid for handle in list(self.handles)]

    @property
    def all_ready(self) -> bool:
        return all(
            handle.state == "ready" for handle in list(self.handles)
        )


def wait_for_pid_change(
    supervisor: ShardSupervisor,
    shard_index: int,
    old_pid: Optional[int],
    timeout: float = 30.0,
) -> Optional[int]:
    """Block until a shard's slot is serving under a new pid (tests/CI)."""
    deadline = time.monotonic() + timeout
    handle = supervisor.handles[shard_index]
    while time.monotonic() < deadline:
        pid = handle.pid
        if pid is not None and pid != old_pid and handle.state == "ready":
            return pid
        time.sleep(0.05)
    return None


# Re-export for os.kill-based tests that only import this module.
SIGKILL = getattr(os, "SIGKILL", 9)
