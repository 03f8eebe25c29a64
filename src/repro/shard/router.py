"""The shard router: the sharded backend of the HTTP front door.

:class:`ShardedApp` is a :class:`~repro.server.app.FrontDoor`, like the
single-process :class:`~repro.server.app.ServerApp`: the routes, the
drain, the analyze preamble and the response rendering are the same
code, so both tiers accept the same bodies and answer with the same
bytes.  What it adds is the backend -- dispatch to N worker processes,
each running a private ``ServerApp`` -- plus ``/admin/reshard``.

Request path:

1.  ``POST /v1/analyze`` bodies are decoded and admitted by the front
    door, exactly as in the single-process tier.
2.  Every payload is routed by rendezvous hashing of its canonical
    content key (:func:`~repro.service.requests.request_key`); payloads
    that do not even parse are routed by a hash of their raw text --
    their error records are deterministic, so any stable home works.
3.  Per-shard sub-batches are dispatched concurrently, each remembering
    the original global index of every payload.
4.  Each shard's deterministic result records come back, their
    ``index`` fields are rewritten to the global positions, and the
    stream is re-serialized with sorted keys + compact separators --
    **byte-identical** to ``repro batch`` on the same input, for any
    shard count.

Failure path: a dead shard surfaces as a connection error inside step 3;
the supervisor respawns the slot (journal replayed by the successor) and
the whole sub-batch is re-sent.  Replayed completions come back
byte-identical from the journal and the rest recompute, so a SIGKILL
mid-batch costs latency, never data.  When a slot is *quarantined*
(crash-loop containment marked it ``failed``) or stays unavailable
through the retry budget, its slice is **rerouted** to the next-highest
rendezvous-scored survivor (:func:`~repro.shard.hashing
.rendezvous_fallback`) -- results are deterministic on any shard, so
rerouting moves latency and cache locality, never bytes.

Aggregation: ``/stats`` and ``/metrics`` merge every live shard's
rollups -- exact counters add, latency reservoirs merge with the
deterministic decimation of
:meth:`~repro.service.metrics.LatencyReservoir.merge` (in shard-id
order, so aggregates are reproducible) -- and ``/readyz`` degrades to
``"degraded"`` while any slot is mid-respawn.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..server.admission import (
    AdmissionError,
    ServerDrainingError,
    jittered_retry_after,
)
from ..server.app import (
    DRAIN_RETRY_AFTER,
    FrontDoor,
    Payload,
    ReproServer,
    ServerConfig,
)
from ..server.http import HttpResponse
from ..server.protocol import protocol_info
from ..service.journal import read_journal_completions, record_crc
from ..service.metrics import LatencyReservoir, Stopwatch
from ..service.requests import RequestError, parse_request, request_key
from .hashing import (
    rendezvous_fallback,
    rendezvous_ranking,
    rendezvous_shard,
    shard_label,
)
from .ipc import ShardConnectionError, ShardIPCError
from .supervisor import (
    RespawnPolicy,
    ShardBootError,
    ShardOpError,
    ShardSupervisor,
)

#: Retry-After handed out when a shard stays unavailable through retries.
SHARD_RETRY_AFTER = 2.0

#: Retry-After base for requests parked behind (or refused by) a live
#: reshard handoff; jittered per client like every other hint.
RESHARD_RETRY_AFTER = 1.0


class ReshardInProgressError(AdmissionError):
    """A reshard is already running; resizes are strictly serial (409)."""

    status = 409
    error_type = "ReshardInProgressError"


class HandoffPendingError(AdmissionError):
    """A request could not be parked behind a handoff window (503).

    Raised when the bounded pending queue would overflow, or when a
    parked request outwaits ``reshard_max_wait`` -- either way the
    client gets a deterministic jittered Retry-After, never a 500 and
    never an unbounded queue.
    """

    status = 503
    error_type = "HandoffPendingError"


def routing_key(payload: Payload) -> str:
    """The stable routing identity of one payload.

    Valid requests route by their canonical content key, so a shard's
    private cache and journal keep earning across calls and respawns.
    Invalid payloads (parse failures) route by a hash of their raw text:
    their error records are computed deterministically on any shard, so
    all that matters is that the same garbage always lands in the same
    place.
    """

    if isinstance(payload, Mapping):
        try:
            return request_key(parse_request(dict(payload)))
        except (RequestError, TypeError, ValueError):
            canonical = json.dumps(
                payload, sort_keys=True, separators=(",", ":"), default=str
            )
    else:
        canonical = str(payload)
    return hashlib.sha256(canonical.encode("utf-8", "replace")).hexdigest()


def shard_server_config(base: ServerConfig, shard_index: int) -> ServerConfig:
    """The per-shard worker config derived from the router's config.

    Each shard gets a private journal and result-cache file
    (``<base>.shard-<i>``); the admission knobs stay on the router
    (workers are driven serially over the pipe, so worker-side admission
    would never trigger).
    """

    label = shard_label(shard_index)
    return replace(
        base,
        journal_path=(
            f"{base.journal_path}.{label}" if base.journal_path else None
        ),
        cache_file=f"{base.cache_file}.{label}" if base.cache_file else None,
        verbose=False,
    )


def _merge_counter_dicts(
    into: Dict[str, Any], extra: Mapping[str, Any]
) -> None:
    """Sum numeric values key-wise (non-numeric values are kept as-is)."""
    for name, value in extra.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        base = into.get(name, 0)
        if isinstance(base, bool) or not isinstance(base, (int, float)):
            continue
        into[name] = base + value


class _ReshardState:
    """In-flight reshard bookkeeping shared by every dispatcher.

    While a reshard is active the router keeps serving under the *old*
    topology; only payloads whose key changes owners are parked (in a
    bounded pending queue) until the handoff commits.  ``done`` flips
    exactly once -- at commit or rollback -- releasing every parked
    dispatcher to re-route under whatever topology won.
    """

    def __init__(
        self,
        old_count: int,
        new_count: int,
        pending_limit: int,
        max_wait: float,
    ):
        self.old_count = old_count
        self.new_count = new_count
        self.pending_limit = pending_limit
        self.max_wait = max_wait
        self.done = threading.Event()
        #: Slots that exist now but not under the target topology; they
        #: are blocked from *all* routing (including fallback) the
        #: moment the reshard starts, so nothing new lands in a journal
        #: that is about to be handed off and unlinked.
        self.retiring = frozenset(range(new_count, old_count))
        self._lock = threading.Lock()
        self.parked = 0
        self.parked_peak = 0

    def moving(self, key: str) -> bool:
        """Whether ``key`` changes owners between the two topologies."""
        return rendezvous_shard(key, self.old_count) != rendezvous_shard(
            key, self.new_count
        )

    def park(self, count: int) -> bool:
        """Reserve queue room for ``count`` payloads; False = overflow."""
        with self._lock:
            if self.parked + count > self.pending_limit:
                return False
            self.parked += count
            self.parked_peak = max(self.parked_peak, self.parked)
            return True

    def unpark(self, count: int) -> None:
        with self._lock:
            self.parked -= count


class HotKeyTracker:
    """Decaying per-key request rates driving read-any replication.

    ``observe`` bumps an exponentially decaying counter (half-life
    ``halflife`` seconds) for a key; a key is *hot* while its decayed
    rate is at or above ``threshold``.  Hot keys fan out round-robin
    across their top-R rendezvous slots (read-any: results are
    deterministic, so any replica's answer is the owner's answer,
    byte for byte), while journaling/write discipline stays with
    whichever slot serves the request -- cold keys keep strict
    single-owner routing.  The map is LRU-bounded to ``max_keys`` so an
    adversarial key stream cannot grow router memory without bound.
    """

    def __init__(
        self,
        threshold: float,
        replicas: int = 2,
        halflife: float = 10.0,
        max_keys: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        if halflife <= 0:
            raise ValueError("halflife must be positive")
        if max_keys < 1:
            raise ValueError("max_keys must be at least 1")
        self.threshold = float(threshold)
        self.replicas = int(replicas)
        self.halflife = float(halflife)
        self.max_keys = int(max_keys)
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> [decayed_rate, last_seen, rotation_counter]
        self._entries: "OrderedDict[str, List[Any]]" = OrderedDict()

    def _decayed(self, rate: float, last: float, now: float) -> float:
        return rate * (0.5 ** ((now - last) / self.halflife))

    def observe(self, key: str) -> float:
        """Record one request for ``key``; returns its decayed rate."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = [0.0, now, 0]
                self._entries[key] = entry
                if len(self._entries) > self.max_keys:
                    self._entries.popitem(last=False)
            entry[0] = self._decayed(entry[0], entry[1], now) + 1.0
            entry[1] = now
            self._entries.move_to_end(key)
            return entry[0]

    def is_hot(self, key: str) -> bool:
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            return self._decayed(entry[0], entry[1], now) >= self.threshold

    def next_turn(self, key: str) -> int:
        """The key's read-any rotation counter (round-robin replicas)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return 0
            entry[2] += 1
            return entry[2]

    def hot_count(self) -> int:
        now = self._clock()
        with self._lock:
            return sum(
                1
                for rate, last, _ in self._entries.values()
                if self._decayed(rate, last, now) >= self.threshold
            )

    def snapshot(self) -> Dict[str, Any]:
        return {
            "tracked": len(self._entries),
            "hot": self.hot_count(),
            "threshold": self.threshold,
            "replicas": self.replicas,
            "halflife_seconds": self.halflife,
        }


class ShardedApp(FrontDoor):
    """The front door over rendezvous dispatch + cross-shard aggregation."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        shards: int = 2,
        start_method: Optional[str] = None,
        health_interval: float = 0.5,
        dispatch_attempts: int = 3,
        boot_timeout: float = 60.0,
        op_timeout: Optional[float] = 300.0,
        respawn_policy: Optional[RespawnPolicy] = None,
        hot_key_threshold: float = 32.0,
        hot_key_replicas: int = 2,
        hot_key_halflife: float = 10.0,
        reshard_pending_limit: int = 256,
        reshard_max_wait: float = 15.0,
    ):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if reshard_pending_limit < 0:
            raise ValueError("reshard_pending_limit must be non-negative")
        if reshard_max_wait <= 0:
            raise ValueError("reshard_max_wait must be positive")
        super().__init__(config)
        self.post_routes["/admin/reshard"] = self._admin_reshard
        self.shards = shards
        self.supervisor = ShardSupervisor(
            shards,
            lambda index: shard_server_config(self.config, index),
            start_method=start_method,
            health_interval=health_interval,
            boot_timeout=boot_timeout,
            dispatch_attempts=dispatch_attempts,
            op_timeout=op_timeout,
            respawn_policy=respawn_policy,
            log=self.log,
        )
        self._started = False
        #: Hot-key read-any replication (``hot_key_threshold <= 0``
        #: disables tracking entirely -- strict single-owner routing).
        self.hot_keys: Optional[HotKeyTracker] = (
            HotKeyTracker(
                hot_key_threshold, hot_key_replicas, hot_key_halflife
            )
            if hot_key_threshold > 0
            else None
        )
        self.reshard_pending_limit = reshard_pending_limit
        self.reshard_max_wait = reshard_max_wait
        #: Serializes reshards; taken non-blocking so a concurrent
        #: resize answers 409 instead of queueing behind the first.
        self._reshard_lock = threading.Lock()
        self._resharding: Optional[_ReshardState] = None
        self._last_reshard: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedApp":
        """Boot every shard worker (loud failure if any cannot boot)."""
        if not self._started:
            self.supervisor.start()
            self._started = True
        return self

    def close(self) -> None:
        """Drain-stop every shard (journals flushed, caches saved)."""
        self.supervisor.stop(drain=True)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def health_dict(self) -> Dict[str, Any]:
        payload = super().health_dict()
        payload["shards"] = self.supervisor.snapshot()
        return payload

    def ready_dict(self) -> Dict[str, Any]:
        """Per-shard readiness: ready / resharding / degraded.

        The tier keeps serving while a shard respawns (its keyspace
        slice just rides the retry path) or is quarantined (its keys
        reroute to survivors), so such a tier is ``degraded``, not down
        -- load balancers can keep it in rotation and dashboards still
        see the event.  ``degraded_slots`` names each unhealthy slot
        (index, state, generation, respawn count) so an operator can
        tell "slot 2 is crash-looping" from a bare "degraded" string.
        A live reshard is its own distinct state: ``"resharding"`` with
        the source/target topology and the parked-key count, because
        slots booting/retiring mid-handoff are expected churn, not a
        health event.
        """

        shards = self.supervisor.snapshot()
        degraded_slots = [
            {
                "shard": detail["shard"],
                "state": detail["state"],
                "generation": detail["generation"],
                "respawns": detail["respawns"],
            }
            for detail in shards["shards"]
            if detail["state"] != "ready"
        ]
        state = self._resharding
        resharding: Dict[str, Any] = {
            "active": state is not None,
            "pending": state.parked if state is not None else 0,
        }
        if state is not None:
            resharding["from"] = state.old_count
            resharding["to"] = state.new_count
            status = "resharding"
        else:
            status = "degraded" if degraded_slots else "ok"
        return {
            "ready": True,
            "status": status,
            "degraded_slots": degraded_slots,
            "resharding": resharding,
            "shards": shards,
        }

    def stats_dict(self) -> Dict[str, Any]:
        """Cross-shard /stats: counters summed, reservoirs merged."""
        serving: Dict[str, Any] = dict(self.serving.as_dict())
        cache: Dict[str, Any] = {}
        intra_cache: Dict[str, Any] = {}
        engine_counters: Dict[str, Any] = {}
        merged_latency = LatencyReservoir()
        shard_details: List[Dict[str, Any]] = []
        journals_degraded = 0
        journal_rollup: Dict[str, Union[int, float]] = {
            "journal_records": 0,
            "journal_bytes": 0,
            "journal_compactions": 0,
            "journal_corrupt_quarantined": 0,
            "journal_replay_seconds": 0.0,
        }
        # Shard-id order: LatencyReservoir.merge is order-sensitive by
        # design, and a fixed order keeps aggregate percentiles
        # reproducible across scrapes of identical state.  Snapshot the
        # list: a concurrent reshard swaps it mid-scrape.
        for handle in list(self.supervisor.handles):
            detail = handle.snapshot()
            try:
                reply = self.supervisor.call_with_retry(
                    handle.index, "stats", timeout=30.0
                )
            except (ShardIPCError, ShardBootError) as exc:
                detail["error"] = str(exc)
                shard_details.append(detail)
                continue
            stats = reply.get("stats") or {}
            detail["stats"] = stats
            shard_details.append(detail)
            jstats = stats.get("journal") or {}
            if jstats.get("degraded"):
                journals_degraded += 1
            journal_rollup["journal_records"] += int(
                jstats.get("completed") or 0
            )
            journal_rollup["journal_bytes"] += int(
                jstats.get("file_bytes") or 0
            )
            journal_rollup["journal_compactions"] += int(
                jstats.get("compactions") or 0
            )
            journal_rollup["journal_corrupt_quarantined"] += int(
                jstats.get("corrupt_quarantined") or 0
            )
            journal_rollup["journal_replay_seconds"] += float(
                jstats.get("replay_seconds") or 0.0
            )
            _merge_counter_dicts(serving, stats.get("serving") or {})
            _merge_counter_dicts(cache, stats.get("cache") or {})
            _merge_counter_dicts(intra_cache, stats.get("intra_cache") or {})
            _merge_counter_dicts(
                engine_counters, stats.get("engine_counters") or {}
            )
            state = reply.get("latency_state")
            if state:
                merged_latency.merge(state)
        for scope in (cache, intra_cache):
            hits = scope.get("hits", 0)
            misses = scope.get("misses", 0)
            scope["hit_rate"] = (
                round(hits / (hits + misses), 6) if hits + misses else 0.0
            )
        shards = self.supervisor.snapshot()
        shards["shards"] = shard_details
        shards["journals_degraded"] = journals_degraded
        journal_rollup["journal_replay_seconds"] = round(
            float(journal_rollup["journal_replay_seconds"]), 6
        )
        shards.update(journal_rollup)
        state = self._resharding
        resharding = {
            "active": state is not None,
            "pending": state.parked if state is not None else 0,
            "reshards_completed": int(serving.get("reshards_completed", 0)),
            "keys_moved": int(serving.get("keys_moved", 0)),
            "last": self._last_reshard,
        }
        if self.hot_keys is not None:
            hot_keys = self.hot_keys.snapshot()
        else:
            hot_keys = {
                "tracked": 0,
                "hot": 0,
                "threshold": 0.0,
                "replicas": 0,
                "halflife_seconds": 0.0,
            }
        hot_keys["replica_reads"] = int(serving.get("replica_reads", 0))
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
                "default_deadline": self.config.default_deadline,
                "shards": self.shards,
            },
            "serving": dict(sorted(serving.items())),
            "admission": self.admission.snapshot(),
            "latency": merged_latency.summary(),
            "cache": cache,
            "intra_cache": intra_cache,
            "engine_counters": dict(sorted(engine_counters.items())),
            "certification": {
                "certified": serving.get("certified", 0),
                "discrepancies": serving.get("discrepancies", 0),
            },
            "journal": None,  # per-shard journals live under "shards"
            "shards": shards,
            "resharding": resharding,
            "hot_keys": hot_keys,
        }

    # ------------------------------------------------------------------
    # The analyze backend
    # ------------------------------------------------------------------
    def _dispatch_error(
        self, exc: Exception, client: str
    ) -> Optional[HttpResponse]:
        if isinstance(exc, ShardOpError):
            self.serving.increment("shard_op_errors")
            return HttpResponse.error(500, "ShardOpError", str(exc))
        if isinstance(exc, (ShardIPCError, ShardBootError)):
            # Retries, a respawn attempt, and rerouting are already
            # behind us; whatever is wrong needs longer than this
            # request has.
            self.serving.increment("shard_unavailable")
            return HttpResponse.error(
                503,
                "ShardUnavailableError",
                f"a shard stayed unavailable through respawn: {exc}",
                retry_after=jittered_retry_after(
                    SHARD_RETRY_AFTER,
                    client,
                    self.config.retry_jitter_seed,
                ),
            )
        return None

    def _route(
        self,
        key: str,
        excluded: Iterable[int] = (),
        state: Optional[_ReshardState] = None,
    ) -> int:
        """The shard that should serve ``key`` right now.

        Quarantined (``failed``) slots are always excluded; callers add
        shards that just failed mid-dispatch, and an active reshard
        (``state``) blocks its retiring slots so nothing new lands in a
        journal about to be handed off.  Hot keys take the read-any
        replica path first.  Raises :class:`ShardConnectionError` when
        no serviceable shard remains.
        """

        blocked = set(excluded)
        if state is not None:
            blocked.update(state.retiring)
        handles = list(self.supervisor.handles)
        for index, handle in enumerate(handles[: self.shards]):
            if handle.state == "failed":
                blocked.add(index)
        if self.hot_keys is not None and self.hot_keys.is_hot(key):
            choice = self._route_replica(key, blocked, handles)
            if choice is not None:
                return choice
        index = rendezvous_fallback(key, self.shards, blocked)
        if index is None:
            raise ShardConnectionError(
                f"no serviceable shard: all {self.shards} slots are "
                "failed or unreachable"
            )
        return index

    def _route_replica(
        self,
        key: str,
        blocked: Iterable[int],
        handles: List[Any],
    ) -> Optional[int]:
        """Read-any routing for a hot key across its top-R slots.

        Only ``ready`` replicas participate -- the whole point is that a
        replica answers while the owner is mid-respawn, without riding
        the retry path.  Serving off the non-owner counts as a
        ``replica_reads``; results are deterministic, so the bytes are
        the owner's bytes.  Returns ``None`` when no replica is
        serviceable (normal fallback routing decides then).
        """

        assert self.hot_keys is not None
        blocked = set(blocked)
        ranking = rendezvous_ranking(key, self.shards)[
            : self.hot_keys.replicas
        ]
        live = [
            index
            for index in ranking
            if index not in blocked
            and index < len(handles)
            and handles[index].state == "ready"
        ]
        if not live:
            return None
        choice = live[self.hot_keys.next_turn(key) % len(live)]
        if choice != ranking[0]:
            self.serving.increment("replica_reads")
        return choice

    def _dispatch(
        self,
        payloads: List[Payload],
        deadline: Optional[float],
    ) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
        """Route, fan out, reroute, reassemble -- the heart of the tier.

        Returns the result records *in global input order* plus the
        summed report counters.  A slice whose shard stays unavailable
        through respawn + retry is rerouted to the next rendezvous
        choice; only when every slot is exhausted does the shard failure
        taxonomy propagate to the caller.  During a live reshard,
        payloads whose key is mid-handoff are parked (bounded, with a
        deterministic Retry-After on overflow/timeout) and re-routed
        under the winning topology once the handoff commits -- the
        response is byte-identical either way.
        """

        keys = [routing_key(payload) for payload in payloads]
        if self.hot_keys is not None:
            for key in keys:
                self.hot_keys.observe(key)
        records: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
        counts = {
            "requests": 0,
            "errors": 0,
            "cached": 0,
            "computed": 0,
            "replayed": 0,
            "certified": 0,
            "discrepancies": 0,
        }
        counts_lock = threading.Lock()

        def run_shard(shard: int, items: List[Tuple[int, Payload]]) -> None:
            reply = self.supervisor.call_with_retry(
                shard,
                "analyze",
                payloads=[payload for _, payload in items],
                deadline=deadline,
            )
            shard_records = reply.get("records")
            if (
                not isinstance(shard_records, list)
                or len(shard_records) != len(items)
            ):
                raise ShardOpError(
                    "analyze",
                    "ShardProtocolError",
                    f"{shard_label(shard)} returned "
                    f"{len(shard_records or [])} records "
                    f"for {len(items)} payloads",
                )
            for (position, _), record in zip(items, shard_records):
                record["index"] = position
                records[position] = record
            with counts_lock:
                for name in counts:
                    counts[name] += int(reply.get(name) or 0)

        pending: List[Tuple[int, Payload]] = list(enumerate(payloads))
        excluded: set = set()
        last_error: Optional[Exception] = None
        while pending:
            if len(excluded) >= self.shards:
                raise last_error or ShardConnectionError(
                    "no serviceable shard remains"
                )
            # One topology decision per round: an already-finished
            # reshard reads as None, an active one parks moving keys.
            state = self._resharding
            if state is not None and state.done.is_set():
                state = None
            groups: Dict[int, List[Tuple[int, Payload]]] = {}
            parked: List[Tuple[int, Payload]] = []
            for position, payload in pending:
                key = keys[position]
                if state is not None and state.moving(key):
                    parked.append((position, payload))
                    continue
                shard = self._route(key, excluded, state)
                groups.setdefault(shard, []).append((position, payload))
            pending = []

            def attempt(shard: int, items: List[Tuple[int, Payload]]) -> None:
                nonlocal last_error
                try:
                    run_shard(shard, items)
                except (ShardIPCError, ShardBootError) as exc:
                    # This shard is out for the round: exclude it and
                    # requeue its slice for the next-ranked survivor.
                    # ShardOpError deliberately propagates -- the worker
                    # answered; re-asking elsewhere would not help.
                    with counts_lock:
                        last_error = exc
                        excluded.add(shard)
                        pending.extend(items)

            # Every payload may be parked behind the handoff window, in
            # which case there is nothing to dispatch this round.
            ordered = sorted(groups.items())
            if len(ordered) == 1:
                attempt(*ordered[0])
            elif ordered:
                with ThreadPoolExecutor(
                    max_workers=len(ordered),
                    thread_name_prefix="repro-shard-dispatch",
                ) as pool:
                    futures = [
                        pool.submit(attempt, shard, items)
                        for shard, items in ordered
                    ]
                    # Surface the first ShardOpError; remaining futures
                    # finish (their shards are independent) before the
                    # pool exits.
                    for future in futures:
                        future.result()
            if pending:
                self.serving.increment("shard_reroutes", len(pending))
                self.log(
                    f"rerouting {len(pending)} payload(s) away from "
                    f"unavailable shard(s) {sorted(excluded)}"
                )
            if parked:
                self._await_handoff(state, len(parked))
                pending.extend(parked)
        assert all(record is not None for record in records)
        return records, counts  # type: ignore[return-value]

    def _await_handoff(self, state: _ReshardState, count: int) -> None:
        """Park ``count`` payloads behind an active handoff window.

        Bounded and never a 500: an overflowing queue or an outwaited
        handoff raises :class:`HandoffPendingError`, which renders as a
        503 with the per-client jittered Retry-After.  On a normal
        wakeup the caller simply re-routes the payloads under the
        committed topology.
        """

        self.serving.increment("handoff_parked", count)
        if not state.park(count):
            self.serving.increment("handoff_overflows")
            raise HandoffPendingError(
                f"{count} request(s) would overflow the reshard pending "
                f"queue (limit {state.pending_limit}); retry after the "
                "handoff completes",
                retry_after=RESHARD_RETRY_AFTER,
            )
        try:
            if not state.done.wait(state.max_wait):
                self.serving.increment("handoff_wait_timeouts")
                raise HandoffPendingError(
                    f"reshard handoff still in progress after "
                    f"{state.max_wait:.1f}s parked; retry shortly",
                    retry_after=RESHARD_RETRY_AFTER,
                )
        finally:
            state.unpark(count)

    @property
    def handoff_pending(self) -> int:
        """Requests currently parked behind a reshard handoff (gauge)."""
        state = self._resharding
        return state.parked if state is not None else 0

    def _records_response(
        self,
        records: List[Dict[str, Any]],
        counts: Dict[str, int],
        single: bool,
    ) -> HttpResponse:
        self.serving.increment("requests_routed", counts["requests"])
        response = super()._records_response(records, counts, single)
        response.headers["X-Repro-Shards"] = str(self.shards)
        return response

    # ------------------------------------------------------------------
    # Live resharding
    # ------------------------------------------------------------------
    def _admin_reshard(
        self,
        query: Dict[str, List[str]],
        headers: Mapping[str, str],
        body: bytes,
        client: str,
    ) -> HttpResponse:
        """``POST /admin/reshard {"shards": N}`` -- live fleet resize."""
        self.serving.increment("reshard_calls")
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
            target = payload["shards"]
            if isinstance(target, bool) or not isinstance(target, int):
                raise TypeError("shards must be an integer")
        except (KeyError, TypeError, ValueError, UnicodeDecodeError) as exc:
            self.serving.increment("bad_requests")
            return HttpResponse.error(
                400,
                "BadRequest",
                f'body must be JSON {{"shards": N}} with integer N: {exc}',
            )
        if target < 1:
            self.serving.increment("bad_requests")
            return HttpResponse.error(
                400, "BadRequest", "shards must be at least 1"
            )
        try:
            summary = self.reshard(target)
        except (ReshardInProgressError, ServerDrainingError) as exc:
            return self._admission_response(exc, client)
        except ShardBootError as exc:
            self.serving.increment("reshard_failures")
            return HttpResponse.error(
                503,
                "ShardBootError",
                f"reshard rolled back: {exc}",
                retry_after=jittered_retry_after(
                    SHARD_RETRY_AFTER, client, self.config.retry_jitter_seed
                ),
            )
        return HttpResponse.json(summary)

    def _admin_compact(
        self,
        query: Dict[str, List[str]],
        headers: Mapping[str, str],
        body: bytes,
        client: str,
    ) -> HttpResponse:
        """``POST /admin/compact`` -- compact every shard's journal."""
        self.serving.increment("compact_calls")
        if not self.config.journal_path:
            return HttpResponse.error(
                409,
                "NoJournal",
                "this tier runs without journals; nothing to compact",
            )
        summary = self.compact_all()
        return HttpResponse.json(summary)

    def compact_all(self) -> Dict[str, Any]:
        """Fan the journal ``compact`` op out to every live shard.

        Per-shard, not transactional: each worker rewrites its own
        journal independently (crash-safe on its own), so one shard
        failing -- or dying mid-compaction under an armed chaos kill and
        coming back via ``call_with_retry``'s respawn path -- never
        blocks the others.  The reply carries a per-shard breakdown so
        operators can see exactly which slots reclaimed what.
        """

        shard_results: List[Dict[str, Any]] = []
        compacted = 0
        errors = 0
        reclaimed = 0
        for handle in list(self.supervisor.handles)[: self.shards]:
            entry: Dict[str, Any] = {"shard": handle.index}
            try:
                reply = self.supervisor.call_with_retry(
                    handle.index, "compact", timeout=120.0
                )
            except (ShardIPCError, ShardBootError, ShardOpError) as exc:
                entry["error"] = str(exc)
                errors += 1
            else:
                entry["compacted"] = bool(reply.get("compacted"))
                if reply.get("compacted"):
                    compacted += 1
                    entry["compact"] = reply.get("compact")
                    reclaimed += int(
                        (reply.get("compact") or {}).get("reclaimed_bytes")
                        or 0
                    )
                else:
                    entry["reason"] = reply.get("reason")
            shard_results.append(entry)
        self.serving.increment("compactions", compacted)
        return {
            "ok": errors == 0,
            "compacted": compacted,
            "errors": errors,
            "reclaimed_bytes": reclaimed,
            "shards": shard_results,
        }

    def reshard(
        self,
        new_count: int,
        phase_hook: Optional[Callable[[str, int], None]] = None,
    ) -> Dict[str, Any]:
        """Live-resize the fleet to ``new_count`` shards, two-phase.

        Phase one (**export**): every old slot surrenders the journaled
        completions it will not own under the target topology, grouped
        by their new owner.  A SIGKILLed exporter is respawned (its
        successor replays the journal) and re-asked via
        ``call_with_retry``; a slot that stays unreachable even then
        (e.g. quarantined mid-crash-loop) has its journal rescued
        straight off disk -- the kernel freed the dead worker's flock.
        Phase two (**import**): each receiving slot fsyncs the
        handed-off records into its own journal *before* the topology
        commits, so a moved key's next request replays byte-identically
        from its new owner.

        Throughout the window, dispatchers keep serving non-moving keys
        under the old topology (with retiring slots blocked from all
        routing) and park moving keys in the bounded pending queue --
        the tier never answers 500 for a parked key, only a jittered
        503 past the queue's bounds.  Growth boots the new slots before
        any handoff and rolls back on boot failure; shrink retires
        slots only after their records are safely imported, then
        unlinks their journal/cache files.  ``phase_hook(phase, shard)``
        is a test seam invoked at each step ("grow", "export",
        "import", "retire") -- chaos tests use it to kill the old owner
        mid-handoff or arm a disk fault on the successor mid-replay.
        """

        if new_count < 1:
            raise ValueError("shards must be at least 1")
        if not self._reshard_lock.acquire(blocking=False):
            raise ReshardInProgressError(
                "a reshard is already in progress; resizes are serial",
                retry_after=RESHARD_RETRY_AFTER,
            )
        try:
            if self.draining:
                raise ServerDrainingError(
                    "server is draining for shutdown",
                    retry_after=DRAIN_RETRY_AFTER,
                )
            old_count = self.shards
            if new_count == old_count:
                return {
                    "ok": True,
                    "from": old_count,
                    "to": new_count,
                    "noop": True,
                    "keys_moved": 0,
                    "exported": 0,
                    "imported": 0,
                    "duplicates": 0,
                    "rescued_slots": [],
                    "degraded_importers": [],
                    "parked_peak": 0,
                    "elapsed_seconds": 0.0,
                }
            self.log(f"resharding {old_count} -> {new_count} shard(s)")
            watch = Stopwatch()
            state = _ReshardState(
                old_count,
                new_count,
                self.reshard_pending_limit,
                self.reshard_max_wait,
            )
            self._resharding = state
            grew = False
            try:
                if new_count > old_count:
                    if phase_hook:
                        phase_hook("grow", new_count)
                    self.supervisor.grow_to(new_count)
                    grew = True
                groups: Dict[int, List[Dict[str, Any]]] = {}
                moved: set = set()
                exported = 0
                rescued_slots: List[Dict[str, Any]] = []
                # Every old slot exports: retiring slots surrender their
                # whole journal, survivors surrender strays they served
                # via fallback plus (on growth) keys claimed by new
                # slots.
                for index in range(old_count):
                    if phase_hook:
                        phase_hook("export", index)
                    try:
                        reply = self.supervisor.call_with_retry(
                            index,
                            "handoff_export",
                            to_shards=new_count,
                            timeout=120.0,
                        )
                        entries = [
                            entry
                            for per_owner in (reply.get("groups") or {}).values()
                            for entry in per_owner
                        ]
                    except ShardOpError:
                        raise
                    except (ShardIPCError, ShardBootError) as exc:
                        entries = self._rescue_slot_journal(
                            index, new_count, exc, rescued_slots
                        )
                    for entry in entries:
                        key = entry.get("key")
                        if not isinstance(key, str):
                            continue
                        groups.setdefault(
                            rendezvous_shard(key, new_count), []
                        ).append(entry)
                        if state.moving(key):
                            moved.add(key)
                        exported += 1
                imported = 0
                duplicates = 0
                degraded_importers: List[int] = []
                for owner in sorted(groups):
                    if phase_hook:
                        phase_hook("import", owner)
                    reply = self._import_with_recovery(
                        owner, groups[owner]
                    )
                    imported += int(reply.get("imported") or 0)
                    duplicates += int(reply.get("duplicates") or 0)
                    if reply.get("degraded"):
                        degraded_importers.append(owner)
                if new_count < old_count:
                    if phase_hook:
                        phase_hook("retire", new_count)
                    retired = self.supervisor.retire_to(
                        new_count, drain=False
                    )
                    for handle in retired:
                        self._unlink_slot_files(handle.index)
                self.shards = new_count
            except BaseException:
                if grew and self.supervisor.shard_count > old_count:
                    # Roll the fleet back to exactly what it was; the
                    # imports already fsync'd are harmless duplicates on
                    # the next attempt.
                    try:
                        for handle in self.supervisor.retire_to(
                            old_count, drain=False
                        ):
                            self._unlink_slot_files(handle.index)
                    except Exception as exc:
                        self.log(f"reshard rollback cleanup failed: {exc}")
                self.serving.increment("reshard_failures")
                raise
            finally:
                self._resharding = None
                state.done.set()
            summary = {
                "ok": True,
                "from": old_count,
                "to": new_count,
                "noop": False,
                "keys_moved": len(moved),
                "exported": exported,
                "imported": imported,
                "duplicates": duplicates,
                "rescued_slots": rescued_slots,
                "degraded_importers": degraded_importers,
                "parked_peak": state.parked_peak,
                "elapsed_seconds": round(watch.elapsed(), 3),
            }
            self.serving.increment("reshards_completed")
            self.serving.increment("keys_moved", len(moved))
            self._last_reshard = summary
            self.log(
                f"reshard {old_count} -> {new_count} complete: "
                f"{len(moved)} key(s) moved, {exported} exported, "
                f"{imported} imported, {duplicates} duplicate(s), "
                f"{summary['elapsed_seconds']}s"
            )
            return summary
        finally:
            self._reshard_lock.release()

    def _import_with_recovery(
        self, owner: int, entries: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Phase-two import, riding out a quarantined target slot.

        A SIGKILLed importer is already handled inside
        ``call_with_retry`` (respawn + retry); a *quarantined* one
        (crash-loop containment marked it ``failed``) raises fast, but
        the monitor re-admits it after ``failed_retry_interval`` -- so
        the handoff waits that window out and re-asks, rather than
        rolling back a whole reshard for a slot that is seconds from
        recovery.  Moved keys stay safely parked (bounded) meanwhile.
        """

        policy = self.supervisor.respawn_policy
        deadline = time.monotonic() + max(
            30.0, policy.failed_retry_interval * 3
        )
        while True:
            try:
                return self.supervisor.call_with_retry(
                    owner,
                    "handoff_import",
                    entries=entries,
                    timeout=120.0,
                )
            except ShardOpError:
                raise
            except (ShardIPCError, ShardBootError) as exc:
                if time.monotonic() >= deadline:
                    raise
                self.log(
                    f"handoff import target {shard_label(owner)} "
                    f"unavailable ({exc}); waiting for its recovery"
                )
                time.sleep(0.5)

    def _rescue_slot_journal(
        self,
        index: int,
        new_count: int,
        exc: Exception,
        rescued_slots: List[Dict[str, Any]],
    ) -> List[Dict[str, Any]]:
        """Lift an unreachable exporter's journal straight off disk.

        Reached only after ``call_with_retry`` burned its respawn budget
        -- the slot has no live worker, so its flock is free.  A
        *retiring* slot is stopped outright first (it was leaving
        anyway); a surviving slot is left to the monitor's recovery
        path, and its file is read as-is.
        """

        config = shard_server_config(self.config, index)
        if not config.journal_path:
            rescued_slots.append(
                {"shard": index, "rescued": 0, "error": str(exc)}
            )
            return []
        handles = list(self.supervisor.handles)
        if index >= new_count and index < len(handles):
            handles[index].stop(drain=False)
        completions = read_journal_completions(config.journal_path)
        entries = [
            {"key": key, "record": record, "crc": record_crc(key, record)}
            for key, record in completions.items()
            if rendezvous_shard(key, new_count) != index
        ]
        self.log(
            f"{shard_label(index)} unreachable during handoff ({exc}); "
            f"rescued {len(entries)} journal record(s) off disk"
        )
        rescued_slots.append({"shard": index, "rescued": len(entries)})
        return entries

    def _unlink_slot_files(self, index: int) -> None:
        """Remove a retired slot's journal + cache files (post-import)."""
        config = shard_server_config(self.config, index)
        for path in (config.journal_path, config.cache_file):
            if path and os.path.exists(path):
                try:
                    os.unlink(path)
                except OSError as unlink_exc:
                    self.log(
                        f"could not remove retired {path!r}: {unlink_exc}"
                    )


class ShardedServer(ReproServer):
    """The sharded daemon: :class:`ReproServer` over a :class:`ShardedApp`.

    ``options`` are :class:`ShardedApp`'s keyword arguments (``shards``,
    ``start_method``, ``health_interval``, ...).
    """

    def __init__(
        self, config: Optional[ServerConfig] = None, **options: Any
    ):
        self._options = options
        super().__init__(config)

    def _make_app(self) -> ShardedApp:
        # Boot the fleet before the listener: a tier that cannot serve
        # its keyspace must fail loudly instead of accepting requests.
        return ShardedApp(self.config, **self._options).start()
