"""Sharded multi-process serving tier: scale-out + kill-one-shard resilience.

Puts N independent worker processes behind the same HTTP front door as
the single-process tier: :class:`~repro.shard.router.ShardedApp` is the
second backend of :class:`~repro.server.app.FrontDoor`, and
:class:`ShardedServer` is a :class:`~repro.server.app.ReproServer` that
builds it.  Each worker runs its own
:class:`~repro.server.app.ServerApp` and owns a rendezvous-hashed slice
of the request keyspace with its *own* LRU result cache and write-ahead
journal, so a request always
lands where its answer is already cached or journaled; the router
(:mod:`~repro.shard.router`) reassembles per-shard result streams into
output **byte-identical** to single-process ``repro batch`` for any
shard count.  The supervisor (:mod:`~repro.shard.supervisor`) health
checks workers and respawns a dead one into its slot -- the successor
re-locks and replays the victim's journal, so a SIGKILL mid-batch costs
latency, never data.  ``/stats`` and ``/metrics`` aggregate across the
fleet (counters summed, latency reservoirs merged deterministically);
``/readyz`` reports ``degraded`` (and enumerates the afflicted slots)
while a slot respawns or sits quarantined.  A crash-looping slot is
*contained* by :class:`~repro.shard.supervisor.RespawnPolicy` -- after
too many rapid deaths it is marked ``failed`` and its keys reroute to
the next-highest rendezvous-scored survivors until recovery.

Quick start::

    from repro.server import ServerConfig
    from repro.shard import ShardedServer

    server = ShardedServer(ServerConfig(port=0), shards=3).start()
    ...
    server.shutdown(drain=True)
"""

from .hashing import (
    assignment_counts,
    ownership_delta,
    rendezvous_fallback,
    rendezvous_ranking,
    rendezvous_score,
    rendezvous_shard,
    replica_slots,
    shard_label,
)
from .ipc import (
    SHARD_IPC_VERSION,
    ShardConnectionError,
    ShardIPCError,
    ShardProtocolError,
    ShardTimeoutError,
)
from .router import (
    RESHARD_RETRY_AFTER,
    SHARD_RETRY_AFTER,
    HandoffPendingError,
    HotKeyTracker,
    ReshardInProgressError,
    ShardedApp,
    ShardedServer,
    routing_key,
    shard_server_config,
)
from .supervisor import (
    RespawnPolicy,
    ShardBootError,
    ShardHandle,
    ShardOpError,
    ShardSupervisor,
    wait_for_pid_change,
)

__all__ = [
    "HandoffPendingError",
    "HotKeyTracker",
    "RESHARD_RETRY_AFTER",
    "RespawnPolicy",
    "ReshardInProgressError",
    "SHARD_IPC_VERSION",
    "SHARD_RETRY_AFTER",
    "ShardBootError",
    "ShardConnectionError",
    "ShardHandle",
    "ShardIPCError",
    "ShardOpError",
    "ShardProtocolError",
    "ShardSupervisor",
    "ShardTimeoutError",
    "ShardedApp",
    "ShardedServer",
    "assignment_counts",
    "ownership_delta",
    "rendezvous_fallback",
    "rendezvous_ranking",
    "rendezvous_score",
    "rendezvous_shard",
    "replica_slots",
    "routing_key",
    "shard_label",
    "shard_server_config",
    "wait_for_pid_change",
]
