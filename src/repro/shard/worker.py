"""The shard worker process: one private :class:`ServerApp` per shard.

A worker owns exactly one slice of the keyspace: its own LRU result
cache, its own write-ahead journal (``<base>.shard-<i>``, advisory
flock'd), and its own engine pool -- nothing is shared with sibling
shards, so a SIGKILL to one worker cannot corrupt another's state.  The
router drives the worker over a duplex pipe with the framed-JSON ops of
:mod:`repro.shard.ipc`:

``analyze``   run a payload sub-batch through the app, return the
              deterministic result records plus report counters
``stats``     the app's full ``/stats`` rollup + the latency reservoir's
              transferable state (for cross-shard merging)
``ping``      liveness probe for the supervisor's health monitor
``handoff_export``  flush the journal and return every durable
              completion that belongs to a *different* slot under a
              ``to_shards``-sized topology, grouped by its new owner
              (phase one of a live reshard)
``handoff_import``  replay handed-off completion records into this
              worker's journal before it starts seeing their traffic
              (phase two of a live reshard; idempotent on duplicates)
``compact``   rewrite this shard's journal down to its deduped durable
              completions (crash-safe: SIGKILL at any point leaves a
              fully valid journal for the successor to replay)
``drain``     flush the journal, persist the per-shard cache, ack, exit

The loop is deliberately **serial**: one request at a time, in arrival
order.  Parallelism comes from the engine pool *inside* an analyze call
(``jobs`` wide) and from running N workers side by side -- never from
interleaving ops on one pipe, which is what keeps a drain trivially safe
and the reply stream impossible to desynchronize.

Death semantics: handler errors are caught and returned as structured
``error_reply`` frames (the worker never dies on a bad request); an
``EOFError`` on the pipe means the router is gone, so the worker flushes
and exits.  Only an actual kill takes the worker down -- and the kernel
then releases its journal flock, which is exactly what lets the respawned
successor re-lock and replay it.
"""

from __future__ import annotations

import os
import signal
import sys
from typing import Any, Dict

from ..server.app import ServerApp, ServerConfig, report_counts
from ..server.protocol import protocol_info
from ..service.faults import FAULTS_GUARD_ENV
from .hashing import rendezvous_shard, shard_label
from .ipc import (
    SHARD_IPC_VERSION,
    ShardConnectionError,
    error_reply,
    recv_message,
    send_message,
)


def _log(shard_index: int, message: str) -> None:
    print(
        f"repro shard[{shard_label(shard_index)}]: {message}",
        file=sys.stderr,
        flush=True,
    )


def _analyze_reply(app: ServerApp, message: Dict[str, Any]) -> Dict[str, Any]:
    payloads = message.get("payloads")
    if not isinstance(payloads, list) or not payloads:
        raise ValueError("analyze op requires a non-empty payload list")
    deadline = message.get("deadline")
    if deadline is not None:
        deadline = float(deadline)
    report = app.run_payloads(payloads, deadline)
    return {
        "ok": True,
        "records": report.result_records(),
        **report_counts(report),
    }


def _chaos_reply(app: ServerApp, message: Dict[str, Any]) -> Dict[str, Any]:
    """Arm an in-worker fault for the chaos harness (guarded, explicit).

    Refuses outright unless ``REPRO_ENABLE_FAULT_INJECTION=1`` was in the
    worker's environment at boot -- production fleets cannot be chaos'd
    by a stray request.  Supports arming journal write faults
    (``{"journal": {"mode": "enospc"|"eio", "after": N}}``) and a
    compaction kill switch (``{"compact_kill": {"step": <step>}}``) that
    SIGKILLs this worker at the named compaction step of the *next*
    ``compact`` op -- the crash-safety invariant says the successor
    still replays a fully valid journal.
    """

    if os.environ.get(FAULTS_GUARD_ENV) != "1":
        raise PermissionError(
            f"chaos op refused: set {FAULTS_GUARD_ENV}=1 to enable "
            "fault injection"
        )
    armed: Dict[str, Any] = {}
    journal = message.get("journal")
    if journal is not None:
        if not isinstance(journal, dict):
            raise ValueError("chaos journal spec must be a mapping")
        mode = journal.get("mode")
        after = int(journal.get("after", 0))
        if app.arm_journal_fault(mode, after=after):
            armed["journal"] = {"mode": mode, "after": after}
        else:
            raise ValueError(
                "no journal configured on this shard; cannot arm a "
                "journal fault"
            )
    compact_kill = message.get("compact_kill")
    if compact_kill is not None:
        if not isinstance(compact_kill, dict):
            raise ValueError("chaos compact_kill spec must be a mapping")
        step = compact_kill.get("step")
        if app.arm_compact_kill(step):
            armed["compact_kill"] = {"step": step}
        else:
            raise ValueError(
                "no journal configured on this shard; cannot arm a "
                "compaction kill"
            )
    return {"ok": True, "armed": armed, "pid": os.getpid()}


def _compact_reply(app: ServerApp, message: Dict[str, Any]) -> Dict[str, Any]:
    """Rewrite the shard journal down to its deduped durable set.

    Returns the compaction summary (or ``compacted: false`` with a
    reason when the shard has no journal or its journal is degraded);
    if a ``compact_kill`` chaos step is armed the worker dies *inside*
    this call and the router sees a :class:`ShardConnectionError`
    instead of a reply -- exactly the respawn-and-retry path.
    """

    journal = app._journal
    if journal is None:
        return {"ok": True, "compacted": False, "reason": "no journal"}
    summary = app.compact_journal()
    if summary is None:
        return {
            "ok": True,
            "compacted": False,
            "reason": "journal degraded",
            "pid": os.getpid(),
        }
    return {
        "ok": True,
        "compacted": True,
        "compact": summary,
        "pid": os.getpid(),
    }


def _handoff_export_reply(
    app: ServerApp, shard_index: int, message: Dict[str, Any]
) -> Dict[str, Any]:
    """Phase one of a reshard: surrender records this slot will not own.

    Under the target ``to_shards`` topology, every journaled completion
    whose rendezvous argmax is no longer this slot is exported, grouped
    by its new owner.  A *retiring* slot (``shard_index >= to_shards``)
    owns nothing under the new topology, so it naturally exports its
    entire journal.  The journal file is flushed but never truncated --
    the router deletes it only after the successors have fsync'd the
    imports.
    """

    to_shards = int(message.get("to_shards") or 0)
    if to_shards < 1:
        raise ValueError("handoff_export requires to_shards >= 1")
    groups: Dict[str, list] = {}
    exported = 0
    kept = 0
    journal = app._journal
    if journal is not None:
        entries = journal.export_handoff(
            lambda key: rendezvous_shard(key, to_shards) != shard_index
        )
        kept = len(journal) - len(entries)
        for entry in entries:
            owner = rendezvous_shard(entry["key"], to_shards)
            groups.setdefault(str(owner), []).append(entry)
            exported += 1
    return {
        "ok": True,
        "exported": exported,
        "kept": kept,
        "groups": groups,
        "pid": os.getpid(),
    }


def _handoff_import_reply(
    app: ServerApp, message: Dict[str, Any]
) -> Dict[str, Any]:
    """Phase two of a reshard: replay handed-off records before traffic.

    The worker loop is serial, so by the time the router's next analyze
    op for a moved key reaches this worker the import below has fully
    landed -- the successor answers from its journal replay map exactly
    as if it had computed the record itself.
    """

    entries = message.get("entries")
    if not isinstance(entries, list):
        raise ValueError("handoff_import requires an entry list")
    journal = app._journal
    if journal is None:
        if entries:
            raise ValueError(
                "handoff_import with no journal configured; the exporter "
                "and importer must share the tier's journal setting"
            )
        return {"ok": True, "imported": 0, "duplicates": 0, "degraded": False}
    imported, duplicates = journal.ingest_handoff(entries)
    # An import appends every handed-off record verbatim, so a shard that
    # just absorbed a retiring sibling's keyspace is the likeliest to be
    # carrying dead weight -- let the thresholds decide right away.
    compact = journal.maybe_compact()
    return {
        "ok": True,
        "imported": imported,
        "duplicates": duplicates,
        "degraded": journal.degraded,
        "compacted": compact is not None,
        "pid": os.getpid(),
    }


def _stats_reply(app: ServerApp, shard_index: int) -> Dict[str, Any]:
    return {
        "ok": True,
        "shard": shard_index,
        "label": shard_label(shard_index),
        "pid": os.getpid(),
        "stats": app.stats_dict(),
        "latency_state": app.latency.state_dict(),
    }


def shard_worker_main(
    conn: Any,
    router_conn: Any,
    shard_index: int,
    config: ServerConfig,
) -> None:
    """Entry point of a shard worker process.

    Parameters
    ----------
    conn:
        The worker's end of the duplex pipe.
    router_conn:
        The router's end, passed in only so the *child* can close its
        inherited copy: under the ``fork`` start method every child
        inherits both pipe ends, and a worker still holding the router's
        write end would never see EOF when the router dies.
    shard_index:
        This worker's slot in the rendezvous ring (stable across
        respawns; the journal and cache paths derive from it).
    config:
        The per-shard :class:`ServerConfig` -- ``journal_path`` and
        ``cache_file`` already point at this shard's private files; the
        app warms the cache at boot and saves it on close.
    """

    if router_conn is not None:
        try:
            router_conn.close()
        except OSError:
            pass
    # The router coordinates shutdown via the `drain` op; a Ctrl-C or
    # process-group TERM aimed at the front end must not snipe workers
    # mid-drain.  SIGKILL (the failure being engineered for) is, by
    # design, unblockable.
    with_signals = hasattr(signal, "SIGTERM")
    if with_signals:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)

    try:
        app = ServerApp(config)
    except BaseException as exc:  # boot failure must be loud, not a hang
        send_message(
            conn,
            {
                "op": "hello",
                "ok": False,
                "shard": shard_index,
                "pid": os.getpid(),
                "ipc_version": SHARD_IPC_VERSION,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            },
        )
        conn.close()
        return

    send_message(
        conn,
        {
            "op": "hello",
            "ok": True,
            "shard": shard_index,
            "label": shard_label(shard_index),
            "pid": os.getpid(),
            "ipc_version": SHARD_IPC_VERSION,
            "protocol": protocol_info(),
            "journal_replayed": (
                len(app._journal) if app._journal is not None else 0
            ),
        },
    )

    try:
        while True:
            try:
                message = recv_message(conn)
            except ShardConnectionError:
                # Router gone (crash or kill): nothing left to serve.
                _log(shard_index, "router connection lost; shutting down")
                app.close()  # saves the cache, flushes the journal
                return
            op = message.get("op")
            seq = message.get("seq")
            try:
                if op == "analyze":
                    reply = _analyze_reply(app, message)
                elif op == "stats":
                    reply = _stats_reply(app, shard_index)
                elif op == "ping":
                    reply = {"ok": True, "pong": True, "pid": os.getpid()}
                elif op == "chaos":
                    reply = _chaos_reply(app, message)
                elif op == "handoff_export":
                    reply = _handoff_export_reply(app, shard_index, message)
                elif op == "handoff_import":
                    reply = _handoff_import_reply(app, message)
                elif op == "compact":
                    reply = _compact_reply(app, message)
                elif op == "drain":
                    app.close()
                    send_message(conn, {"seq": seq, "ok": True, "drained": True})
                    return
                else:
                    raise ValueError(f"unknown shard op {op!r}")
            except BaseException as exc:
                # A failed request must never kill the worker: the router
                # gets a structured frame and decides (bad payloads are a
                # client problem, not a shard-death).
                reply = error_reply(seq, exc)
            else:
                reply["seq"] = seq
            send_message(conn, reply)
    finally:
        try:
            conn.close()
        except OSError:
            pass
