"""Write-ahead journal: crash-safe checkpointing for batch runs.

A :class:`BatchJournal` makes a batch *durable across process death*:
every completed request lands in an append-only JSON-lines file as a
fsync'd ``completion`` record before the batch moves on, so a SIGKILL,
OOM-kill, or host reboot mid-run loses at most the request currently in
flight.  On resume the journal is replayed and already-completed keys are
answered from disk -- fed back into the result stream in input order, so
a resumed batch emits output **byte-identical** to an uninterrupted run.

File format (one JSON object per line)::

    {"format": "repro-batch-journal", "version": 3, "created": <epoch>}
    {"type": "completion", "key": "<sha256>", "kind": "intra",
     "category": null, "at": <epoch>, "crc": "<crc32 hex>",
     "record": {...}}
    {"type": "heartbeat", "at": <epoch>, "completed": 17, "note": "..."}

* The **header** is written first and validated on every open.  An
  unknown ``version`` fails loud (:class:`JournalVersionError`): a format
  change must never be silently misread as an empty journal.
* **Completion** records carry the full result record plus its error
  ``category`` (``null`` for successes) and -- since format version 3 --
  a CRC32 (:func:`record_crc`) over the key and the canonical record
  serialization, so bit rot anywhere in the payload (or a record sewn
  onto the wrong key) is *detected*, never silently replayed.  Only
  *durable* outcomes are journaled -- successes and permanent errors,
  the same set the result cache accepts -- so transient infrastructure
  outcomes (timeouts, crashes, open circuits) are recomputed on resume
  rather than replayed.  Version 1/2 journals (no ``crc`` field) still
  load; their records are simply not CRC-verified until a compaction
  rewrites them at the current version.
* **Heartbeat** lines are advisory progress timestamps written by the
  engine's stalled-batch watchdog; they are flushed but not fsync'd and
  carry no result data.

Crash recovery distinguishes two failure shapes:

* A **torn tail** -- the final line has no trailing newline because the
  process died mid-``write`` -- is truncated away and the run continues;
  the torn record's request simply gets recomputed.
* **Mid-file corruption** -- an undecodable line, a non-object line, or
  (format >= 3) a completion whose CRC does not match -- is
  **quarantined**: the raw line is appended to ``<path>.quarantine``,
  counted in :attr:`BatchJournal.corrupt_quarantined`, and reading
  *continues* with the records after it.  After a recovery that
  quarantined anything, the journal is atomically rewritten clean (same
  machinery as compaction) so the damage is dealt with exactly once.
  A corrupt record is never silently served and never takes the good
  records after it down with it.

Journals are bounded by **crash-safe compaction**
(:meth:`BatchJournal.compact`): the deduped set of durable completions
is written to ``<path>.compact.tmp``, fsync'd, and atomically
``os.replace``-d over the journal -- the source file is *never*
truncated in place, so a SIGKILL at any point (see
:data:`COMPACT_STEPS`) leaves either the old or the new journal fully
valid on disk.  :meth:`BatchJournal.maybe_compact` applies the
``compact_max_records`` / ``compact_max_bytes`` thresholds armed at
construction; the serving tier triggers it after batches, after handoff
ingest, and on boot after replay.

Write failures get the same "never fail the batch" treatment: an
``OSError`` while appending (ENOSPC, EIO, a read-only remount...) does
not kill the owning process.  The journal **degrades to loud
non-durable mode** instead -- the failure is classified
(:func:`classify_write_error`), logged once at full volume, surfaced in
:meth:`BatchJournal.stats` (and from there in ``/metrics``), and all
further appends are dropped while the batch keeps computing.  Results
stay correct (they are deterministic and recomputable); only crash
*checkpointing* is lost, which is exactly what the degraded flag tells
operators to go fix.

Offline, :func:`fsck_file` powers ``repro fsck``: scan a journal (or
persisted cache file) without touching it, report per-record integrity
and dedup stats, and with ``repair=True`` quarantine bad records and
rewrite a clean journal using the exact same recovery machinery the
live reader runs.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import time
import zlib
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .errors import PERMANENT, record_category
from .locking import (
    LOCKING_SUPPORTED,
    FileLockedError,
    lock_handle,
    unlock_handle,
)

#: Magic string identifying a journal file's header line.
JOURNAL_FORMAT = "repro-batch-journal"

#: Schema version written to new journals.  Bump on any format change;
#: unknown versions fail loud on open instead of silently misloading.
#: v1/v2: no per-record checksum.  v3: completion records carry ``crc``.
JOURNAL_SCHEMA_VERSION = 3
_COMPATIBLE_JOURNAL_VERSIONS = (1, 2, 3)

#: First schema version whose completion records carry (and must pass)
#: the per-record CRC.  Older journals load without verification.
_CRC_MIN_VERSION = 3

#: Named points inside :meth:`BatchJournal.compact` where a crash may
#: land (and where the chaos harness injects SIGKILL).  The compaction
#: contract is that dying at *any* of them loses no durable completion:
#: ``pre_tmp`` / ``mid_write`` / ``pre_rename`` leave the old journal
#: untouched (plus at most a stale ``.compact.tmp`` that the next open
#: removes); ``post_rename`` leaves the new journal fully written and
#: fsync'd.
COMPACT_STEPS = ("pre_tmp", "mid_write", "pre_rename", "post_rename")


class JournalError(ValueError):
    """Raised for an unusable journal file (bad header, wrong format)."""


class JournalVersionError(JournalError):
    """Raised for a journal written by an incompatible schema version."""


class JournalExistsError(JournalError):
    """Raised when a journal already exists and resume was not requested."""


class JournalLockedError(JournalError):
    """Raised when another live process holds the journal's write lock.

    The journal is strictly single-writer: two processes appending to one
    file interleave completion records and tear each other's lines.  The
    advisory ``flock`` is taken on open and held for the journal's
    lifetime; the kernel releases it on any process death (including
    SIGKILL), so a respawned shard worker re-locks its predecessor's
    journal cleanly.
    """


#: errno -> degraded-mode reason for journal write failures.  Anything
#: not listed degrades as the generic "os_error"; the point of the map
#: is that dashboards can tell "disk full" from "dying disk" at a
#: glance.
_WRITE_FAILURE_TAXONOMY = {
    errno.ENOSPC: "disk_full",
    getattr(errno, "EDQUOT", errno.ENOSPC): "disk_full",
    errno.EFBIG: "disk_full",
    errno.EIO: "io_error",
    errno.EROFS: "read_only",
}

#: Fault modes :meth:`BatchJournal.inject_write_fault` can arm (the
#: chaos harness reaches these through the shard worker's ``chaos`` op).
JOURNAL_FAULT_MODES = ("enospc", "eio")

_FAULT_ERRNO = {"enospc": errno.ENOSPC, "eio": errno.EIO}


def classify_write_error(exc: OSError) -> str:
    """The degraded-mode reason string for a journal write failure."""
    code = getattr(exc, "errno", None)
    if code in _WRITE_FAILURE_TAXONOMY:
        return _WRITE_FAILURE_TAXONOMY[code]
    return "os_error"


def _default_log(message: str) -> None:
    import sys

    print(f"repro journal: {message}", file=sys.stderr, flush=True)


def record_crc(key: str, record: Dict[str, Any]) -> str:
    """CRC32 (8 hex digits) over a completion's key + canonical record.

    The key participates so a record grafted onto the wrong key -- not
    just a flipped byte inside the record -- fails verification.  The
    record is serialized exactly as the journal writes it
    (``sort_keys``, compact separators), so the checksum is stable
    across write/read round-trips.
    """

    canonical = key + "\n" + json.dumps(
        record, sort_keys=True, separators=(",", ":")
    )
    return format(zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF, "08x")


class ScannedLine(NamedTuple):
    """One classified journal line from :func:`scan_journal`."""

    #: "completion" | "heartbeat" | "other" | "corrupt" | "torn"
    kind: str
    #: 1-based physical line number in the file (header included).
    line_no: int
    #: Byte offset of the line's first byte.
    start: int
    #: Byte offset just past the trailing newline.
    end: int
    #: The raw line bytes (no newline).
    raw: bytes
    #: Decoded payload when the line parsed as a JSON object.
    payload: Optional[Dict[str, Any]]
    #: Human-readable defect description for corrupt/torn lines.
    reason: Optional[str]


class JournalScan(NamedTuple):
    """Classified contents of a journal file (shared reader result).

    ``header_status`` is one of ``ok`` / ``missing`` (empty file) /
    ``torn`` (header line lacks its newline) / ``corrupt`` (undecodable
    header) / ``foreign`` (valid JSON, wrong format string) /
    ``unsupported_version``.  ``lines`` holds the classified payload
    lines *after* the header and is only populated when the header is
    ``ok``.
    """

    header_status: str
    header: Optional[Dict[str, Any]]
    version: Optional[int]
    header_end: int
    lines: List[ScannedLine]


def scan_journal(raw: bytes) -> JournalScan:
    """Classify every line of a journal file (the one shared reader).

    :meth:`BatchJournal._recover`, :func:`read_journal_completions`, and
    :func:`fsck_file` all consume this scan, so the CRC/corruption rules
    cannot drift between the live, rescue, and offline readers.  The
    scan never raises and never touches the file -- policy (truncate,
    quarantine, fail loud) belongs to the callers.
    """

    lines: List[ScannedLine] = []
    header: Optional[Dict[str, Any]] = None
    header_status = "missing"
    version: Optional[int] = None
    header_end = 0
    verify_crc = False
    offset = 0
    for position, chunk in enumerate(raw.split(b"\n")):
        line_no = position + 1
        start = offset
        end = offset + len(chunk) + 1
        # The final chunk (no trailing newline) is torn by definition:
        # a complete append always ends with "\n".
        torn = offset + len(chunk) >= len(raw)
        offset = end
        if not chunk.strip():
            continue
        payload: Optional[Dict[str, Any]] = None
        reason: Optional[str] = None
        try:
            decoded = json.loads(chunk.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            reason = "undecodable line"
        else:
            if isinstance(decoded, dict):
                payload = decoded
            else:
                reason = "line is not a JSON object"
        if header_status == "missing":
            # First nonblank line: the header slot.
            if torn:
                header_status = "torn"
                break
            if payload is None:
                header_status = "corrupt"
                break
            if payload.get("format") != JOURNAL_FORMAT:
                header_status = "foreign"
                header = payload
                break
            if payload.get("version") not in _COMPATIBLE_JOURNAL_VERSIONS:
                header_status = "unsupported_version"
                header = payload
                break
            header_status = "ok"
            header = payload
            version = payload["version"]
            verify_crc = version >= _CRC_MIN_VERSION
            header_end = end
            continue
        if torn:
            lines.append(
                ScannedLine(
                    "torn", line_no, start, end, chunk, payload,
                    "no trailing newline (torn tail)",
                )
            )
            break
        if payload is None:
            lines.append(
                ScannedLine("corrupt", line_no, start, end, chunk, None, reason)
            )
            continue
        line_type = payload.get("type")
        if line_type == "completion":
            key = payload.get("key")
            record = payload.get("record")
            if not isinstance(key, str) or not isinstance(record, dict):
                lines.append(
                    ScannedLine(
                        "corrupt", line_no, start, end, chunk, payload,
                        "malformed completion (missing key or record)",
                    )
                )
                continue
            if verify_crc:
                stored = payload.get("crc")
                expected = record_crc(key, record)
                if stored != expected:
                    defect = (
                        f"crc mismatch for key {key} "
                        f"(stored {stored!r}, computed {expected!r})"
                        if stored is not None
                        else f"missing crc for key {key}"
                    )
                    lines.append(
                        ScannedLine(
                            "corrupt", line_no, start, end, chunk, payload,
                            defect,
                        )
                    )
                    continue
            lines.append(
                ScannedLine("completion", line_no, start, end, chunk, payload, None)
            )
        elif line_type == "heartbeat":
            lines.append(
                ScannedLine("heartbeat", line_no, start, end, chunk, payload, None)
            )
        else:
            # Future record types pass through untouched (and survive
            # compaction-free reads); they are not corruption.
            lines.append(
                ScannedLine("other", line_no, start, end, chunk, payload, None)
            )
    return JournalScan(header_status, header, version, header_end, lines)


def read_journal_completions(path: str) -> Dict[str, Dict[str, Any]]:
    """Read-only rescue load of a journal's durable completion records.

    Used by the reshard handoff when a retiring slot's worker cannot be
    reached even through respawn-and-retry (e.g. the slot is quarantined
    ``failed``): the router lifts the records straight off disk so the
    handoff still loses nothing.  Parsing runs the same shared scanner
    as :meth:`BatchJournal._recover` -- torn tails are ignored and
    corrupt records (bad JSON, failed CRC) are *skipped*, with the
    records after them still rescued -- but the file is never truncated,
    nothing is quarantined, and no lock is taken: only call this when
    the writing process is known to be dead (the kernel frees its flock
    on death).  A missing or headerless file yields ``{}``.
    """

    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return {}
    scan = scan_journal(raw)
    if scan.header_status != "ok":
        return {}
    completed: Dict[str, Dict[str, Any]] = {}
    for entry in scan.lines:
        if entry.kind != "completion":
            continue
        key = entry.payload["key"]
        record = entry.payload["record"]
        if _durable(record):
            completed[key] = record
    return completed


def _durable(record: Dict[str, Any]) -> bool:
    """Whether a result record is worth journaling / replaying.

    Mirrors the engine's cache policy: successes and permanent errors are
    deterministic answers; transient outcomes (deadline overruns, worker
    crashes, open circuits) are infrastructure weather -- a resumed run
    deserves a fresh attempt at them.
    """

    if record.get("ok"):
        return True
    error = record.get("error") or {}
    if error.get("type") == "CircuitOpenError":
        return False
    return record_category(record) == PERMANENT


class BatchJournal:
    """Append-only, fsync'd journal of completed batch requests.

    Parameters
    ----------
    path:
        Journal file path.  Created (with a versioned header) when
        missing.
    resume:
        When the file already exists: ``True`` recovers and replays it;
        ``False`` raises :class:`JournalExistsError` so a stale journal
        is never silently clobbered.
    fsync:
        fsync after every completion record (the write-ahead guarantee).
        Disable only in tests that hammer thousands of appends.
    log:
        Where recovery reports (torn lines dropped, corrupt records
        quarantined) and degraded-mode announcements go (defaults to
        stderr).
    compact_max_records / compact_max_bytes:
        Auto-compaction thresholds applied by :meth:`maybe_compact`
        (``None`` disables that bound).  Compaction only fires when the
        journal actually holds reclaimable lines -- duplicates,
        heartbeats, superseded records -- so an all-unique journal never
        thrashes.
    """

    #: Emit one replay-progress stderr line per this many completion
    #: records while recovering a journal (class attribute so tests and
    #: operators can tune it).
    REPLAY_PROGRESS_EVERY = 10000

    def __init__(
        self,
        path: str,
        resume: bool = False,
        fsync: bool = True,
        log: Optional[Callable[[str], None]] = None,
        compact_max_records: Optional[int] = None,
        compact_max_bytes: Optional[int] = None,
    ):
        self.path = os.path.abspath(path)
        self.fsync = fsync
        self._log = log if log is not None else _default_log
        if compact_max_records is not None and compact_max_records < 1:
            raise ValueError("compact_max_records must be positive (or None)")
        if compact_max_bytes is not None and compact_max_bytes < 1:
            raise ValueError("compact_max_bytes must be positive (or None)")
        self.compact_max_records = compact_max_records
        self.compact_max_bytes = compact_max_bytes
        #: Replayable durable records by request key, in journal order.
        self.completed: Dict[str, Dict[str, Any]] = {}
        #: Lines dropped by torn-tail recovery on open.
        self.recovered_drops = 0
        #: Corrupt lines moved to ``<path>.quarantine`` (ever, this
        #: process).
        self.corrupt_quarantined = 0
        #: Completion records appended by *this* process.
        self.appended = 0
        #: Completed compactions (including recovery rewrites).
        self.compactions = 0
        #: Wall seconds the last recovery replay took (0.0 for a fresh
        #: journal).
        self.replay_seconds = 0.0
        #: Payload lines (completions + heartbeats + other) currently on
        #: disk; the compaction thresholds compare against this.
        self.disk_lines = 0
        #: True once a write failure switched the journal to loud
        #: non-durable mode; appends are dropped but never raise.
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self.degraded_errno: Optional[int] = None
        self.write_errors = 0
        self._armed_fault: Optional[Tuple[str, int]] = None
        self._armed_compact_kill: Optional[str] = None
        self._handle = None
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            if not resume:
                raise JournalExistsError(
                    f"journal {self.path!r} already exists; resume it "
                    "explicitly or delete it to start over"
                )
            # Lock FIRST: recovery truncates/rewrites the file, which
            # must never happen to a journal another process is still
            # writing.
            self._open_locked()
            self._remove_stale_tmp()
            try:
                self._recover()
            except BaseException:
                self.close()
                raise
        else:
            self._create()

    @property
    def quarantine_path(self) -> str:
        """Sidecar file corrupt journal lines are moved to, verbatim."""
        return self.path + ".quarantine"

    # ------------------------------------------------------------------
    # Open / recover
    # ------------------------------------------------------------------
    def _open_locked(self) -> None:
        """Open the append handle and take the single-writer flock.

        Fails loudly with :class:`JournalLockedError` when another live
        process holds the lock -- the one failure mode that must never be
        papered over, because concurrent appends corrupt the file.
        """

        handle = open(self.path, "ab")
        try:
            lock_handle(handle, self.path, purpose="journal")
        except FileLockedError:
            handle.close()
            raise JournalLockedError(
                f"journal {self.path!r} is locked by another live process; "
                "a journal has exactly one writer -- stop the other owner "
                "or use a different --journal path"
            ) from None
        self._handle = handle

    def _create(self) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._open_locked()
        self._remove_stale_tmp()
        self._write_header()

    def _remove_stale_tmp(self) -> None:
        """Drop a ``.compact.tmp`` a dead compaction left behind.

        Safe because the journal flock is already held: nobody else can
        be mid-compaction on this path while we own the lock.
        """

        tmp_path = self.path + ".compact.tmp"
        try:
            os.unlink(tmp_path)
        except FileNotFoundError:
            return
        except OSError:
            return
        self._log(
            f"removed stale compaction temp {tmp_path!r} "
            "(a previous compaction died mid-write; the journal itself "
            "was never touched)"
        )

    def _header_payload(self) -> Dict[str, Any]:
        return {
            "format": JOURNAL_FORMAT,
            "version": JOURNAL_SCHEMA_VERSION,
            "created": time.time(),
        }

    def _write_header(self) -> None:
        self._write_line(self._header_payload(), sync=True)

    def _completion_payload(
        self, key: str, record: Dict[str, Any]
    ) -> Dict[str, Any]:
        return {
            "type": "completion",
            "key": key,
            "kind": record.get("kind"),
            "category": record_category(record),
            "at": time.time(),
            "crc": record_crc(key, record),
            "record": record,
        }

    def _recover(self) -> None:
        """Replay an existing journal.

        Torn tails are truncated away (cheap, routine); corrupt
        mid-file records are quarantined to ``<path>.quarantine`` and
        the journal is rewritten clean so the next open replays without
        incident.  Foreign files and unknown schema versions fail loud.
        """

        started = time.monotonic()
        with open(self.path, "rb") as handle:
            raw = handle.read()
        scan = scan_journal(raw)
        if scan.header_status == "foreign":
            raise JournalError(
                f"{self.path!r} is not a {JOURNAL_FORMAT} file "
                f"(header {scan.header!r})"
            )
        if scan.header_status == "unsupported_version":
            version = (scan.header or {}).get("version")
            raise JournalVersionError(
                f"journal {self.path!r} has schema version {version!r}; "
                f"this build supports {_COMPATIBLE_JOURNAL_VERSIONS}"
            )
        if scan.header_status in ("missing", "torn"):
            # Even the header was torn: start the journal over (the
            # already-locked append handle survives the truncate).
            self._drop_torn(
                sum(1 for chunk in raw.split(b"\n") if chunk.strip())
            )
            os.ftruncate(self._handle.fileno(), 0)
            self._write_header()
            self.replay_seconds = time.monotonic() - started
            return
        if scan.header_status == "corrupt":
            # An undecodable header *with* its newline is real corruption
            # at the head of the file, not a torn write: nothing after it
            # can be attributed to this journal.  Quarantine the whole
            # contents (so an operator can still dig) and restart.
            self._quarantine_raw(
                raw,
                sum(1 for chunk in raw.split(b"\n") if chunk.strip()),
                "undecodable journal header",
            )
            os.ftruncate(self._handle.fileno(), 0)
            self._write_header()
            self.replay_seconds = time.monotonic() - started
            return
        replayed = 0
        kept_lines = 0
        corrupt: List[ScannedLine] = []
        torn: List[ScannedLine] = []
        for entry in scan.lines:
            if entry.kind == "corrupt":
                corrupt.append(entry)
                continue
            if entry.kind == "torn":
                torn.append(entry)
                continue
            kept_lines += 1
            if entry.kind != "completion":
                continue  # heartbeats and future record types
            if _durable(entry.payload["record"]):
                self.completed[entry.payload["key"]] = entry.payload["record"]
            replayed += 1
            if (
                self.REPLAY_PROGRESS_EVERY
                and replayed % self.REPLAY_PROGRESS_EVERY == 0
            ):
                self._log(
                    f"replaying {self.path!r}: {replayed} completion "
                    f"record(s) so far ({len(self.completed)} durable)"
                )
        self.disk_lines = kept_lines
        self._drop_torn(len(torn))
        if corrupt:
            self._quarantine_raw(
                b"".join(entry.raw + b"\n" for entry in corrupt),
                len(corrupt),
                "; ".join(
                    f"line {entry.line_no}: {entry.reason}"
                    for entry in corrupt[:5]
                )
                + ("; ..." if len(corrupt) > 5 else ""),
            )
            # Rewrite the journal clean in one atomic pass -- otherwise
            # every future open would re-quarantine the same lines.
            self._rewrite()
        elif torn:
            # Routine torn-tail recovery: truncate back to the last
            # complete line and carry on.
            os.ftruncate(self._handle.fileno(), torn[0].start)
        self.replay_seconds = time.monotonic() - started
        if replayed >= self.REPLAY_PROGRESS_EVERY:
            self._log(
                f"replayed {self.path!r}: {replayed} completion record(s), "
                f"{len(self.completed)} durable, "
                f"{self.replay_seconds:.2f}s"
            )

    def _drop_torn(self, count: int) -> None:
        """Count ``count`` torn lines dropped by recovery, and say so."""
        if not count:
            return
        self.recovered_drops += count
        self._log(
            f"recovered {self.path!r}: dropped {count} torn line(s); their "
            "requests will be recomputed"
        )

    def _quarantine_raw(self, data: bytes, count: int, reason: str) -> None:
        """Append corrupt raw bytes to the quarantine sidecar, fsync'd."""
        if not data.endswith(b"\n"):
            data += b"\n"
        with open(self.quarantine_path, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        self.corrupt_quarantined += count
        self._log(
            f"QUARANTINED {count} corrupt journal line(s) from "
            f"{self.path!r} to {self.quarantine_path!r} ({reason}); "
            "the remaining records were kept -- corrupt records are "
            "recomputed, never served"
        )

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def _compact_step(
        self, step: str, hook: Optional[Callable[[str], None]]
    ) -> None:
        if hook is not None:
            hook(step)
        if self._armed_compact_kill == step:
            self._armed_compact_kill = None
            self._log(f"injected SIGKILL at compaction step {step!r} (chaos)")
            os.kill(os.getpid(), signal.SIGKILL)

    def _rewrite(
        self, step_hook: Optional[Callable[[str], None]] = None
    ) -> None:
        """Atomically replace the journal with header + deduped records.

        Never truncates the source: the new contents go to
        ``<path>.compact.tmp`` (written, flushed, fsync'd) and land via
        ``os.replace``.  The tmp handle is flocked *before* any bytes
        are written and kept as the journal's append handle after the
        rename -- the fd follows the inode through ``os.replace`` -- so
        there is no instant at which the journal exists unlocked.  The
        old handle (whose lock rode the now-unlinked inode) is closed
        last.
        """

        tmp_path = self.path + ".compact.tmp"
        self._compact_step("pre_tmp", step_hook)
        tmp = open(tmp_path, "wb")
        renamed = False
        try:
            try:
                lock_handle(tmp, tmp_path, purpose="journal compaction")
            except FileLockedError:
                raise JournalError(
                    f"compaction temp {tmp_path!r} is locked by another "
                    "live process; a journal has exactly one writer"
                ) from None
            first = True
            tmp.write(
                json.dumps(
                    self._header_payload(),
                    sort_keys=True,
                    separators=(",", ":"),
                ).encode("utf-8")
                + b"\n"
            )
            for key, record in self.completed.items():
                line = json.dumps(
                    self._completion_payload(key, record),
                    sort_keys=True,
                    separators=(",", ":"),
                )
                tmp.write(line.encode("utf-8") + b"\n")
                if first:
                    first = False
                    self._compact_step("mid_write", step_hook)
            if first:
                self._compact_step("mid_write", step_hook)
            tmp.flush()
            os.fsync(tmp.fileno())
            self._compact_step("pre_rename", step_hook)
            os.replace(tmp_path, self.path)
            renamed = True
        except BaseException:
            try:
                tmp.close()
            except OSError:
                pass
            if not renamed:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
            raise
        old = self._handle
        self._handle = tmp
        if old is not None:
            try:
                old.close()
            except OSError:
                pass
        self._fsync_directory()
        self.disk_lines = len(self.completed)
        self._compact_step("post_rename", step_hook)

    def _fsync_directory(self) -> None:
        """Persist the rename itself (best-effort off POSIX)."""
        directory = os.path.dirname(self.path) or "."
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def compact(
        self, step_hook: Optional[Callable[[str], None]] = None
    ) -> Optional[Dict[str, Any]]:
        """Rewrite the journal down to its deduped durable completions.

        Crash-safe (see :meth:`_rewrite` and :data:`COMPACT_STEPS`): a
        SIGKILL at any point leaves the old or the new journal fully
        valid, and the next open cleans up any stale tmp.  Duplicates,
        heartbeats, and superseded records are dropped; every surviving
        record is re-stamped at the current schema version with a fresh
        CRC (so compacting is also how a v1/v2 journal upgrades).
        Returns a summary dict, or ``None`` when skipped because the
        journal is degraded (rewriting through a failing disk could
        destroy the one copy that still reads back).
        """

        if self._handle is None:
            raise JournalError(f"journal {self.path!r} is closed")
        if self.degraded:
            self._log(
                f"compaction skipped: {self.path!r} is degraded "
                f"({self.degraded_reason}); fix the volume and restart "
                "to restore durability first"
            )
            return None
        self.flush()
        before_bytes = self._file_bytes()
        before_lines = self.disk_lines
        self._rewrite(step_hook=step_hook)
        after_bytes = self._file_bytes()
        self.compactions += 1
        self._log(
            f"compacted {self.path!r}: {before_lines} line(s) -> "
            f"{len(self.completed)} record(s), {before_bytes} -> "
            f"{after_bytes} bytes"
        )
        return {
            "path": self.path,
            "before_lines": before_lines,
            "before_bytes": before_bytes,
            "records": len(self.completed),
            "after_bytes": after_bytes,
            "reclaimed_bytes": max(0, before_bytes - after_bytes),
            "compactions": self.compactions,
        }

    def maybe_compact(self) -> Optional[Dict[str, Any]]:
        """Compact when an armed threshold is exceeded *and* it helps.

        "Helps" means the file holds more lines than unique durable
        records -- duplicates, heartbeats, superseded imports -- so a
        journal of all-unique completions never rewrites itself over and
        over at the threshold.  Returns the :meth:`compact` summary when
        a compaction ran, else ``None``.
        """

        if self._handle is None or self.degraded:
            return None
        if self.compact_max_records is None and self.compact_max_bytes is None:
            return None
        if self.disk_lines <= len(self.completed):
            return None
        over = (
            self.compact_max_records is not None
            and self.disk_lines > self.compact_max_records
        ) or (
            self.compact_max_bytes is not None
            and self._file_bytes() > self.compact_max_bytes
        )
        if not over:
            return None
        return self.compact()

    def inject_compact_kill(self, step: str) -> None:
        """Arm a SIGKILL of this process at a compaction step.

        ``step`` is one of :data:`COMPACT_STEPS`.  Reached from the
        chaos harness through the shard worker's env-guarded ``chaos``
        op; production code never calls this.
        """

        if step not in COMPACT_STEPS:
            raise ValueError(
                f"unknown compaction step {step!r}; "
                f"expected one of {COMPACT_STEPS}"
            )
        self._armed_compact_kill = step

    def _file_bytes(self) -> int:
        """Current on-disk journal size (appends flush per write)."""
        if self._handle is not None:
            try:
                return os.fstat(self._handle.fileno()).st_size
            except OSError:
                return 0
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def record_completion(self, key: str, record: Dict[str, Any]) -> bool:
        """Journal one finished request; returns whether it was written.

        Non-durable (transient) outcomes are skipped -- they must be
        recomputed on resume, so checkpointing them would only replay
        stale infrastructure failures.
        """

        if not _durable(record):
            return False
        written = self._write_line(
            self._completion_payload(key, record), sync=self.fsync
        )
        # The in-memory replay map stays current even in degraded mode:
        # this process still answers repeats correctly, it just cannot
        # promise the answer survives a crash.
        self.completed[key] = record
        if written:
            self.appended += 1
            self.disk_lines += 1
        return written

    def export_handoff(
        self, should_move: Callable[[str], bool]
    ) -> "List[Dict[str, Any]]":
        """Durable completions whose key satisfies ``should_move``.

        The reshard handoff source: the journal is flushed first (so the
        on-disk segment is at least as current as what is exported) and
        entries come back in journal order as ``{"key", "record",
        "crc"}`` triples -- the CRC rides along so the importing side
        verifies the records survived the trip.  The file itself is
        untouched -- a handoff *copies* records to their new owner; the
        append-only history stays put until the slot is retired and its
        file unlinked.
        """

        self.flush()
        return [
            {"key": key, "record": record, "crc": record_crc(key, record)}
            for key, record in self.completed.items()
            if should_move(key)
        ]

    def ingest_handoff(
        self, entries: "Sequence[Dict[str, Any]]"
    ) -> Tuple[int, int]:
        """Replay handed-off completion records into this journal.

        Returns ``(imported, duplicates)``.  Already-known keys are
        counted as duplicates and skipped (a key can be exported by two
        old owners that both journaled it -- e.g. an owner plus a
        fallback slot that served it during a quarantine); new keys go
        through :meth:`record_completion`, so they are fsync'd here
        before the old owner's file is ever deleted.  An entry carrying
        a ``crc`` is verified against its key + record and a mismatch
        fails loud (:class:`JournalError`) -- a handoff must move
        records intact or not at all.  A degraded journal still ingests
        into the in-memory replay map -- correctness is preserved, only
        crash-durability of the handoff is lost (and that is already
        loudly reported).
        """

        imported = 0
        duplicates = 0
        for entry in entries:
            key = entry.get("key")
            record = entry.get("record")
            if not isinstance(key, str) or not isinstance(record, dict):
                raise JournalError(
                    f"malformed handoff entry {entry!r}: expected "
                    "{'key': str, 'record': dict}"
                )
            crc = entry.get("crc")
            if crc is not None and crc != record_crc(key, record):
                raise JournalError(
                    f"handoff entry for key {key} failed crc verification "
                    f"(stored {crc!r}); refusing to ingest a corrupt record"
                )
            if key in self.completed:
                duplicates += 1
                continue
            self.record_completion(key, record)
            imported += 1
        return imported, duplicates

    def heartbeat(self, completed: int, note: str = "") -> None:
        """Advisory progress timestamp (flushed, not fsync'd)."""
        written = self._write_line(
            {
                "type": "heartbeat",
                "at": time.time(),
                "completed": completed,
                "note": note,
            },
            sync=False,
        )
        if written:
            self.disk_lines += 1

    def _write_line(self, payload: Dict[str, Any], sync: bool) -> bool:
        """Append one line; returns False (never raises) when degraded.

        Any ``OSError`` from write/flush/fsync -- a full disk, a dying
        device, a read-only remount -- flips the journal into loud
        non-durable mode instead of propagating: durability is a
        *checkpointing* promise, and losing it must never take down the
        worker that was about to produce a perfectly good answer.
        """

        if self._handle is None:
            raise JournalError(f"journal {self.path!r} is closed")
        if self.degraded:
            return False
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        try:
            self._maybe_inject_fault()
            self._handle.write(line.encode("utf-8") + b"\n")
            self._handle.flush()
            if sync:
                os.fsync(self._handle.fileno())
        except OSError as exc:
            self._degrade(exc)
            return False
        return True

    def _degrade(self, exc: OSError) -> None:
        """Enter loud non-durable mode after a write failure."""
        self.write_errors += 1
        if self.degraded:
            return
        self.degraded = True
        self.degraded_reason = classify_write_error(exc)
        self.degraded_errno = getattr(exc, "errno", None)
        self._log(
            f"DEGRADED to non-durable mode: {self.path!r} append failed "
            f"({self.degraded_reason}: {exc}); results stay correct but "
            "are no longer crash-checkpointed -- free disk space / fix "
            "the volume and restart to restore durability"
        )

    # ------------------------------------------------------------------
    # Fault injection (chaos harness / tests only)
    # ------------------------------------------------------------------
    def inject_write_fault(self, mode: str, after: int = 0) -> None:
        """Arm a one-shot write failure ``after`` successful appends.

        ``mode`` is one of :data:`JOURNAL_FAULT_MODES`; the armed fault
        raises the matching ``OSError`` inside the next append, which
        exercises the real degrade path end to end.  Reached from the
        chaos harness through the shard worker's env-guarded ``chaos``
        op; production code never calls this.
        """

        if mode not in _FAULT_ERRNO:
            raise ValueError(
                f"unknown journal fault mode {mode!r}; "
                f"expected one of {JOURNAL_FAULT_MODES}"
            )
        self._armed_fault = (mode, max(0, int(after)))

    def _maybe_inject_fault(self) -> None:
        if self._armed_fault is None:
            return
        mode, countdown = self._armed_fault
        if countdown > 0:
            self._armed_fault = (mode, countdown - 1)
            return
        self._armed_fault = None
        code = _FAULT_ERRNO[mode]
        raise OSError(code, f"injected journal fault ({mode})")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        if self._handle is None or self.degraded:
            return
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            self._degrade(exc)

    def close(self) -> None:
        if self._handle is not None:
            try:
                self.flush()
            finally:
                try:
                    self._handle.close()
                except OSError:
                    pass  # a degraded handle may fail its final flush
                self._handle = None

    @property
    def closed(self) -> bool:
        return self._handle is None

    def __enter__(self) -> "BatchJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.completed)

    def stats(self) -> Dict[str, Any]:
        """Summary dict for reports: path, counts, recovery + health."""
        return {
            "path": self.path,
            "completed": len(self.completed),
            "appended": self.appended,
            "recovered_drops": self.recovered_drops,
            "corrupt_quarantined": self.corrupt_quarantined,
            "compactions": self.compactions,
            "file_bytes": self._file_bytes(),
            "disk_lines": self.disk_lines,
            "replay_seconds": round(self.replay_seconds, 6),
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "write_errors": self.write_errors,
        }


# ----------------------------------------------------------------------
# Offline integrity checking (``repro fsck``)
# ----------------------------------------------------------------------

#: ``repro fsck`` exit codes: clean / problems found / cannot check.
FSCK_CLEAN = 0
FSCK_PROBLEMS = 1
FSCK_FATAL = 2


def _probe_locked(path: str) -> bool:
    """Whether a live process holds the journal flock on ``path``."""
    if not LOCKING_SUPPORTED:
        return False
    try:
        handle = open(path, "rb")
    except OSError:
        return False
    try:
        try:
            lock_handle(handle, path, purpose="journal")
        except FileLockedError:
            return True
        unlock_handle(handle)
        return False
    finally:
        handle.close()


def _fsck_report(path: str) -> Dict[str, Any]:
    return {
        "path": os.path.abspath(path),
        "kind": "unknown",
        "status": "fatal",
        "exit_code": FSCK_FATAL,
        "detail": None,
        "version": None,
        "file_bytes": 0,
        "completion_lines": 0,
        "unique_keys": 0,
        "durable_records": 0,
        "duplicate_lines": 0,
        "heartbeat_lines": 0,
        "other_lines": 0,
        "corrupt": [],
        "torn": [],
        "repaired": False,
        "quarantined": 0,
        "recovered_drops": 0,
    }


def _fsck_cache(report: Dict[str, Any], raw: bytes) -> Dict[str, Any]:
    """Light validity check of a persisted result-cache file.

    The cache is a single JSON document written atomically by
    ``save_cache`` -- there is no per-record repair story (a corrupt
    cache is simply deleted and re-warmed), so fsck only reports whether
    it would load.
    """

    report["kind"] = "cache"
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        report["detail"] = f"cache file does not parse as JSON: {exc}"
        return report
    entries = payload.get("entries")
    if not isinstance(entries, list):
        report["detail"] = "malformed cache file (no entries list)"
        return report
    bad = sum(
        1
        for entry in entries
        if not (
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and isinstance(entry[1], dict)
        )
    )
    report["version"] = payload.get("version")
    report["completion_lines"] = len(entries)
    report["unique_keys"] = len(
        {entry[0] for entry in entries if isinstance(entry, (list, tuple)) and entry}
    )
    if bad:
        report["status"] = "problems"
        report["exit_code"] = FSCK_PROBLEMS
        report["detail"] = f"{bad} malformed cache entr(y/ies)"
    else:
        report["status"] = "clean"
        report["exit_code"] = FSCK_CLEAN
    return report


def fsck_file(path: str, repair: bool = False) -> Dict[str, Any]:
    """Scan a journal (or cache) file offline; optionally repair it.

    Returns a report dict whose ``exit_code`` follows the fsck
    convention: 0 clean, 1 problems found (corrupt or torn records --
    repaired when ``repair=True``), 2 cannot check (missing file,
    foreign format, unknown version, or a live writer holds the lock).
    ``corrupt`` lists each bad record's line number, key (when
    recoverable), and reason, so an operator -- or a CI grep -- can name
    exactly what was lost.

    ``repair=True`` (journals only) runs the *live* recovery machinery:
    corrupt records are quarantined to ``<path>.quarantine`` and the
    journal is atomically rewritten clean, exactly as a resuming worker
    would have done.
    """

    report = _fsck_report(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        report["detail"] = f"unreadable: {exc}"
        return report
    report["file_bytes"] = len(raw)
    if _probe_locked(path):
        report["detail"] = (
            "locked by a live process (it has exactly one writer); "
            "stop the owner before running fsck"
        )
        return report
    first_line = next(
        (chunk for chunk in raw.split(b"\n") if chunk.strip()), b""
    )
    first_payload = None
    try:
        decoded = json.loads(first_line.decode("utf-8"))
        if isinstance(decoded, dict):
            first_payload = decoded
    except (ValueError, UnicodeDecodeError):
        pass
    if first_payload is not None and "entries" in first_payload:
        return _fsck_cache(report, raw)
    report["kind"] = "journal"
    scan = scan_journal(raw)
    report["version"] = scan.version
    if scan.header_status == "missing":
        report["detail"] = "empty file (no journal header)"
        return report
    if scan.header_status == "foreign":
        report["detail"] = (
            f"not a {JOURNAL_FORMAT} file (header {scan.header!r})"
        )
        return report
    if scan.header_status == "unsupported_version":
        report["detail"] = (
            f"schema version {(scan.header or {}).get('version')!r} is not "
            f"supported by this build ({_COMPATIBLE_JOURNAL_VERSIONS})"
        )
        return report
    if scan.header_status == "torn":
        report["status"] = "problems"
        report["exit_code"] = FSCK_PROBLEMS
        report["corrupt"].append(
            {"line": 1, "key": None, "reason": "torn journal header"}
        )
    elif scan.header_status == "corrupt":
        report["status"] = "problems"
        report["exit_code"] = FSCK_PROBLEMS
        report["corrupt"].append(
            {"line": 1, "key": None, "reason": "undecodable journal header"}
        )
    else:
        seen = set()
        durable: Dict[str, Dict[str, Any]] = {}
        for entry in scan.lines:
            if entry.kind == "completion":
                report["completion_lines"] += 1
                key = entry.payload["key"]
                if key in seen:
                    report["duplicate_lines"] += 1
                seen.add(key)
                record = entry.payload["record"]
                if _durable(record):
                    durable[key] = record
            elif entry.kind == "heartbeat":
                report["heartbeat_lines"] += 1
            elif entry.kind == "other":
                report["other_lines"] += 1
            elif entry.kind == "corrupt":
                payload = entry.payload or {}
                report["corrupt"].append(
                    {
                        "line": entry.line_no,
                        "key": payload.get("key"),
                        "reason": entry.reason,
                    }
                )
            elif entry.kind == "torn":
                payload = entry.payload or {}
                report["torn"].append(
                    {
                        "line": entry.line_no,
                        "key": payload.get("key"),
                        "reason": entry.reason,
                    }
                )
        report["unique_keys"] = len(seen)
        report["durable_records"] = len(durable)
        if report["corrupt"] or report["torn"]:
            report["status"] = "problems"
            report["exit_code"] = FSCK_PROBLEMS
        else:
            report["status"] = "clean"
            report["exit_code"] = FSCK_CLEAN
    if repair and report["status"] == "problems":
        try:
            journal = BatchJournal(path, resume=True)
        except JournalLockedError:
            report["detail"] = "locked by a live process; repair aborted"
            report["status"] = "fatal"
            report["exit_code"] = FSCK_FATAL
            return report
        try:
            report["quarantined"] = journal.corrupt_quarantined
            report["recovered_drops"] = journal.recovered_drops
            report["durable_records"] = len(journal.completed)
        finally:
            journal.close()
        report["repaired"] = True
    return report
