"""Tests for the durable-execution layer.

Covers the write-ahead journal's file format and crash recovery (torn
tails, mid-file corruption, incompatible schema versions), the
``exit`` fault action (crash-after-n-completions), kill-and-resume
byte-identical replay through the engine and :func:`run_grid`, and the
graceful SIGINT/SIGTERM shutdown guard.
"""

import json
import os
import signal
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    JOURNAL_FORMAT,
    JOURNAL_SCHEMA_VERSION,
    RESUMABLE_EXIT_CODE,
    BatchAbortError,
    BatchEngine,
    BatchInterrupted,
    BatchJournal,
    EngineConfig,
    FaultSpecError,
    JournalError,
    JournalExistsError,
    JournalVersionError,
    ShutdownRequested,
    injected_faults,
    intra_request,
    parse_fault_spec,
    reset_fault_state,
    shutdown_guard,
)
from repro.service.journal import _durable, fsck_file


@pytest.fixture(autouse=True)
def _isolated_fault_state(monkeypatch):
    """No fault plan (or leaked REPRO_FAULTS) bleeds between tests."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reset_fault_state()
    yield
    reset_fault_state()


def _requests(count=5):
    """Distinct feasible intra requests (cheap to compute)."""
    return [
        intra_request(16 + 4 * index, 12, 20, buffer_elems=256)
        for index in range(count)
    ]


def _ok_record(value=1):
    return {"ok": True, "kind": "intra", "result": {"memory_access": value}}


def _error_record(error_type, category):
    return {
        "ok": False,
        "kind": "intra",
        "error": {"type": error_type, "message": "x", "category": category},
    }


def _records(report):
    """The result stream as canonical bytes (what the CLI emits per line)."""
    return [
        json.dumps(entry.record, sort_keys=True) for entry in report.entries
    ]


# ----------------------------------------------------------------------
# Journal file format and recovery
# ----------------------------------------------------------------------
class TestJournalFile:
    def test_create_writes_versioned_header(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            assert len(journal) == 0
        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["format"] == JOURNAL_FORMAT
        assert header["version"] == JOURNAL_SCHEMA_VERSION

    def test_existing_journal_without_resume_fails(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        BatchJournal(path).close()
        with pytest.raises(JournalExistsError):
            BatchJournal(path)

    def test_resume_replays_durable_completions(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            assert journal.record_completion("k1", _ok_record(1))
            assert journal.record_completion(
                "k2", _error_record("InfeasibleError", "permanent")
            )
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1", "k2"}
            assert journal.completed["k1"]["result"]["memory_access"] == 1
            assert journal.recovered_drops == 0

    def test_transient_outcomes_are_not_checkpointed(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            assert not journal.record_completion(
                "k1", _error_record("WorkerCrashError", "transient")
            )
            assert not journal.record_completion(
                "k2", _error_record("CircuitOpenError", "transient")
            )
            assert journal.appended == 0
        with BatchJournal(path, resume=True) as journal:
            assert len(journal) == 0

    def test_durable_policy_mirrors_cache_policy(self):
        assert _durable(_ok_record())
        assert _durable(_error_record("InfeasibleError", "permanent"))
        assert not _durable(_error_record("DeadlineExceededError", "transient"))
        # An open circuit is never a durable answer even if misclassified.
        assert not _durable(_error_record("CircuitOpenError", "permanent"))

    def test_unknown_schema_version_fails_loud(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        header = {"format": JOURNAL_FORMAT, "version": 99, "created": 0}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
        with pytest.raises(JournalVersionError, match="99"):
            BatchJournal(path, resume=True)

    def test_foreign_file_fails_loud(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"format": "something-else", "version": 1}\n')
        with pytest.raises(JournalError):
            BatchJournal(path, resume=True)

    def test_torn_tail_truncates_and_continues(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
            journal.record_completion("k2", _ok_record(2))
        # Simulate dying mid-write: a partial record with no newline.
        with open(path, "ab") as handle:
            handle.write(b'{"type": "completion", "key": "k3", "reco')
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1", "k2"}
            assert journal.recovered_drops == 1
            # The torn bytes are gone and the journal accepts appends.
            journal.record_completion("k3", _ok_record(3))
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1", "k2", "k3"}
            assert journal.recovered_drops == 0

    def test_complete_final_line_is_not_torn(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
        with BatchJournal(path, resume=True) as journal:
            assert journal.recovered_drops == 0
            assert set(journal.completed) == {"k1"}

    def test_mid_file_corruption_keeps_the_records_after_it(self, tmp_path):
        from repro.service.journal import record_crc

        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
        with open(path, "ab") as handle:
            handle.write(b"\x00garbage\n")
        # A good record *after* the garbage line survives: corruption is
        # quarantined per-line, not amplified into dropping the suffix.
        good = {
            "type": "completion",
            "key": "k2",
            "kind": "intra",
            "category": None,
            "at": 0,
            "crc": record_crc("k2", _ok_record(2)),
            "record": _ok_record(2),
        }
        with open(path, "ab") as handle:
            handle.write(json.dumps(good).encode("utf-8") + b"\n")
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1", "k2"}
            assert journal.corrupt_quarantined == 1
            assert journal.recovered_drops == 0
        # The rewrite preserved both good records.
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1", "k2"}
            assert journal.corrupt_quarantined == 0

    def test_corruption_quarantines_and_rewrites_clean(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
            journal.record_completion("k2", _ok_record(2))
            journal.record_completion("k3", _ok_record(3))
        # Flip one byte inside k2's record: the line stays valid JSON,
        # only the CRC can catch it.
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        assert b'"k2"' in lines[2]
        assert b'"memory_access":2' in lines[2]
        lines[2] = lines[2].replace(b'"memory_access":2', b'"memory_access":9')
        with open(path, "wb") as handle:
            handle.writelines(lines)
        with BatchJournal(path, resume=True) as journal:
            # The corrupt record is quarantined and counted; the good
            # records before AND after it are kept.
            assert set(journal.completed) == {"k1", "k3"}
            assert journal.corrupt_quarantined == 1
            assert journal.recovered_drops == 0
            quarantine = journal.quarantine_path
        with open(quarantine, "rb") as handle:
            assert b'"k2"' in handle.read()
        # The journal was rewritten clean: reopening does not
        # re-quarantine the same line.
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1", "k3"}
            assert journal.corrupt_quarantined == 0

    def test_crc_covers_the_key_not_just_the_record(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
        with open(path, "rb") as handle:
            data = handle.read()
        # Graft the record onto a different key: the record bytes are
        # intact, so only a key-covering checksum can object.
        with open(path, "wb") as handle:
            handle.write(data.replace(b'"key":"k1"', b'"key":"kX"'))
        with BatchJournal(path, resume=True) as journal:
            assert journal.completed == {}
            assert journal.corrupt_quarantined == 1

    def test_v1_journal_still_loads_and_compaction_upgrades_it(
        self, tmp_path
    ):
        path = str(tmp_path / "batch.journal")
        header = {"format": JOURNAL_FORMAT, "version": 1, "created": 0}
        completion = {
            "type": "completion",
            "key": "k1",
            "kind": "intra",
            "category": None,
            "at": 0,
            "record": _ok_record(1),
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write(json.dumps(completion) + "\n")
        with BatchJournal(path, resume=True) as journal:
            # Pre-CRC records load unverified rather than quarantined.
            assert set(journal.completed) == {"k1"}
            assert journal.corrupt_quarantined == 0
            journal.compact()
        with open(path, "r", encoding="utf-8") as handle:
            new_header = json.loads(handle.readline())
            record_line = json.loads(handle.readline())
        assert new_header["version"] == JOURNAL_SCHEMA_VERSION
        assert "crc" in record_line

    def test_corrupt_header_quarantines_whole_file(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(b"\x00" + data)
        with BatchJournal(path, resume=True) as journal:
            assert journal.completed == {}
            assert journal.corrupt_quarantined == 2
            assert os.path.exists(journal.quarantine_path)
            journal.record_completion("k2", _ok_record(2))
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k2"}

    def test_torn_header_restarts_the_journal(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with open(path, "wb") as handle:
            handle.write(b'{"format": "repro-batch-jou')
        with BatchJournal(path, resume=True) as journal:
            assert len(journal) == 0
            journal.record_completion("k1", _ok_record(1))
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1"}

    def test_heartbeats_are_ignored_on_replay(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
            journal.heartbeat(completed=1, note="stall watchdog")
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1"}

    def test_closed_journal_rejects_appends(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        journal = BatchJournal(path)
        journal.close()
        assert journal.closed
        with pytest.raises(JournalError, match="closed"):
            journal.record_completion("k1", _ok_record(1))

    def test_stats(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
            stats = journal.stats()
        assert stats["completed"] == 1
        assert stats["appended"] == 1
        assert stats["recovered_drops"] == 0
        assert stats["path"] == os.path.abspath(path)
        assert stats["corrupt_quarantined"] == 0
        assert stats["compactions"] == 0
        assert stats["disk_lines"] == 1
        assert stats["file_bytes"] == os.path.getsize(path)
        assert stats["file_bytes"] > 0
        assert stats["replay_seconds"] == 0.0

    def test_replay_progress_lines(self, tmp_path, monkeypatch):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path, fsync=False) as journal:
            for index in range(7):
                journal.record_completion(f"k{index}", _ok_record(index))
        monkeypatch.setattr(BatchJournal, "REPLAY_PROGRESS_EVERY", 3)
        messages = []
        with BatchJournal(path, resume=True, log=messages.append) as journal:
            assert len(journal) == 7
            assert journal.stats()["replay_seconds"] > 0.0
        progress = [m for m in messages if "replaying" in m]
        assert len(progress) == 2  # at 3 and at 6 of 7
        assert any("replayed" in m for m in messages)  # final summary


# ----------------------------------------------------------------------
# Crash-safe compaction
# ----------------------------------------------------------------------
class TestJournalCompaction:
    def test_compact_dedupes_and_drops_heartbeats(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path, fsync=False) as journal:
            for index in range(6):
                journal.record_completion(f"k{index}", _ok_record(index))
            for index in range(3):  # superseded rewrites
                journal.record_completion(f"k{index}", _ok_record(100 + index))
            journal.heartbeat(completed=6)
            assert journal.disk_lines == 10
            before = os.path.getsize(path)
            summary = journal.compact()
            assert summary["records"] == 6
            assert summary["before_lines"] == 10
            assert journal.disk_lines == 6
            assert journal.compactions == 1
            assert os.path.getsize(path) < before
            # The journal stays appendable through the handle swap.
            journal.record_completion("k9", _ok_record(9))
        with BatchJournal(path, resume=True) as journal:
            assert len(journal) == 7
            # Latest-write-wins survived the rewrite.
            assert journal.completed["k1"]["result"]["memory_access"] == 101
            assert journal.corrupt_quarantined == 0

    def test_maybe_compact_respects_threshold_and_reclaim(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path, fsync=False, compact_max_records=4) as journal:
            for index in range(5):
                journal.record_completion(f"k{index}", _ok_record(index))
            # Over threshold but nothing reclaimable: no thrash.
            assert journal.maybe_compact() is None
            for index in range(5):
                journal.record_completion(f"k{index}", _ok_record(index))
            # Over threshold AND half the lines are duplicates.
            summary = journal.maybe_compact()
            assert summary is not None
            assert summary["records"] == 5
            assert journal.compactions == 1

    def test_maybe_compact_disabled_without_thresholds(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path, fsync=False) as journal:
            for _ in range(3):
                journal.record_completion("k1", _ok_record(1))
            assert journal.maybe_compact() is None
            assert journal.compactions == 0

    def test_compact_max_bytes_threshold(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path, fsync=False, compact_max_bytes=64) as journal:
            journal.record_completion("k1", _ok_record(1))
            journal.record_completion("k1", _ok_record(2))
            assert journal.maybe_compact() is not None

    def test_degraded_journal_refuses_to_compact(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
            journal.record_completion("k1", _ok_record(2))
            journal.inject_write_fault("enospc")
            journal.record_completion("k2", _ok_record(3))
            assert journal.degraded
            assert journal.compact() is None
            assert journal.compactions == 0
        # The on-disk pre-fault prefix is untouched.
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1"}

    def test_stale_compact_tmp_is_removed_on_open(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
        with open(path + ".compact.tmp", "wb") as handle:
            handle.write(b"half-written garbage")
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1"}
        assert not os.path.exists(path + ".compact.tmp")

    def test_inject_compact_kill_rejects_unknown_step(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            with pytest.raises(ValueError, match="step"):
                journal.inject_compact_kill("sharknado")

    @pytest.mark.parametrize(
        "step", ["pre_tmp", "mid_write", "pre_rename", "post_rename"]
    )
    def test_sigkill_at_every_compaction_step_loses_nothing(
        self, tmp_path, step
    ):
        """The acceptance bar: die anywhere inside compact(), lose nothing."""
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path, fsync=False) as journal:
            for index in range(8):
                journal.record_completion(f"k{index}", _ok_record(index))
            for index in range(4):
                journal.record_completion(f"k{index}", _ok_record(100 + index))
            journal.heartbeat(completed=8)
            expected = dict(journal.completed)

        pid = os.fork()
        if pid == 0:  # child: compact with an armed SIGKILL, never returns
            try:
                child = BatchJournal(
                    path, resume=True, fsync=False, log=lambda _msg: None
                )
                child.inject_compact_kill(step)
                child.compact()
            finally:
                os._exit(3)  # reached only if the kill failed to fire
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status)
        assert os.WTERMSIG(status) == signal.SIGKILL

        # The kernel freed the corpse's flock; the journal reopens with
        # every durable completion intact (old file or new file, both
        # fully valid) and no quarantine.
        with BatchJournal(path, resume=True) as journal:
            assert journal.completed == expected
            assert journal.corrupt_quarantined == 0
            assert journal.recovered_drops == 0
        assert not os.path.exists(path + ".compact.tmp")

    def test_handoff_export_carries_crc_and_ingest_verifies(self, tmp_path):
        path_a = str(tmp_path / "a.journal")
        path_b = str(tmp_path / "b.journal")
        with BatchJournal(path_a) as source:
            source.record_completion("k1", _ok_record(1))
            entries = source.export_handoff(lambda key: True)
        assert all("crc" in entry for entry in entries)
        with BatchJournal(path_b) as target:
            assert target.ingest_handoff(entries) == (1, 0)
            entries[0]["record"]["result"]["memory_access"] = 999
            with pytest.raises(JournalError, match="crc"):
                target.ingest_handoff(
                    [{**entries[0], "key": "k-tampered"}]
                )


class TestCompactionPreservesDurableSet:
    """Hypothesis: compaction == latest-write-wins durable completions."""

    _KEYS = ("k1", "k2", "k3", "k4")
    _OPS = st.lists(
        st.tuples(
            st.sampled_from(_KEYS),
            st.sampled_from(
                ["ok_low", "ok_high", "permanent", "transient", "heartbeat"]
            ),
        ),
        max_size=30,
    )

    @staticmethod
    def _record_for(op, serial):
        if op == "ok_low":
            return _ok_record(serial)
        if op == "ok_high":
            return _ok_record(1000 + serial)
        if op == "permanent":
            return _error_record("InfeasibleError", "permanent")
        return _error_record("DeadlineExceededError", "transient")

    @given(ops=_OPS)
    @settings(max_examples=40, deadline=None)
    def test_property(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "batch.journal")
            expected = {}
            with BatchJournal(path, fsync=False) as journal:
                for serial, (key, op) in enumerate(ops):
                    if op == "heartbeat":
                        journal.heartbeat(completed=serial)
                        continue
                    record = self._record_for(op, serial)
                    journal.record_completion(key, record)
                    if _durable(record):
                        expected[key] = record
                journal.compact()
                assert journal.completed == expected
                assert journal.disk_lines == len(expected)
            with BatchJournal(path, resume=True) as journal:
                assert journal.completed == expected
                assert journal.corrupt_quarantined == 0


# ----------------------------------------------------------------------
# Offline integrity checking (repro fsck)
# ----------------------------------------------------------------------
class TestFsck:
    def test_clean_journal(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
            journal.record_completion("k1", _ok_record(2))
            journal.record_completion("k2", _ok_record(3))
            journal.heartbeat(completed=2)
        report = fsck_file(path)
        assert report["kind"] == "journal"
        assert report["status"] == "clean"
        assert report["exit_code"] == 0
        assert report["completion_lines"] == 3
        assert report["unique_keys"] == 2
        assert report["duplicate_lines"] == 1
        assert report["durable_records"] == 2
        assert report["heartbeat_lines"] == 1

    def test_flipped_byte_is_found_named_and_repaired(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
            journal.record_completion("k2", _ok_record(2))
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data.replace(b'"memory_access":2', b'"memory_access":7'))
        report = fsck_file(path)
        assert report["status"] == "problems"
        assert report["exit_code"] == 1
        (corrupt,) = report["corrupt"]
        assert corrupt["key"] == "k2"
        assert "crc mismatch" in corrupt["reason"]
        assert corrupt["line"] == 3
        repaired = fsck_file(path, repair=True)
        assert repaired["repaired"]
        assert repaired["quarantined"] == 1
        assert repaired["durable_records"] == 1
        assert fsck_file(path)["status"] == "clean"
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1"}

    def test_torn_tail_reports_problems(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
        with open(path, "ab") as handle:
            handle.write(b'{"type": "completion", "key": "k2", "reco')
        report = fsck_file(path)
        assert report["exit_code"] == 1
        assert len(report["torn"]) == 1

    def test_foreign_and_missing_files_are_fatal(self, tmp_path):
        foreign = str(tmp_path / "foreign.json")
        with open(foreign, "w", encoding="utf-8") as handle:
            handle.write('{"format": "something-else", "version": 1}\n')
        assert fsck_file(foreign)["exit_code"] == 2
        assert fsck_file(str(tmp_path / "absent.journal"))["exit_code"] == 2

    def test_live_locked_journal_is_fatal(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
            report = fsck_file(path)
            assert report["exit_code"] == 2
            assert "locked" in report["detail"]

    def test_cache_file_light_check(self, tmp_path):
        path = str(tmp_path / "results.cache")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"version": 2, "entries": [["k1", _ok_record(1)]]}, handle
            )
        report = fsck_file(path)
        assert report["kind"] == "cache"
        assert report["exit_code"] == 0
        assert report["completion_lines"] == 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"version": 2, "entries": [["k1", "not-a-dict"]]}, handle)
        assert fsck_file(path)["exit_code"] == 1


# ----------------------------------------------------------------------
# Write-failure taxonomy and loud non-durable degraded mode
# ----------------------------------------------------------------------
class TestJournalDegradedMode:
    def test_classify_write_error_taxonomy(self):
        import errno

        from repro.service.journal import classify_write_error

        assert classify_write_error(OSError(errno.ENOSPC, "x")) == "disk_full"
        assert classify_write_error(OSError(errno.EDQUOT, "x")) == "disk_full"
        assert classify_write_error(OSError(errno.EIO, "x")) == "io_error"
        assert classify_write_error(OSError(errno.EROFS, "x")) == "read_only"
        assert classify_write_error(OSError(errno.EACCES, "x")) == "os_error"

    def test_enospc_degrades_instead_of_raising(self, tmp_path, capsys):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            assert journal.record_completion("k1", _ok_record(1))
            journal.inject_write_fault("enospc")
            # The armed fault fires inside the append; the journal must
            # NOT raise -- it degrades and keeps the in-memory answer.
            assert not journal.record_completion("k2", _ok_record(2))
            assert journal.degraded
            assert journal.degraded_reason == "disk_full"
            assert set(journal.completed) == {"k1", "k2"}
            # Degraded journals drop later appends silently (no retries
            # against a full disk) but stay correct in memory.
            assert not journal.record_completion("k3", _ok_record(3))
            assert set(journal.completed) == {"k1", "k2", "k3"}
            stats = journal.stats()
            assert stats["degraded"] is True
            assert stats["degraded_reason"] == "disk_full"
            assert stats["write_errors"] == 1
            assert stats["appended"] == 1
        err = capsys.readouterr().err
        assert "DEGRADED" in err
        assert "disk_full" in err

    def test_degraded_journal_reopens_with_durable_prefix(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.record_completion("k1", _ok_record(1))
            journal.inject_write_fault("eio")
            journal.record_completion("k2", _ok_record(2))
            assert journal.degraded_reason == "io_error"
        # Only the pre-fault completion survived on disk; after the
        # volume is "fixed" (the fault was one-shot) appends work again.
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1"}
            assert not journal.degraded
            assert journal.record_completion("k2", _ok_record(2))
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1", "k2"}

    def test_partial_write_then_enospc_truncates_on_reopen(self, tmp_path):
        """A torn line from a mid-write ENOSPC is recovered like a crash."""
        import errno

        path = str(tmp_path / "batch.journal")
        journal = BatchJournal(path)
        journal.record_completion("k1", _ok_record(1))
        handle = journal._handle
        real_write = handle.write

        def partial_write(data):
            # The kernel accepted half the bytes, then the volume filled:
            # exactly the torn-tail shape a real ENOSPC leaves behind.
            real_write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "no space left on device")

        handle.write = partial_write
        try:
            assert not journal.record_completion("k2", _ok_record(2))
            assert journal.degraded
            assert journal.degraded_reason == "disk_full"
        finally:
            handle.write = real_write
            journal.close()
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1"}
            assert journal.recovered_drops == 1
            assert journal.record_completion("k2", _ok_record(2))

    def test_raising_fsync_degrades(self, tmp_path, monkeypatch):
        import errno

        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:

            def broken_fsync(fd):
                raise OSError(errno.EIO, "I/O error")

            monkeypatch.setattr(os, "fsync", broken_fsync)
            assert not journal.record_completion("k1", _ok_record(1))
            assert journal.degraded
            assert journal.degraded_reason == "io_error"
            monkeypatch.undo()
            # close() must not raise on a degraded journal either.
        assert journal.closed

    def test_flush_degrades_instead_of_raising(self, tmp_path, monkeypatch):
        import errno

        path = str(tmp_path / "batch.journal")
        journal = BatchJournal(path)
        try:

            def broken_fsync(fd):
                raise OSError(errno.ENOSPC, "no space")

            monkeypatch.setattr(os, "fsync", broken_fsync)
            journal.flush()  # must not raise
            assert journal.degraded
            monkeypatch.undo()
        finally:
            journal.close()

    def test_inject_rejects_unknown_mode(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            with pytest.raises(ValueError, match="mode"):
                journal.inject_write_fault("sharknado")

    def test_inject_after_counts_successful_appends(self, tmp_path):
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            journal.inject_write_fault("enospc", after=2)
            assert journal.record_completion("k1", _ok_record(1))
            assert journal.record_completion("k2", _ok_record(2))
            assert not journal.record_completion("k3", _ok_record(3))
            assert journal.degraded
        with BatchJournal(path, resume=True) as journal:
            assert set(journal.completed) == {"k1", "k2"}


# ----------------------------------------------------------------------
# The crash-after-n fault action
# ----------------------------------------------------------------------
class TestExitFault:
    def test_exit_spec_parses(self):
        plan = parse_fault_spec("exit:*:after=3")
        (clause,) = plan.clauses
        assert clause.action == "exit"
        assert clause.after == 3

    def test_after_must_be_positive(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("exit:*:after=0")

    def test_abort_tears_through_except_exception(self):
        assert issubclass(BatchAbortError, BaseException)
        assert not issubclass(BatchAbortError, Exception)

    def test_maybe_abort_waits_for_threshold(self):
        plan = parse_fault_spec("exit:*:after=2")
        plan.maybe_abort(0)
        plan.maybe_abort(1)
        with pytest.raises(BatchAbortError):
            plan.maybe_abort(2)
        # Fires once (times=1 default): the resumed run is not re-killed.
        plan.maybe_abort(5)


# ----------------------------------------------------------------------
# Kill-and-resume through the engine
# ----------------------------------------------------------------------
class TestCrashResume:
    @staticmethod
    def _crash_after_two_then_resume(tmp_path, jobs):
        requests = _requests(5)
        clean = BatchEngine(EngineConfig(jobs=jobs)).run_batch(requests)

        path = str(tmp_path / "batch.journal")
        journal = BatchJournal(path)
        try:
            with injected_faults("exit:*:after=2"):
                with pytest.raises(BatchAbortError):
                    BatchEngine(EngineConfig(jobs=jobs)).run_batch(
                        requests, journal=journal
                    )
        finally:
            journal.close()

        with BatchJournal(path, resume=True) as journal:
            assert len(journal) == 2
            report = BatchEngine(EngineConfig(jobs=jobs)).run_batch(
                requests, journal=journal
            )
        assert report.replayed == 2
        assert report.computed == 3
        assert _records(report) == _records(clean)
        assert [entry.replayed for entry in report.entries].count(True) == 2

    def test_crash_after_n_then_resume_is_byte_identical(self, tmp_path):
        self._crash_after_two_then_resume(tmp_path, jobs=1)

    def test_crash_after_n_in_a_thread_pool_journals_exactly_n(
        self, tmp_path
    ):
        self._crash_after_two_then_resume(tmp_path, jobs=2)

    def test_replay_survives_a_second_resume(self, tmp_path):
        """A fully-journaled batch replays everything and computes nothing."""
        requests = _requests(4)
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            first = BatchEngine(EngineConfig(jobs=1)).run_batch(
                requests, journal=journal
            )
        with BatchJournal(path, resume=True) as journal:
            second = BatchEngine(EngineConfig(jobs=1)).run_batch(
                requests, journal=journal
            )
        assert second.replayed == len(requests)
        assert second.computed == 0
        assert _records(second) == _records(first)
        assert second.journal is not None
        assert second.journal["completed"] == len(requests)

    def test_stop_event_interrupts_resumably(self, tmp_path):
        requests = _requests(5)
        clean = BatchEngine(EngineConfig(jobs=1)).run_batch(requests)

        path = str(tmp_path / "batch.journal")
        journal = BatchJournal(path)

        class _StopAfter:
            """Cooperative stop once two completions are journaled."""

            signal_name = "SIGTERM"

            def is_set(self):
                return journal.appended >= 2

        try:
            with pytest.raises(BatchInterrupted) as excinfo:
                BatchEngine(EngineConfig(jobs=1)).run_batch(
                    requests, journal=journal, stop_event=_StopAfter()
                )
        finally:
            journal.close()
        assert excinfo.value.journaled == 2
        assert excinfo.value.completed_keys == 2
        assert excinfo.value.total_requests == 5
        assert excinfo.value.signal_name == "SIGTERM"
        assert "resume" in str(excinfo.value)

        with BatchJournal(path, resume=True) as journal:
            report = BatchEngine(EngineConfig(jobs=1)).run_batch(
                requests, journal=journal
            )
        assert report.replayed == 2
        assert _records(report) == _records(clean)

    def test_interrupt_in_pooled_mode_drains_and_resumes(self, tmp_path):
        requests = _requests(6)
        clean = BatchEngine(EngineConfig(jobs=2)).run_batch(requests)

        path = str(tmp_path / "batch.journal")
        journal = BatchJournal(path)
        stop = ShutdownRequested()
        stop.request("SIGINT")  # already set: stops before any dispatch
        try:
            with pytest.raises(BatchInterrupted):
                BatchEngine(EngineConfig(jobs=2)).run_batch(
                    requests, journal=journal, stop_event=stop
                )
        finally:
            journal.close()

        with BatchJournal(path, resume=True) as journal:
            report = BatchEngine(EngineConfig(jobs=2)).run_batch(
                requests, journal=journal
            )
        assert _records(report) == _records(clean)

    def test_replayed_records_backfill_the_cache(self, tmp_path):
        requests = _requests(3)
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            BatchEngine(EngineConfig(jobs=1)).run_batch(
                requests, journal=journal
            )
        engine = BatchEngine(EngineConfig(jobs=1))
        with BatchJournal(path, resume=True) as journal:
            engine.run_batch(requests, journal=journal)
        # The replayed results are now cached: a journal-less rerun on the
        # same engine answers everything from memory.
        report = engine.run_batch(requests)
        assert all(entry.cached for entry in report.entries)
        assert report.computed == 0

    def test_report_renders_journal_line(self, tmp_path):
        requests = _requests(2)
        path = str(tmp_path / "batch.journal")
        with BatchJournal(path) as journal:
            report = BatchEngine(EngineConfig(jobs=1)).run_batch(
                requests, journal=journal
            )
        text = report.render_text()
        assert "journal" in text
        assert "journaled=2" in text


# ----------------------------------------------------------------------
# run_grid checkpointing
# ----------------------------------------------------------------------
class TestRunGridJournal:
    def test_run_grid_resumes_from_its_journal(self, tmp_path):
        from repro.experiments.runner import run_grid

        requests = _requests(4)
        path = str(tmp_path / "grid.journal")
        first = run_grid(requests, journal_path=path)
        # Rerunning the same harness command is the "continue" gesture:
        # the grid journal always resumes.
        second = run_grid(requests, journal_path=path)
        assert second.replayed == len(requests)
        assert _records(second) == _records(first)


# ----------------------------------------------------------------------
# Graceful shutdown guard
# ----------------------------------------------------------------------
class TestShutdownGuard:
    def test_resumable_exit_code_is_distinct(self):
        # 75 == BSD EX_TEMPFAIL; must stay distinct from the batch error
        # (1) and usage error (2) codes.
        assert RESUMABLE_EXIT_CODE == 75

    def test_first_signal_sets_the_event(self):
        before = signal.getsignal(signal.SIGINT)
        with shutdown_guard(announce=False) as stop:
            assert not stop.is_set()
            os.kill(os.getpid(), signal.SIGINT)
            assert stop.wait(timeout=5.0)
            assert stop.signal_name == "SIGINT"
        # Handlers restored no matter how the block exits.
        assert signal.getsignal(signal.SIGINT) == before

    def test_second_signal_escalates(self):
        with pytest.raises(KeyboardInterrupt):
            with shutdown_guard(announce=False) as stop:
                os.kill(os.getpid(), signal.SIGINT)
                stop.wait(timeout=5.0)
                os.kill(os.getpid(), signal.SIGINT)
                # Delivery happens between bytecodes; give it room.
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    time.sleep(0.001)
                pytest.fail("second SIGINT did not escalate")

    def test_request_records_first_signal_only(self):
        stop = ShutdownRequested()
        stop.request("SIGTERM")
        stop.request("SIGINT")
        assert stop.is_set()
        assert stop.signal_name == "SIGTERM"

    def test_degrades_off_the_main_thread(self):
        results = {}

        def worker():
            with shutdown_guard(announce=False) as stop:
                results["is_set"] = stop.is_set()
                stop.request("host")
                results["after"] = stop.is_set()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10.0)
        assert results == {"is_set": False, "after": True}
