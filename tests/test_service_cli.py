"""End-to-end tests: ``repro batch`` CLI and the engine-routed harnesses."""

import gc
import json
import warnings

import pytest

from repro.cli import main
from repro.core import optimize_intra
from repro.experiments import run_grid, run_sweep_grid, sweep_grid_requests
from repro.ir import matmul
from repro.service import BatchEngine, EngineConfig, intra_request


def _write_requests(path, count=12):
    """A JSON-lines request file with duplicates and one poisoned line."""
    lines = []
    shapes = [(64, 32, 48), (96, 64, 80), (32, 32, 32)]
    for index in range(count):
        m, k, l = shapes[index % len(shapes)]
        buffer_elems = 1024 * (1 + index % 2)
        lines.append(
            json.dumps(
                {"kind": "intra", "m": m, "k": k, "l": l,
                 "buffer_elems": buffer_elems}
            )
        )
    lines.append(
        json.dumps({"kind": "graph_plan", "model": "NotAModel",
                    "buffer_elems": 1024})
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


class TestBatchCommand:
    def test_jobs_invariant_output(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        total = _write_requests(requests)
        assert main(["batch", str(requests), "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["batch", str(requests), "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert len(serial.strip().splitlines()) == total

    def test_output_file_and_stats(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        _write_requests(requests)
        output = tmp_path / "results.jsonl"
        assert (
            main(["batch", str(requests), "--output", str(output), "--stats"])
            == 0
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "batch summary" in captured.err
        assert "hit_rate" in captured.err
        records = [
            json.loads(line)
            for line in output.read_text(encoding="utf-8").splitlines()
        ]
        assert [r["index"] for r in records] == list(range(len(records)))
        assert sum(1 for r in records if not r["ok"]) == 1

    def test_warm_cache_file_hit_rate(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        _write_requests(requests)
        cache_file = tmp_path / "cache.json"
        main(["batch", str(requests), "--cache-file", str(cache_file),
              "--stats"])
        cold = capsys.readouterr()
        assert cache_file.exists()
        main(["batch", str(requests), "--cache-file", str(cache_file),
              "--stats"])
        warm = capsys.readouterr()
        assert warm.out == cold.out  # byte-identical results either way
        # Everything (including the deterministic error) answers from the
        # warmed cache file.
        assert "hit_rate=100.0%" in warm.err
        assert "computed      : 0" in warm.err

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        payload = json.dumps(
            {"kind": "intra", "m": 64, "k": 32, "l": 48, "buffer_elems": 4096}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(payload + "\n"))
        assert main(["batch", "-"]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["ok"] is True
        assert record["result"]["memory_access"] > 0

    def test_corrupt_cache_file_ignored(self, tmp_path, capsys):
        from repro.server import ServerApp, ServerConfig
        from repro.service import CACHE_SCHEMA_VERSION

        request = json.dumps({"kind": "intra", "m": 64, "k": 32, "l": 48,
                              "buffer_elems": 4096})
        requests = tmp_path / "requests.jsonl"
        requests.write_text(request + "\n", encoding="utf-8")
        # Both front ends share one policy; each logs with its own prefix.
        for front_end, prefix in (("batch", "warning"),
                                  ("serve", "repro serve")):
            cache_file = tmp_path / f"{front_end}.cache.json"
            cache_file.write_text("garbage not json", encoding="utf-8")
            if front_end == "batch":
                assert main(["batch", str(requests), "--cache-file",
                             str(cache_file)]) == 0
                output, err = capsys.readouterr()
            else:
                app = ServerApp(ServerConfig(cache_file=str(cache_file)))
                try:
                    response = app.handle(
                        "POST", "/v1/analyze", {},
                        {"content-type": "application/json"},
                        request.encode("utf-8"), "test",
                    )
                finally:
                    app.close()
                assert response.status == 200
                output = response.body.decode("utf-8")
                err = capsys.readouterr().err
            assert err.count("ignoring unreadable cache file") == 1
            assert f"{prefix}: ignoring unreadable cache file" in err
            assert json.loads(output.strip())["ok"] is True
            # The save pass repairs the file for the next run.
            persisted = json.loads(cache_file.read_text(encoding="utf-8"))
            assert persisted["version"] == CACHE_SCHEMA_VERSION
            assert len(persisted["entries"]) == 1

    def test_malformed_line_isolated(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "this is not json\n"
            + json.dumps({"kind": "intra", "m": 64, "k": 32, "l": 48,
                          "buffer_elems": 4096})
            + "\n",
            encoding="utf-8",
        )
        assert main(["batch", str(requests)]) == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert [r["ok"] for r in records] == [False, True]


class TestResilienceCli:
    """``--strict``, fault injection arming, and ``repro selfcheck``."""

    @pytest.fixture(autouse=True)
    def _isolated_fault_state(self, monkeypatch):
        from repro.service import FAULTS_ENV, reset_fault_state

        # Pre-seat the variable so monkeypatch restores it even though the
        # CLI (not the test) is what overwrites it.
        monkeypatch.setenv(FAULTS_ENV, "")
        reset_fault_state()
        yield
        reset_fault_state()

    def test_strict_turns_errors_into_exit_code(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        total = _write_requests(requests)
        assert main(["batch", str(requests)]) == 0  # default: report only
        relaxed = capsys.readouterr()
        assert f"1 of {total} request(s) failed" in relaxed.err
        assert main(["batch", str(requests), "--strict"]) == 1
        strict = capsys.readouterr()
        assert strict.out == relaxed.out  # same records either way

    def test_error_count_printed_with_stats(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        total = _write_requests(requests)
        assert main(["batch", str(requests), "--stats"]) == 0
        err = capsys.readouterr().err
        assert "batch summary" in err
        assert f"1 of {total} request(s) failed" in err

    def test_inject_faults_requires_guard_env(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.service import FAULTS_GUARD_ENV

        monkeypatch.delenv(FAULTS_GUARD_ENV, raising=False)
        requests = tmp_path / "requests.jsonl"
        _write_requests(requests)
        rc = main(["batch", str(requests), "--inject-faults", "raise:*"])
        assert rc == 2
        captured = capsys.readouterr()
        assert FAULTS_GUARD_ENV in captured.err
        assert captured.out == ""  # refused before running anything

        # Bad engine settings and an unwritable output are refused the same
        # way: one stderr line, exit 2, and no request computed.
        def never_run(self, *args, **kwargs):
            raise AssertionError("the batch ran")

        monkeypatch.setattr(BatchEngine, "run_batch", never_run)
        missing = tmp_path / "missing" / "out.jsonl"
        journal = tmp_path / "existing.journal"
        journal.write_text("{}\n", encoding="utf-8")
        for flags, message in (
            (["--jobs", "0"], "error: jobs must be positive"),
            (["--cache-size", "0"], "error: cache_size must be positive"),
            (
                ["--output", str(missing)],
                f"batch: cannot write {missing}: No such file or directory",
            ),
            (
                ["--journal", str(journal)],
                f"error: journal {str(journal)!r} already exists; resume it "
                "explicitly or delete it to start over",
            ),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["batch", str(requests), *flags]) == 2
                gc.collect()
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == message + "\n"
            # No exit leaks the request file's handle.
            assert not [w for w in caught if w.category is ResourceWarning]

    def test_inject_faults_rejects_bad_spec(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.service import FAULTS_GUARD_ENV

        monkeypatch.setenv(FAULTS_GUARD_ENV, "1")
        requests = tmp_path / "requests.jsonl"
        _write_requests(requests)
        rc = main(["batch", str(requests), "--inject-faults", "explode:*"])
        assert rc == 2
        assert "bad fault spec" in capsys.readouterr().err

    def test_inject_faults_armed_and_retried(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.service import FAULTS_GUARD_ENV

        monkeypatch.setenv(FAULTS_GUARD_ENV, "1")
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"kind": "intra", "m": 64, "k": 32, "l": 48,
                        "buffer_elems": 4096}) + "\n",
            encoding="utf-8",
        )
        rc = main([
            "batch", str(requests), "--strict", "--stats",
            "--max-attempts", "2",
            "--inject-faults", "raise:intra*:times=1:category=transient",
        ])
        assert rc == 0  # the injected transient fault was retried away
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip())["ok"] is True
        assert "retries=1" in captured.err

    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        assert "selfcheck ok" in capsys.readouterr().out

    def test_selfcheck_stats(self, capsys):
        assert main(["selfcheck", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "selfcheck ok" in captured.out
        assert "batch summary" in captured.err


class TestJournalRecoveryReports:
    """Both front ends report each journal recovery once, through the journal."""

    @pytest.fixture
    def damaged(self, tmp_path, capsys):
        """A batch journal with one corrupt record and one torn tail."""
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "".join(
                json.dumps({"kind": "intra", "m": m, "k": 16, "l": 24,
                            "buffer_elems": 4096}) + "\n"
                for m in (20, 24, 28)
            ),
            encoding="utf-8",
        )
        journal = tmp_path / "batch.journal"
        assert main(["batch", str(requests), "--journal", str(journal)]) == 0
        clean = capsys.readouterr().out
        lines = journal.read_bytes().split(b"\n")
        # Flip one CRC digit of the first record: a mid-file corruption.
        pos = lines[1].index(b'"crc":"') + len(b'"crc":"')
        flip = b"0" if lines[1][pos:pos + 1] != b"0" else b"f"
        lines[1] = lines[1][:pos] + flip + lines[1][pos + 1:]
        # Half a copy of the last record, no newline: a torn tail.
        last = lines[-2]
        journal.write_bytes(b"\n".join(lines) + last[: len(last) // 2])
        return requests, journal, clean

    def test_batch_resume_reports_each_recovery_once(self, damaged, capsys):
        requests, journal, clean = damaged
        assert main(["batch", str(requests), "--journal", str(journal),
                     "--resume"]) == 0
        captured = capsys.readouterr()
        assert captured.out == clean  # recomputed, never served corrupted
        assert captured.err.count("QUARANTINED 1 corrupt journal line") == 1
        assert captured.err.count("dropped 1 torn line") == 1
        assert len(captured.err.splitlines()) == 2

    def test_server_boot_reports_the_torn_drop(self, damaged, capsys):
        from repro.server import ServerApp, ServerConfig

        _, journal, _ = damaged
        ServerApp(ServerConfig(journal_path=str(journal))).close()
        err = capsys.readouterr().err
        assert err.count("QUARANTINED 1 corrupt journal line") == 1
        assert err.count("dropped 1 torn line") == 1


class TestEngineRoutedHarnesses:
    def test_run_grid_shares_engine_cache(self):
        engine = BatchEngine(EngineConfig(jobs=2))
        requests = [intra_request(64, 32, 48, 4096),
                    intra_request(96, 64, 80, 4096)]
        run_grid(requests, engine=engine)
        warm = run_grid(requests, engine=engine)
        assert warm.computed == 0
        assert warm.cache.hit_rate == 1.0

    def test_run_sweep_grid_matches_direct(self):
        ops = [matmul("a", 96, 64, 80), matmul("b", 64, 32, 48)]
        grid = (1024, 4096)
        points = run_sweep_grid(ops, buffer_sweep_bytes=grid, jobs=2)
        assert len(points) == len(ops) * len(grid)
        for point, op in zip(points[:2], [ops[0]] * 2):
            direct = optimize_intra(op, point.buffer_bytes)
            assert point.memory_access == direct.memory_access
        assert [p.operator for p in points] == ["a", "a", "b", "b"]

    def test_run_sweep_grid_captures_infeasible(self):
        points = run_sweep_grid(
            [matmul("a", 64, 32, 48)], buffer_sweep_bytes=(1,)
        )
        assert points[0].memory_access is None
        assert points[0].error is not None

    def test_sweep_grid_requests_rejects_non_matmul(self):
        from repro.ir import TensorOperator  # noqa: F401 - import check only
        from repro.workloads import build_layer_graph, model_by_name

        graph = build_layer_graph(model_by_name("Bert"))
        softmax_like = [
            op for op in graph.topological_order()
            if set(op.dims) != {"M", "K", "L"}
        ]
        if not softmax_like:  # pragma: no cover - model always has one
            pytest.skip("no non-matmul operator in graph")
        with pytest.raises(ValueError):
            sweep_grid_requests(softmax_like[:1], (1024,))
