"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_optimize_args(self):
        args = build_parser().parse_args(["optimize", "64", "32", "48"])
        assert (args.m, args.k, args.l) == (64, 32, 48)
        assert args.buffer_kb == 512

    def test_buffer_override(self):
        args = build_parser().parse_args(
            ["optimize", "64", "32", "48", "--buffer-kb", "64"]
        )
        assert args.buffer_kb == 64

    def test_unknown_command(self):
        # "bench" and "selfcheck --skip-chaos" were removed.
        for argv in (["bogus"], ["bench"], ["selfcheck", "--skip-chaos"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestCommands:
    def test_optimize(self, capsys):
        assert main(["optimize", "1024", "768", "768"]) == 0
        out = capsys.readouterr().out
        assert "Two-NRA" in out

    def test_fuse(self, capsys):
        assert main(["fuse", "64", "32", "48", "40", "--buffer-kb", "8"]) == 0
        out = capsys.readouterr().out
        assert "profitable" in out

    def test_fuse_with_cross(self, capsys):
        assert main(["fuse", "64", "32", "48", "40", "--cross"]) == 0

    def test_plan(self, capsys):
        assert main(["plan", "Blenderbot", "--buffer-kb", "256"]) == 0
        out = capsys.readouterr().out
        assert "fused[" in out

    def test_plan_unknown_model(self):
        with pytest.raises(KeyError):
            main(["plan", "NotAModel"])

    def test_compare(self, capsys):
        assert main(["compare", "Blenderbot"]) == 0
        out = capsys.readouterr().out
        assert "FuseCU" in out and "speedup" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out and "Table III" in out

    def test_fig12(self, capsys):
        assert main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out


class TestPlanOptions:
    def test_max_group_reaches_the_chain_planner(self, capsys):
        assert main(["plan", "Blenderbot", "--buffer-kb", "256"]) == 0
        grouped = capsys.readouterr().out
        assert main(
            ["plan", "Blenderbot", "--buffer-kb", "256", "--max-group", "1"]
        ) == 0
        single = capsys.readouterr().out
        assert "fused[" in grouped
        assert "fused[" not in single

    def test_json_prints_the_graph_plan_record(self, capsys):
        from repro.service import execute_request, graph_plan_request

        assert main(
            ["plan", "Blenderbot", "--buffer-kb", "256", "--max-group", "2",
             "--json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == execute_request(
            graph_plan_request("Blenderbot", 256 * 1024, max_group=2)
        )

    @pytest.mark.parametrize(
        "flags",
        [
            ["--baseline", "enumerative"],
            ["--budget", "4096"],
            ["--budget", "0"],
            ["--no-retention"],
            ["--certify"],
            ["--paranoid"],
            ["--json", "--certify", "--baseline", "enumerative"],
        ],
    )
    def test_scenario_only_flags_need_a_scenario(self, flags, capsys):
        assert main(["plan", "Blenderbot", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--scenario" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scenario", "attention", "--buffer", "0"],
            ["--scenario", "attention", "--buffer-kb", "0"],
            ["Blenderbot", "--buffer", "0"],
        ],
    )
    def test_non_positive_buffer_exits_2(self, argv, capsys):
        assert main(["plan", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "plan: buffer size must be positive\n"


class TestMissingRequestFile:
    @pytest.mark.parametrize("command", ["batch", "call"])
    def test_missing_file_exits_2_with_one_line(
        self, command, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing.jsonl")
        # Port 9 (discard) is never contacted: the file is opened first.
        argv = [command, missing]
        if command == "call":
            argv += ["--url", "http://127.0.0.1:9"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{command}: cannot read {missing}: No such file or directory\n"
        )

    def test_batch_opens_the_file_before_the_journal(self, tmp_path):
        journal = tmp_path / "batch.journal"
        argv = ["batch", str(tmp_path / "missing.jsonl"), "--journal",
                str(journal)]
        assert main(argv) == 2
        assert not journal.exists()
