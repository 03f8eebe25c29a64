"""Tests for the command-line interface."""

import argparse
import gc
import json
import warnings
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: Every command's option strings and defaults, as pinned in the data file.
OPTION_TABLE = Path(__file__).parent / "data" / "cli_options.json"


def option_table(parser):
    """``{command: {"--flag": default}}``; positionals appear by name."""

    def options(command):
        return {
            "/".join(action.option_strings) or action.dest: action.default
            for action in command._actions
            if not isinstance(
                action, (argparse._HelpAction, argparse._SubParsersAction)
            )
        }

    subcommands = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    table = {"repro": options(parser)}
    table.update(
        (name, options(command))
        for name, command in subcommands.choices.items()
    )
    return table


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

    def test_options_and_defaults_are_pinned(self):
        # Shared flags are declared once; no option may appear, vanish or
        # change its default in doing so.
        expected = json.loads(OPTION_TABLE.read_text(encoding="utf-8"))
        assert option_table(build_parser()) == expected

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

    def test_plan_unknown_model(self, capsys):
        for argv in (["plan", "Nope"], ["plan", "Nope", "--json"],
                     ["compare", "Nope"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"{argv[0]}: unknown model 'Nope'; choose from Bert, GPT-2, "
                "Blenderbot, XLM, DeBERTa-v2, LLaMA2, ALBERT\n"
            )

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
            ["--scenario", "attention", "--buffer", "1"],
            ["BERT", "--buffer", "1"],
            ["BERT", "--buffer", "1", "--json"],
        ],
    )
    def test_non_positive_buffer_exits_2(self, argv, capsys):
        """A buffer of 0 is invalid; one of 1 element fits no plan."""
        assert main(["plan", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if "0" in argv:
            assert captured.err == "plan: buffer size must be positive\n"
        else:
            first_op = "plan-small.q_proj" if "--scenario" in argv else "Bert.q_proj"
            assert captured.err == (
                f"plan: no feasible plan for chain starting at {first_op!r} "
                "with buffer 1\n"
            )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["BERT", "--max-group", "0"],
             "max_group must be at least 1, got 0"),
            (["BERT", "--max-group", "-1", "--json"],
             "graph_plan request: param 'max_group' must be at least 1, got -1"),
            (["--scenario", "attention", "--buffer", "4096", "--max-group", "0"],
             "dag_plan request: param 'max_group' must be at least 1, got 0"),
        ],
        ids=["model", "model-json", "scenario"],
    )
    def test_max_group_below_one_exits_2(self, argv, message, capsys):
        assert main(["plan", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"plan: {message}\n"


SHAPE = "has invalid shape {}; all extents must be positive integers"


class TestOneShotBadInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            ("optimize 0 4 4", "tensor 'mm.A' " + SHAPE.format("(0, 4)")),
            ("optimize 4 4 4 --buffer-kb 0", "buffer size must be positive"),
            ("fuse 4 4 0 4", "tensor 'mm1.B' " + SHAPE.format("(4, 0)")),
            ("fuse 4 4 4 4 --buffer-kb -1", "buffer size must be positive"),
            ("explain 4 4 4 --buffer-kb 0", "buffer size must be positive"),
            ("explain 4 4 4 --consumer-n 0",
             "tensor 'mm2.B' " + SHAPE.format("(4, 0)")),
            ("certify 4 4 4 --buffer-elems 0", "buffer size must be positive"),
            ("certify 64 64 64 --buffer-elems 2",
             "no dataflow for 'mm1' fits a buffer of 2 elements"),
            ("certify 64 64 64 --buffer-elems 3 --consumer-n 64",
             "no fused dataflow fits 3 elements"),
            ("certify 4 4 4 --consumer-n 0",
             "tensor 'mm2.B' " + SHAPE.format("(4, 0)")),
            ("compare Bert --buffer-kb 0", "buffer_bytes must be positive"),
        ],
    )
    def test_exits_2_with_one_line_before_any_output(
        self, argv, message, capsys
    ):
        argv = argv.split()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{argv[0]}: {message}\n"


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
        # An output path that cannot be written fails the same way, before
        # any request is sent or computed.
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"kind": "intra"}\n', encoding="utf-8")
        argv[1] = str(requests)
        unwritable = str(tmp_path / "missing" / "out.jsonl")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--output", unwritable]) == 2
            gc.collect()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{command}: cannot write {unwritable}: No such file or directory\n"
        )
        # The request file it had opened is closed, not leaked.
        assert not [w for w in caught if w.category is ResourceWarning]

    def test_batch_opens_the_file_before_the_journal(self, tmp_path):
        journal = tmp_path / "batch.journal"
        argv = ["batch", str(tmp_path / "missing.jsonl"), "--journal",
                str(journal)]
        assert main(argv) == 2
        assert not journal.exists()
