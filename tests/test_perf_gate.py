"""The CI throughput gate (``tools/perf_gate.py``), without running perfbench."""

import importlib.util
import os

import pytest

GATE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "tools", "perf_gate.py"
)
spec = importlib.util.spec_from_file_location("perf_gate", GATE_PATH)
perf_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_gate)


def run(rps, correct=True, failed=0):
    return {
        "correct": correct,
        "failed": failed,
        "attempted": 100,
        "metrics": {"throughput_rps": {"value": rps, "unit": "1/s"}},
    }


def test_within_the_floor_passes():
    parent = [run(200.0), run(210.0), run(190.0)]
    assert perf_gate.verdict(parent, [run(150.0)] * 3) == []
    assert perf_gate.verdict(parent, [run(400.0)] * 3) == []


def test_median_below_the_floor_fails():
    parent = [run(200.0), run(210.0), run(190.0)]
    head = [run(100.0), run(300.0), run(139.0)]  # median 139 < 0.7 * 200
    problems = perf_gate.verdict(parent, head)
    assert len(problems) == 1
    assert "139.0" in problems[0] and "200.0" in problems[0]


@pytest.mark.parametrize("side", ["parent", "head"])
@pytest.mark.parametrize(
    "bad", [run(200.0, correct=False), run(200.0, failed=1)]
)
def test_incorrect_or_failed_run_fails_either_side(side, bad):
    good = [run(200.0)] * 3
    runs = {"parent": list(good), "head": list(good)}
    runs[side][1] = bad
    problems = perf_gate.verdict(runs["parent"], runs["head"])
    assert problems == [
        f"{side} run 1: correct={bad['correct']} failed={bad['failed']}"
    ]


def test_main_alternates_sides_and_sets_the_exit_code(monkeypatch, capsys):
    calls = []
    rps = {"old": 200.0, "new": 100.0}

    def fake_run_once(checkout):
        calls.append(checkout)
        return run(rps[checkout])

    monkeypatch.setattr(perf_gate, "run_once", fake_run_once)
    assert perf_gate.main(["old", "new"]) == 1
    assert calls == ["old", "new", "new", "old", "old", "new"]
    assert "perf gate FAILED" in capsys.readouterr().out
    rps["new"] = 180.0
    monkeypatch.setattr(perf_gate, "RUNS", 2)
    assert perf_gate.main(["old", "new"]) == 0
    assert "perf gate ok" in capsys.readouterr().out
