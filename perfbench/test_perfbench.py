"""The benchmark's own tests.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import re
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import probes  # noqa: E402
import workloads as wl  # noqa: E402
from fleet import Fleet, become_subreaper, child_env, reap_orphans, tree_pids  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _streams(seed):
    stream = wl.sweep_stream(seed)
    return json.dumps({
        "sweep": [next(stream) for _ in range(200)],
        "hot": wl.hot_pool(seed),
        "hot_seq": [wl.hot_sequence(seed, c, 500) for c in range(wl.CONNECTIONS)],
        "mixed": [(c.due, c.payloads, c.batch) for c in wl.mixed_calls(seed, 25)],
    }, sort_keys=True)


def test_same_seed_gives_byte_identical_streams():
    assert _streams(7) == _streams(7)
    assert _streams(7) != _streams(8)


def test_mixed_timeline_is_shared_and_keys_are_seeded():
    one, two = wl.mixed_calls(1, 25), wl.mixed_calls(2, 25)
    assert [(c.due, c.batch, len(c.payloads)) for c in one] == [
        (c.due, c.batch, len(c.payloads)) for c in two]
    assert [c.payloads for c in one] != [c.payloads for c in two]
    # A shorter window (a traced half window) sends a prefix of the calls.
    half = wl.mixed_calls(1, 12.5)
    assert [c.payloads for c in half] == [c.payloads for c in one[: len(half)]]


def test_sweep_cold_keys_are_unique():
    from repro.service import parse_request, request_key

    stream = wl.sweep_stream(3)
    keys = [request_key(parse_request(next(stream))) for _ in range(1000)]
    assert len(set(keys)) == len(keys)


def test_kind_mix_within_tolerance():
    stream = wl.sweep_stream(5)
    kinds = Counter(next(stream)["kind"] for _ in range(1000))
    for kind, share in (("intra", 0.60), ("sweep_point", 0.25), ("fusion", 0.15)):
        assert abs(kinds[kind] / 1000 - share) < 0.02

    calls = wl.mixed_calls(5, 25)
    pool = {wl.payload_id(p) for p in wl.mixed_repeat_pool(5)}
    requests = [p for call in calls for p in call.payloads]
    repeats = sum(1 for p in requests if wl.payload_id(p) in pool)
    assert 0.45 <= repeats / len(requests) <= 0.62
    assert 0.07 <= sum(c.batch for c in calls) / len(calls) <= 0.13
    fresh = [p for p in requests if wl.payload_id(p) not in pool]
    assert {p["kind"] for p in fresh} == {kind for kind, _ in wl.MIXED_HEAVY} | set(wl.MIXED_BATCH_KINDS)
    assert {p["baseline"] for p in fresh if p["kind"] == "dag_plan"} == {False, True}
    assert len({wl.payload_id(p) for p in fresh}) == len(fresh)


def test_mixed_offered_rate_is_exact():
    calls = wl.mixed_calls(9, 25)
    assert len(calls) == round(wl.MIXED_RATE * 25)
    assert all(0 <= c.due <= 25 for c in calls)


def test_metric_names_and_units_are_well_formed():
    bench = _bench()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    units = [m["unit"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", unit) for unit in units)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(wl.WORKLOADS)


def test_workload_descriptions_state_the_fixed_rate_and_limit():
    why = {w["name"]: w["why"] for w in _bench()["workloads"]}
    mixed = wl.WORKLOADS["served-mixed"]
    assert f"{wl.MIXED_RATE:g} calls/s" in why["served-mixed"]
    assert f"SLO {mixed.slo_ms:g} ms" in why["served-mixed"]


def test_record_digest_ignores_batch_position():
    record = {"index": 3, "key": "k", "kind": "intra", "ok": True, "result": {"x": 1}}
    assert checks.record_digest(record) == checks.record_digest(dict(record, index=0))


def test_reap_orphans_stops_adopted_grandchildren():
    become_subreaper()
    # The child exits at once, orphaning a long sleeper.
    subprocess.run([sys.executable, "-c", "import subprocess, sys; subprocess.Popen("
                    "[sys.executable, '-c', 'import time; time.sleep(120)'])"], check=True)
    assert len(tree_pids(os.getpid())) > 1
    reap_orphans(timeout=0.5)
    assert tree_pids(os.getpid()) == [os.getpid()]


def test_ipc_probe_leaves_no_process_behind():
    records = [{"index": 0, "key": "k", "kind": "intra", "ok": True, "result": {"x": 1}}]
    assert probes.ipc_fit(records, rounds=3)["roundtrip_us"] > 0
    assert tree_pids(os.getpid()) == [os.getpid()]


def test_untraced_fleet_runs_the_plain_cli():
    fleet = Fleet(ROOT, "/nonexistent")
    assert fleet.command()[1:3] == ["-m", "repro"]
    assert not any("serve_traced" in part for part in fleet.command())


def _sweep_child(tmp_path, count, traced):
    stream = wl.sweep_stream(11)
    requests = tmp_path / "requests.jsonl"
    requests.write_text("".join(json.dumps(next(stream)) + "\n" for _ in range(count)))
    out = tmp_path / "out.json"
    spans = tmp_path / "spans"
    spans.mkdir()
    argv = [sys.executable, os.path.join(HERE, "sweep_child.py"), str(requests), str(out), "600"]
    subprocess.run(argv + ([str(spans)] if traced else []), check=True, env=child_env(ROOT),
                   stdout=subprocess.DEVNULL, timeout=300)
    return json.loads(out.read_text()), list(spans.iterdir())


def test_untraced_run_installs_no_wrappers(tmp_path):
    out, spans = _sweep_child(tmp_path, 4, traced=False)
    assert out["batches"] and all(b["wrapped"] == [] for b in out["batches"])
    assert spans == []
    assert not any(out["memo_at_start"].values())


def test_traced_run_wraps_only_its_traced_batches(tmp_path):
    out, spans = _sweep_child(tmp_path, wl.SWEEP_BATCH + 2, traced=True)
    untraced, traced = out["batches"]
    assert untraced["wrapped"] == [] and not untraced["traced"]
    assert traced["traced"] and "service.workers.execute" in traced["wrapped"]
    assert spans


def test_golden_check_fails_when_pinned_requests_go_unchecked():
    payload = checks.golden_payloads("sweep-cold", 1)[0]
    record = {"index": 0, "key": "not-a-pinned-key", "kind": payload["kind"], "ok": True}
    checked, failures = checks.compare_golden("sweep-cold", 1, [(payload, record)])
    assert checked == 1 and failures
    checked, failures = checks.compare_golden("sweep-cold", 1, [])
    assert checked == 0 and failures
    assert checks.compare_golden("sweep-cold", 99, []) == (0, [])
