"""CLI surface of the sharded tier.

The subprocess tests exercise the real multi-process daemon contract:
``repro serve --shards N`` boots a fleet, prints the parseable
"listening on" line plus a "shard pids" line (the CI smoke step kills
one of those pids), serves ``repro call`` byte-identically to ``repro
batch``, and drains losslessly on SIGTERM.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.request

import pytest

from repro.cli import main

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

REQUEST_LINES = [
    {"kind": "intra", "m": 64, "k": 32, "l": 48, "buffer_elems": 4096},
    {"kind": "fusion", "m": 96, "k": 64, "l": 80, "n": 72,
     "buffer_elems": 16384},
    {"kind": "sweep_point", "m": 32, "k": 32, "l": 32, "buffer_elems": 1024},
    {"kind": "intra", "m": 40, "k": 24, "l": 56, "buffer_elems": 8192},
]


def _write_requests(path):
    path.write_text(
        "\n".join(json.dumps(line) for line in REQUEST_LINES) + "\n",
        encoding="utf-8",
    )


def _clean_env(extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    if extra_env:
        env.update(extra_env)
    return env


def _spawn_sharded(tmp_path, shards, extra_args=(), extra_env=None):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--shards", str(shards),
         "--journal", str(tmp_path / "serve.journal"),
         *extra_args],
        stderr=subprocess.PIPE,
        env=_clean_env(extra_env),
        text=True,
    )
    # Shard boot progress lines ("shard-N ready ...") precede the
    # startup contract line; scan until it appears.
    seen = []
    while True:
        line = process.stderr.readline()
        assert line, f"server exited before listening: {seen}"
        seen.append(line)
        if "listening on" in line:
            break
    assert f"shards={shards}" in line, line
    url = next(
        token for token in line.split() if token.startswith("http://")
    )
    pid_line = process.stderr.readline()
    assert "shard pids" in pid_line, pid_line
    pids = [int(tok) for tok in pid_line.split("pids", 1)[1].split()]
    assert len(pids) == shards
    return process, url, pids


def _run_call(url, requests_path, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "call", str(requests_path),
         "--url", url],
        capture_output=True,
        text=True,
        env=_clean_env(),
        timeout=timeout,
    )


class TestServeSharded:
    def test_sharded_serve_is_byte_identical_to_batch(
        self, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        _write_requests(requests)
        process, url, pids = _spawn_sharded(tmp_path, 2)
        try:
            call = _run_call(url, requests)
            process.send_signal(signal.SIGTERM)
            _, serve_err = process.communicate(timeout=120)
        finally:
            process.kill()
        assert call.returncode == 0, call.stderr
        assert process.returncode == 0, serve_err
        assert "drained and stopped" in serve_err
        assert main(["batch", str(requests)]) == 0
        assert call.stdout == capsys.readouterr().out
        # The pid line advertised real, distinct worker processes.
        assert len(set(pids)) == 2
        assert os.getpid() not in pids

    def test_killed_shard_respawns_and_call_still_succeeds(self, tmp_path):
        requests = tmp_path / "requests.jsonl"
        _write_requests(requests)
        process, url, pids = _spawn_sharded(tmp_path, 3)
        try:
            warmup = _run_call(url, requests)
            os.kill(pids[0], signal.SIGKILL)
            after = _run_call(url, requests)
            process.send_signal(signal.SIGTERM)
            _, serve_err = process.communicate(timeout=120)
        finally:
            process.kill()
        assert warmup.returncode == 0, warmup.stderr
        assert after.returncode == 0, after.stderr
        assert after.stdout == warmup.stdout
        assert process.returncode == 0, serve_err

    def test_cache_file_persists_per_shard_across_restart(self, tmp_path):
        requests = tmp_path / "requests.jsonl"
        _write_requests(requests)
        cache_file = tmp_path / "tier.cache"
        cache_args = ("--cache-file", str(cache_file))
        process, url, _ = _spawn_sharded(tmp_path, 2, extra_args=cache_args)
        try:
            call = _run_call(url, requests)
            process.send_signal(signal.SIGTERM)
            _, serve_err = process.communicate(timeout=120)
        finally:
            process.kill()
        assert call.returncode == 0, call.stderr
        assert process.returncode == 0, serve_err
        assert "saved" in serve_err and "cache" in serve_err
        for index in range(2):
            assert (tmp_path / f"tier.cache.shard-{index}").exists()
        process, url, _ = _spawn_sharded(tmp_path, 2, extra_args=cache_args)
        try:
            with urllib.request.urlopen(url + "/stats", timeout=30) as reply:
                stats = json.loads(reply.read().decode("utf-8"))
            process.send_signal(signal.SIGTERM)
            _, serve_err = process.communicate(timeout=120)
        finally:
            process.kill()
        assert process.returncode == 0, serve_err
        assert stats["cache"]["size"] > 0

    def test_shards_flag_rejects_negative(self, capsys):
        assert main(["serve", "--port", "0", "--shards", "-1"]) == 2
        assert "shards" in capsys.readouterr().err
