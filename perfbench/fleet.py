"""Process control for the benchmark: the served fleet and RSS sampling.

The fleet is always a fresh ``repro serve --shards 2`` subprocess, booted
before the benchmark process computes anything, so no memo cache can be
inherited warm.  The traced variant starts the same CLI through
``serve_traced.py``, which installs the span wrappers first.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SHARDS = 2
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36


def child_env(root: str) -> Dict[str, str]:
    """Environment for a child that imports the program from ``root/src``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULTS", None)
    return env


def _ppid(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            # The command name may hold spaces; fields resume after ')'.
            return int(handle.read().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError, ValueError):
        return None


def tree_pids(root: int) -> List[int]:
    """``root`` and all its live descendants."""
    parents: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            ppid = _ppid(int(name))
            if ppid is not None:
                parents.setdefault(ppid, []).append(int(name))
    found, frontier = [root], [root]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def reap_tree(pids: List[int], timeout: float = STOP_TIMEOUT) -> None:
    """Wait for every pid to end; SIGKILL whatever outlives ``timeout``.

    Those that are (adopted) children of this process are reaped too.
    """
    deadline = time.monotonic() + timeout
    while any(alive(pid) for pid in pids):
        if time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout
        time.sleep(0.01)
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:  # gone, or not ours: its parent reaps it
            pass


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux) so :func:`reap_orphans` finds them.

    A child's pool workers, or a fleet's shards, can outlive their parent;
    without this they are reparented to init and may still run after the
    benchmark has exited.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_orphans(timeout: float = STOP_TIMEOUT) -> None:
    """Wait for every descendant of this process to end, and reap it.

    Call once every child this process tracks has been waited for:
    whatever is left is an adopted orphan, SIGKILLed after ``timeout``.
    """
    while True:
        pids = tree_pids(os.getpid())[1:]
        if not pids:
            return
        reap_tree(pids, timeout)


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class RssSampler:
    """Peak of the summed RSS of a process tree, sampled every 200 ms."""

    def __init__(self, root: int, interval: float = 0.2):
        self.root = root
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def sample(self) -> None:
        total = sum(_rss_kb(pid) for pid in tree_pids(self.root))
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def stop(self) -> float:
        """Stop sampling; returns the peak in MB."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.sample()
        return self.peak_kb / 1024.0


class Fleet:
    """One ``repro serve --shards 2`` process tree on an ephemeral port."""

    def __init__(
        self,
        root: str,
        workdir: str,
        journal: bool = False,
        trace_dir: Optional[str] = None,
    ):
        self.root = root
        self.workdir = workdir
        self.journal = journal
        self.trace_dir = trace_dir
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_seconds = 0.0
        self._log = None

    def command(self) -> List[str]:
        args = ["serve", "--shards", str(SHARDS), "--port", "0",
                "--host", "127.0.0.1"]
        if self.journal:
            args += ["--journal", os.path.join(self.workdir, "journal.jsonl")]
        if self.trace_dir is None:
            return [sys.executable, "-m", "repro"] + args
        return [sys.executable, os.path.join(HERE, "serve_traced.py"),
                self.trace_dir] + args

    def start(self) -> float:
        """Boot and wait for ``/readyz``; returns seconds from spawn to ready."""
        from repro.server.client import ReproClient

        os.makedirs(self.workdir, exist_ok=True)
        log_path = os.path.join(self.workdir, "serve.log")
        self._log = open(log_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            self.command(), cwd=self.workdir, env=child_env(self.root),
            stdin=subprocess.DEVNULL, stdout=self._log, stderr=subprocess.STDOUT,
        )
        deadline = started + BOOT_TIMEOUT
        while not self.port:
            if self.process.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"repro serve failed to boot; see {log_path}")
            with open(log_path, "r", encoding="utf-8") as handle:
                match = re.search(r"listening on http://[\d.]+:(\d+)", handle.read())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.005)
        probe = ReproClient(port=self.port, max_attempts=1, timeout=5.0)
        try:
            while not probe.ready():
                if self.process.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError(f"repro serve never became ready; see {log_path}")
                time.sleep(0.005)
        finally:
            probe.close()
        self.setup_seconds = time.perf_counter() - started
        return self.setup_seconds

    def client(self, name: str = "perfbench"):
        """A client that never retries, so a refusal or a dropped
        connection surfaces as a failed call instead of a slow success."""
        from repro.server.client import ReproClient

        return ReproClient(port=self.port, client_id=name, timeout=120.0,
                           max_attempts=1)

    def stats(self) -> dict:
        client = self.client("perfbench-stats")
        try:
            return client.stats()
        finally:
            client.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; SIGKILL the tree if it hangs."""
        process = self.process
        if process is None:
            return
        pids = tree_pids(process.pid)
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=STOP_TIMEOUT)
        reap_tree(pids[1:])
        self.process = None
        if self._log is not None:
            self._log.close()
            self._log = None
