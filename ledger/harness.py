"""Shared plumbing: run the ``repro`` CLI as a child process, query ``repro
serve`` with a closed-loop client, and summarise samples.

Every child is started with ``PYTHONPATH=<checkout>/src`` in a process group
of its own and reaped with ``os.wait4``, so its own peak RSS (including the
worker processes it reaped) is read exactly rather than through the
benchmark's cumulative ``RUSAGE_CHILDREN``.  Whatever the child leaves behind
in its group (a pool worker, a multiprocessing resource tracker) is waited
for and, past a grace period, killed: no run leaves a process running.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median  # noqa: F401 - shared with the other modules
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A CLI command that does not finish in this long is killed and counted failed.
COMMAND_TIMEOUT_S = 120.0
#: How long a finished child's leftover processes may take to exit before they are killed.
SWEEP_GRACE_S = 10.0
#: ``prctl`` option making orphaned descendants children of this process (Linux).
PR_SET_CHILD_SUBREAPER = 36


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same set/dict layouts, hence same costs, every run
    return env


def become_subreaper() -> None:
    """Adopt orphaned descendants, so that :func:`_sweep` can wait for each.

    Where ``prctl`` is unavailable, :func:`_sweep` falls back to polling the
    process group until it is empty.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def spawn(argv: Sequence[str], **options) -> subprocess.Popen:
    """Start ``argv`` as the leader of a new process group."""
    return subprocess.Popen(argv, env=child_env(), process_group=0, **options)


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _sweep(pgid: int) -> None:
    """Wait until no process of group ``pgid`` is left, killing it after a grace period."""
    killer = threading.Timer(SWEEP_GRACE_S, _signal_group, (pgid, signal.SIGKILL))
    killer.start()
    try:
        while True:
            try:
                os.waitpid(-pgid, 0)
            except ChildProcessError:
                break
        deadline = time.monotonic() + 2 * SWEEP_GRACE_S
        while _group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        killer.cancel()


def child_pids() -> List[int]:
    """Processes whose parent is this one (read from ``/proc``; empty elsewhere)."""
    me, found = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_strays() -> None:
    """Stop every process this one still has: the resource tracker a spawn
    pool started, then anything else, which is killed and reaped."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def quantile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated quantile of ``values`` (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Completed:
    """One finished CLI command."""

    argv: List[str]
    returncode: int
    wall_s: float
    maxrss_kb: int
    output: str


@dataclass
class Ledger:
    """Operations attempted and failed over one workload run.

    ``failed`` counts non-zero CLI exits, runs missing from a store and HTTP
    answers other than 200/304.  ``problems`` holds incorrect outputs (payload
    mismatches, a resume that executed runs, missed pinned expectations):
    any entry there fails the benchmark outright.
    """

    attempted: int = 0
    failed: int = 0
    peak_rss_kb: int = 0
    problems: List[str] = field(default_factory=list)

    def command(self, args: Sequence[str], workdir: Path) -> Completed:
        """Run ``python -m repro <args>`` in ``workdir``; always returns."""
        argv = [sys.executable, "-m", "repro", *args]
        log = workdir / "command.log"
        with open(log, "w+") as sink:
            started = time.perf_counter()
            proc = spawn(argv, stdout=sink, stderr=subprocess.STDOUT, cwd=workdir)
            status, usage = _reap(proc, COMMAND_TIMEOUT_S)
            wall = time.perf_counter() - started
            sink.seek(0)
            output = sink.read()
        done = Completed(argv, status, wall, usage.ru_maxrss, output)
        self.attempted += 1
        if status != 0:
            self.failed += 1
        self.peak_rss_kb = max(self.peak_rss_kb, done.maxrss_kb)
        return done


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` (its group killed after ``timeout`` s), then for the
    rest of its process group; returns (exit code, rusage).

    The wait blocks in ``os.wait4`` rather than polling, so the benchmark
    process takes no CPU away from the command it is timing.
    """
    # os.killpg, not proc.kill: Popen's methods poll, and would reap the child
    # from under the wait4 below.
    killer = threading.Timer(timeout, _signal_group, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _signal_group(proc.pid, signal.SIGKILL)
        raise
    finally:
        killer.cancel()
        _sweep(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


_EXECUTED = re.compile(r"store: (\d+) run\(s\) executed")


def runs_executed(output: str) -> Optional[int]:
    """The ``store: N run(s) executed`` count a store-backed command printed."""
    match = _EXECUTED.search(output)
    return None if match is None else int(match.group(1))


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve --quiet --port 0`` child process over one store."""

    def __init__(self, ledger: Ledger, store: Path, workdir: Path) -> None:
        self.ledger = ledger
        self.proc = spawn(
            [sys.executable, "-m", "repro", "serve", "--store", str(store), "--port", "0", "--quiet"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=workdir,
            text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"on http://([\d.]+):(\d+)", line)
        if match is None:
            self.close()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        ledger.attempted += 1

    def get(self, path: str, etag: Optional[str] = None):
        """One request on a fresh connection: (status, etag, seconds)."""
        headers = {"Connection": "close"}
        if etag is not None:
            headers["If-None-Match"] = etag
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        started = time.perf_counter()
        try:
            connection.request("GET", path, headers=headers)
            response = connection.getresponse()
            response.read()
            status, tag = response.status, response.getheader("ETag")
        except OSError:
            status, tag = 0, None
        finally:
            connection.close()
        return status, tag, time.perf_counter() - started

    def close(self) -> None:
        """Stop the server and reap it.

        SIGTERM, not SIGINT: a benchmark started in the background inherits
        SIGINT as ignored, and so would the server.  The server only reads,
        so being terminated loses nothing.
        """
        os.kill(self.proc.pid, signal.SIGTERM)
        status, usage = _reap(self.proc, 10.0)
        self.proc.stdout.close()
        self.ledger.peak_rss_kb = max(self.ledger.peak_rss_kb, usage.ru_maxrss)
        if status not in (0, -signal.SIGTERM):
            self.ledger.failed += 1

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class RequestLog:
    """Client-side latencies and outcomes of one workload's requests."""

    latencies_s: List[float] = field(default_factory=list)
    conditional: int = 0
    not_modified: int = 0


def request_mix(
    campaign_id: str, progress_name: str, system: str, case: str, total_runs: int, count: int
):
    """The fixed request mix: ``count`` (route, path, conditional) triples.

    One cycle is ten requests: ``/runs`` pages with ``limit``/``offset`` (one
    filtered by ``system``), ``/campaigns/<latest>``, ``/table1?case=<case>``,
    ``/metrics`` and ``/progress/<name>``, three of them conditional GETs that
    repeat an earlier path with its last ETag.
    """
    pages = max(1, total_runs // 20)
    mix = []
    for index in range(count):
        cycle, slot = divmod(index, 10)
        offset = (cycle % pages) * 20
        paths = [
            ("runs", f"/runs?limit=20&offset={offset}", False),
            ("runs", f"/runs?limit=50&offset={offset}&system={system}", False),
            ("campaigns", f"/campaigns/{campaign_id}", False),
            ("table1", f"/table1?case={case}", False),
            ("metrics", "/metrics", False),
            ("progress", f"/progress/{progress_name}", False),
            ("runs", f"/runs?limit=20&offset={offset}", True),
            ("campaigns", f"/campaigns/{campaign_id}", True),
            ("table1", f"/table1?case={case}", True),
            ("runs", "/runs?limit=20&offset=0", False),
        ]
        mix.append(paths[slot])
    return mix


def serve_batch(server: Server, log: RequestLog, mix) -> None:
    """Send ``mix`` from one closed-loop client; each request waits for the last."""
    etags: Dict[str, str] = {}
    ledger = server.ledger
    for _, path, conditional in mix:
        etag = etags.get(path) if conditional else None
        status, tag, seconds = server.get(path, etag)
        ledger.attempted += 1
        if status not in (200, 304):
            ledger.failed += 1
            continue
        if tag is not None:
            etags[path] = tag
        if etag is not None:
            log.conditional += 1
            log.not_modified += status == 304
        log.latencies_s.append(seconds)
