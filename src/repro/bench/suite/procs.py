"""Child processes: hermetic environment, timing, peak memory, cleanup.

Every program the benchmark measures runs as its own process, started
from the checkout's ``src/`` with no inherited ``REPRO_*`` knobs, its
temporary files inside the run's work directory, and reaped with
``os.wait4`` so its peak RSS (and that of the children it reaped, such
as pool workers) is known.
"""

from __future__ import annotations

import os
import selectors
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ...errors import BenchError
from ..clock import now

# The suite lives at <root>/src/repro/bench/suite.
SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(SUITE_DIR))))

# Files the benchmark needs from the checkout besides its own.
REQUIRED_SOURCES = (
    "src/repro/__init__.py",
    "src/repro/experiments/__main__.py",
    "src/repro/service/server.py",
    "src/repro/service/http.py",
)

PROCESS_TIMEOUT_S = 120.0


def check_tree() -> None:
    """Refuse to run outside a full checkout of the program."""
    missing = [p for p in REQUIRED_SOURCES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise BenchError(
            f"{ROOT} is not a checkout of the program: missing {missing}"
        )


class Workspace:
    """The run's scratch directory inside the checkout; removed at close."""

    def __init__(self, name: str):
        self.path = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        self._serial = 0

    def fresh(self, stem: str) -> str:
        """A new empty subdirectory."""
        self._serial += 1
        path = os.path.join(self.path, f"{stem}-{self._serial}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def child_env(workdir: str, extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The environment every measured process gets."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = workdir
    # Output reaches the pipe as it is printed, so the first result's
    # arrival can be timed.
    env["PYTHONUNBUFFERED"] = "1"
    env.update(extra or {})
    return env


@dataclass
class Finished:
    returncode: int
    stdout: bytes
    wall_s: float
    first_output_s: Optional[float]  # spawn -> first stdout byte
    maxrss_mb: float
    pid: int


def _reap(pid: int, deadline: float) -> tuple:
    """``os.wait4`` with a deadline; SIGKILL once it passes."""
    while True:
        wpid, status, usage = os.wait4(pid, os.WNOHANG)
        if wpid == pid:
            return status, usage
        if now() > deadline:
            os.kill(pid, signal.SIGKILL)
            _wpid, status, usage = os.wait4(pid, 0)
            return status, usage
        time.sleep(0.005)


def run(argv: List[str], env: Dict[str, str], stderr_path: str,
        timeout: float = PROCESS_TIMEOUT_S) -> Finished:
    """Run one process to completion, timing it from spawn to reap."""
    with open(stderr_path, "ab") as err:
        spawned = now()
        proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err,
        )
    deadline = spawned + timeout
    chunks: List[bytes] = []
    first: Optional[float] = None
    fd = proc.stdout.fileno()
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                remaining = deadline - now()
                if remaining <= 0:
                    break
                if not sel.select(remaining):
                    continue
                data = os.read(fd, 1 << 16)
                if not data:
                    break
                if first is None:
                    first = now()
                chunks.append(data)
    except BaseException:
        # Interrupted (e.g. the run was told to stop): leave no child.
        _reap(proc.pid, now())
        raise
    finally:
        proc.stdout.close()
    status, usage = _reap(proc.pid, deadline)
    end = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if end > deadline:
        raise BenchError(f"{argv} ran past its {timeout:.0f}s limit")
    return Finished(
        returncode=proc.returncode,
        stdout=b"".join(chunks),
        wall_s=end - spawned,
        first_output_s=None if first is None else first - spawned,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        pid=proc.pid,
    )


class Server:
    """The bench-owned plan server (``repro.bench.suite.server``)."""

    def __init__(self, state_dir: str, env: Dict[str, str], stderr_path: str,
                 spans_dir: Optional[str] = None):
        self.state_dir = state_dir
        self.env = env
        self.stderr_path = stderr_path
        self.spans_dir = spans_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.maxrss_mb = 0.0

    def start(self, timeout: float = PROCESS_TIMEOUT_S) -> float:
        """Spawn and wait for READY; returns spawn -> ready seconds."""
        argv = [sys.executable, "-m", "repro.bench.suite.server", "--state", self.state_dir]
        if self.spans_dir:
            argv += ["--spans", self.spans_dir]
        with open(self.stderr_path, "ab") as err:
            spawned = now()
            self.proc = subprocess.Popen(
                argv, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err,
            )
        line = self._read_line(spawned + timeout)
        ready = now()
        parts = line.split()
        if len(parts) != 2 or parts[0] != "READY":
            self.kill()
            raise BenchError(
                f"plan server did not come up (said {line!r}); see {self.stderr_path}"
            )
        self.port = int(parts[1])
        return ready - spawned

    def _read_line(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in buf:
                remaining = deadline - now()
                if remaining <= 0:
                    break
                if not sel.select(remaining):
                    continue
                data = os.read(fd, 4096)
                if not data:
                    break
                buf += data
        return buf.decode("utf-8", "replace").strip()

    def kill(self) -> None:
        """SIGKILL, as a crash would."""
        self._end(signal.SIGKILL, grace=0.0)

    def stop(self) -> None:
        """SIGTERM: the server drains and exits."""
        self._end(signal.SIGTERM, grace=30.0)

    def _end(self, sig: int, grace: float) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            os.kill(proc.pid, sig)
        except ProcessLookupError:
            pass
        status, usage = _reap(proc.pid, now() + grace)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        self.maxrss_mb = max(self.maxrss_mb, usage.ru_maxrss / 1024.0)
