"""Shared plumbing: checkout layout, process hygiene, statistics.

Every process of the system under test is started here, in its own
session, and stopped with SIGINT.  After a process (or its session
leader) exits, the session is scanned through ``/proc``; anything
still alive in it is a leaked process, which fails the run.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: The checkout root: this file lives in ``<root>/perfbench/``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
BENCH_DIR = ROOT / "perfbench"
#: Scratch space for caches, logs and traces (git-ignored).
WORK = ROOT / ".perfbench_work"

#: Grace period for a session's other processes after its leader
#: exits (pool workers shut down after the replica's event loop).
_SESSION_GRACE_S = 5.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad input)."""


def require_checkout() -> None:
    """Fail unless the program's sources and golden corpus exist."""
    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC / "repro" / "__init__.py", GOLDEN_DIR)
        if not path.exists()
    ]
    if missing:
        raise BenchError(
            "not a checkout of the program: missing "
            + ", ".join(missing)
        )


def build() -> None:
    """Byte-compile the sources, as an installed package would be, so
    no measured process pays for compiling them."""
    result = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        capture_output=True, text=True,
    )
    if result.returncode != 0:
        raise BenchError(f"compileall failed: {result.stdout[-800:]}")


def system_env(**extra: str) -> Dict[str, str]:
    """Environment for a system process: sources from this checkout,
    no ambient ``REPRO_*`` knob (a stray budget would change bytes)."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra)
    return env


def repro_argv(args: Sequence[str], trace_dir: Optional[Path] = None
               ) -> List[str]:
    """argv running ``python -m repro <args>``, or the traced
    launcher when ``trace_dir`` is given."""
    if trace_dir is None:
        return [sys.executable, "-m", "repro", *args]
    return [
        sys.executable, str(BENCH_DIR / "launch.py"),
        str(trace_dir), "--", *args,
    ]


def fresh_dir(name: str) -> Path:
    """An empty directory under the work area."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
def session_members(sid: int) -> List[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesized command name: state is
        # field 3, session field 6 (1-based, see proc(5)).
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry.name))
    return members


class Hygiene:
    """Collects leaked-process findings across a run."""

    def __init__(self) -> None:
        self.leaks: List[str] = []

    def settle(self, sid: int, label: str) -> None:
        """Wait for session ``sid`` to empty; kill and record
        anything that outlives the grace period."""
        deadline = time.monotonic() + _SESSION_GRACE_S
        members = session_members(sid)
        while members and time.monotonic() < deadline:
            time.sleep(0.05)
            members = session_members(sid)
        if not members:
            return
        self.leaks.append(f"{label}: pids {members} outlived it")
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def run_once(argv: Sequence[str], env: Dict[str, str],
             hygiene: Hygiene, label: str, timeout: float = 120.0
             ) -> Tuple[subprocess.CompletedProcess, float]:
    """Run one short-lived system process in its own session;
    returns its result and wall time (spawn to exit) in seconds."""
    started = time.perf_counter()
    process = subprocess.Popen(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        out, err = process.communicate()
        err += f"\n[perfbench] killed after {timeout}s"
    elapsed = time.perf_counter() - started
    hygiene.settle(process.pid, label)
    return subprocess.CompletedProcess(
        list(argv), process.returncode, out, err
    ), elapsed


class Replica:
    """One ``repro serve --port 0`` process in its own session.

    Its stdout and stderr go to ``log``; the ready line
    (``SERVING <host> <port>``) is read back from there.
    """

    def __init__(self, argv: Sequence[str], env: Dict[str, str],
                 log: Path) -> None:
        self.log = log
        with open(log, "w") as sink:
            self.process = subprocess.Popen(
                argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=sink, stderr=sink, start_new_session=True,
            )
        self.port = 0
        self.stopped = False

    def wait_ready(self, timeout: float = 60.0) -> int:
        """Block until the ready line appears; returns the port."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log.read_text().splitlines():
                if line.startswith("SERVING "):
                    self.port = int(line.split()[2])
                    return self.port
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError(
            f"replica never printed SERVING (exit "
            f"{self.process.poll()}); log {self.log}"
        )

    def stop(self, hygiene: Hygiene, label: str) -> None:
        """SIGINT the replica, wait for it, then check its session
        (idempotent)."""
        if self.stopped:
            return
        self.stopped = True
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            hygiene.leaks.append(f"{label}: ignored SIGINT for 10s")
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait()
        hygiene.settle(self.process.pid, label)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: The calibration probe: a fresh interpreter that imports the
#: program's third-party dependency and its heaviest standard-library
#: modules, then runs a fixed loop.  It runs none of the program's
#: code, so a change to the program cannot move it; only the host can.
PROBE_CODE = (
    "import argparse, dataclasses, inspect, json, pickle, numpy\n"
    "x = 0\n"
    "for i in range(100000):\n"
    "    x += i * i\n"
)
#: Probe wall time (ms) at the reference host speed: about the median
#: one-wide probe on the 2-CPU VM the benchmark was tuned on.
#: Normalized times are what the program would take at that speed.
PROBE_REF_MS = 200.0
#: Probes whose median gives the host speed at one moment.
PROBE_NEAREST = 6
#: The in-process probe, for timed work that runs inside long-lived
#: processes (a serve phase), where a fresh interpreter would measure
#: the wrong thing: a helper that times a fixed loop four times a
#: second alongside the work, taking about 1 % of one CPU.  Each line
#: it prints is one probe: midpoint (perf_counter s, a system-wide
#: clock), loop ms.
TICK_CODE = (
    "import time\n"
    "while True:\n"
    "    started = time.perf_counter()\n"
    "    x = 0\n"
    "    for i in range(20000):\n"
    "        x += i * i\n"
    "    done = time.perf_counter()\n"
    "    print((started + done) / 2, (done - started) * 1e3, flush=True)\n"
    "    time.sleep(0.25)\n"
)
#: Tick loop time (ms) at the reference host speed.
TICK_REF_MS = 3.0
#: Ticks whose median gives the host speed at one moment (~6 s).
TICK_NEAREST = 24


class Speed:
    """Host speed through a run, from calibration probes run between
    the measured operations.

    The VM the benchmark runs on changes speed by up to a third over
    tens of seconds, for every kind of work alike: interpreter start,
    imports and pure-Python loops.  A sample is normalized by the
    median of the probes nearest to it in time, which cancels that
    drift, while the probe itself stays fixed across code versions.

    A probe runs ``width`` copies of the probe program at once and
    takes until the last one ends.  The width matches how many CPUs
    the measured work keeps busy: a two-worker sweep slows down with
    the host's second CPU, which a one-wide probe does not see.
    """

    def __init__(self, width: int = 1, ref_ms: float = PROBE_REF_MS,
                 nearest: int = PROBE_NEAREST) -> None:
        self.width = width
        self.ref_ms = ref_ms
        self.nearest = nearest
        #: (midpoint perf_counter s, wall ms) per probe.
        self.probes: List[Tuple[float, float]] = []

    @classmethod
    def ticks(cls) -> "Speed":
        """A host speed measured by ``ticking``."""
        return cls(1, TICK_REF_MS, TICK_NEAREST)

    @contextlib.contextmanager
    def ticking(self, hygiene: "Hygiene") -> Iterator[None]:
        """Run the tick helper for the duration of the block."""
        helper = subprocess.Popen(
            [sys.executable, "-c", TICK_CODE], env=system_env(),
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True)
        try:
            yield
        finally:
            helper.send_signal(signal.SIGINT)
            out, _ = helper.communicate()
            hygiene.settle(helper.pid, "ticks")
        for line in out.splitlines():
            at, ms = line.split()
            self.probes.append((float(at), float(ms)))

    def probe(self, hygiene: "Hygiene", count: int = 1) -> None:
        for _ in range(count):
            started = time.perf_counter()
            processes = [
                subprocess.Popen(
                    [sys.executable, "-c", PROBE_CODE], env=system_env(),
                    cwd=ROOT, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=True,
                    start_new_session=True)
                for _ in range(self.width)
            ]
            errors = [process.communicate()[1] for process in processes]
            elapsed = time.perf_counter() - started
            for process in processes:
                hygiene.settle(process.pid, "probe")
            for process, error in zip(processes, errors):
                if process.returncode != 0:
                    raise BenchError(f"probe failed: {error[-400:]}")
            self.probes.append((started + elapsed / 2, elapsed * 1e3))

    def factor(self, at: float) -> float:
        """Reference speed / host speed around time ``at``."""
        if not self.probes:
            raise BenchError("no calibration probe ran")
        nearest = sorted(self.probes,
                         key=lambda probe: abs(probe[0] - at))
        return self.ref_ms / median(
            [ms for _, ms in nearest[:self.nearest]])

    def normalize(self, samples: Sequence[Tuple[float, float]]
                  ) -> List[float]:
        """``[(time, value)]`` -> values at the reference speed."""
        return [value * self.factor(at) for at, value in samples]


def peak_child_rss_mb() -> float:
    """Peak RSS of the largest reaped descendant, in MB."""
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def stamp() -> Dict[str, object]:
    """Provenance of a result: host, interpreter and code identity."""
    numpy_version, salt = subprocess.run(
        [sys.executable, "-c",
         "import numpy; from repro.runner.cache import code_salt; "
         "print(numpy.__version__, code_salt())"],
        capture_output=True, text=True, env=system_env(), cwd=ROOT,
    ).stdout.split()
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        ).stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "code_salt": salt,
        "commit": commit,
    }
