"""Host context and process accounting read from ``/proc``.

The run header records what a number was measured on — CPU count and
model, the CPU affinity applied, interpreter and library versions, the
SQLite journal and synchronous modes, the filesystem under the scratch
store and the commit — plus a fixed reference loop timed before and after
the measured phase.  The header is diagnosis, not a metric: when the
reference loop moved as much as a metric did, the host drifted.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sqlite3
import subprocess
import sys
import time
from typing import Dict, Iterable

#: Iterations of the reference loop (about 0.1-0.2 s on a 2-vCPU VM).
REFERENCE_ITERATIONS = 200_000


def reference_loop_s() -> float:
    """Seconds for a fixed pure-Python + sha256 loop (host-speed probe)."""
    started = time.perf_counter()
    digest = b"loadbench"
    total = 0
    for index in range(REFERENCE_ITERATIONS):
        digest = hashlib.sha256(digest).digest()
        total += index * digest[0] % 7
    return time.perf_counter() - started


def cpu_model() -> str:
    """The first ``model name`` of ``/proc/cpuinfo`` (or the platform's)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding *path* (longest mount prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def sqlite_modes(directory: str) -> Dict[str, str]:
    """Journal and synchronous modes a new WAL connection gets in *directory*.

    The program's SQLite backend asks for WAL and leaves ``synchronous``
    at the library default, which is what a fresh connection reports.
    """
    path = os.path.join(directory, "probe.db")
    try:
        conn = sqlite3.connect(path)
        try:
            journal = conn.execute("PRAGMA journal_mode=WAL").fetchone()[0]
            synchronous = conn.execute("PRAGMA synchronous").fetchone()[0]
        finally:
            conn.close()
    finally:
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)
    names = {0: "OFF", 1: "NORMAL", 2: "FULL", 3: "EXTRA"}
    return {"journal": str(journal), "synchronous": names.get(synchronous, str(synchronous))}


def git_commit(root: str) -> str:
    """The checkout's commit, or a note that it is not a git checkout."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "not a git checkout"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def header(root: str, store_dir: str) -> Dict[str, object]:
    """The run header (see the module docstring)."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "schedulable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "sqlite_modes": sqlite_modes(store_dir),
        "store_filesystem": filesystem_of(store_dir),
        "commit": git_commit(root),
    }


# -- per-process accounting ---------------------------------------------------


def cpu_ns(pid: int) -> int:
    """On-CPU nanoseconds of every thread of *pid* (``schedstat``)."""
    total = 0
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/schedstat", encoding="ascii") as handle:
                total += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            continue  # thread exited between listdir and open
    return total


def cpu_ns_all(pids: Iterable[int]) -> int:
    """Summed :func:`cpu_ns` over several processes."""
    return sum(cpu_ns(pid) for pid in pids)


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of *pid* in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
