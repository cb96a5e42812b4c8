"""Leak audit, resident memory, and provenance of a benchmark run."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Iterable, List, Set

import numpy as np

SHM = Path("/dev/shm")


def segments() -> Set[str]:
    """The program's shared-memory snapshot segments present now."""
    from repro.core.shared import SEGMENT_PREFIX

    if not SHM.is_dir():
        return set()
    return {entry.name for entry in SHM.iterdir() if entry.name.startswith(SEGMENT_PREFIX)}


def _parent_of(pid: int) -> int:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return -1
    # The command name may hold spaces; fields resume after its ')'.
    return int(stat.rsplit(")", 1)[1].split()[1])


def descendants(pid: int) -> Set[int]:
    """Every live process below ``pid``."""
    parents: Dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            parents[int(entry.name)] = _parent_of(int(entry.name))
    found: Set[int] = set()
    frontier = {pid}
    while frontier:
        frontier = {child for child, parent in parents.items() if parent in frontier} - found
        found |= frontier
    return found


def rss_mb(pids: Iterable[int]) -> float:
    """Summed resident set of ``pids`` in MB (shared pages count in each)."""
    total = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmRSS:"):
                total += int(line.split()[1])
    return total / 1024.0


def _is_resource_tracker(pid: int) -> bool:
    """The interpreter's shared-memory bookkeeper, which lives as long as
    this process does."""
    try:
        command = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    return b"multiprocessing.resource_tracker" in command


def stop_resource_tracker() -> None:
    """Stop this process's shared-memory bookkeeper and wait for it.

    Left to itself it outlives this process by a moment, and once orphaned
    nobody may reap it."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def leak_problems(segments_before: Set[str]) -> List[str]:
    """New snapshot segments or child processes left behind by a workload."""
    for child in multiprocessing.active_children():
        child.join(timeout=5)
    problems = [f"leaked shared-memory segment {name}" for name in sorted(segments() - segments_before)]
    problems += [
        f"leaked child process {pid}"
        for pid in sorted(descendants(os.getpid()))
        if not _is_resource_tracker(pid)
    ]
    return problems


def source_digest(root: Path) -> str:
    """A digest of the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path):
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def provenance(root: Path, seed: int) -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "seed": seed,
    }
