"""Host fingerprint and process memory probes (Linux ``/proc``)."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Optional


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _l3_bytes() -> Optional[int]:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if (_read(str(index / "level")) or "").strip() == "3":
            size = (_read(str(index / "size")) or "").strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            digits = size.rstrip("KMG")
            return int(digits) * scale if digits.isdigit() else None
    return None


def _ram_bytes() -> Optional[int]:
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) * 1024
    return None


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root: Path) -> Dict[str, object]:
    """nproc, RAM, L3, Python, NumPy and the commit the result belongs to."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "ram_bytes": _ram_bytes(),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
    }


def hwm_mib(pid: object = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB; 0 if it is gone."""
    for line in (_read(f"/proc/{pid}/status") or "").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def child_pids() -> List[int]:
    """Live direct children of this process (pool workers)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _read(f"/proc/{entry}/stat")
        if stat is None:
            continue
        # Field 4 is the parent pid; the command name before it may hold spaces.
        fields = stat[stat.rfind(")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def children_hwm_mib() -> float:
    """Sum of the children's peak RSS (shared pages count in each child)."""
    return sum(hwm_mib(pid) for pid in child_pids())
