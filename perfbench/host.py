"""What a run ran on: the report header, the spin calibration, history rows.

The sandbox this benchmark was defined on changes speed by the minute (a
fixed pure-Python loop reads 0.057 to 0.085 us per iteration, in stretches
of 5 to 60 s), which is more than any bound could absorb.  So every sample
of wall time is taken next to a short run of that loop and reported in
*reference-host seconds*: as it would read on a host where the loop takes
``SAMPLE_SPIN_REF_S``.  The loop is the benchmark's own and touches nothing
of the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any

__all__ = ["NOISY_DRIFT", "append_history", "calib_spin_s", "header",
           "host_slowdown", "source_digest"]

#: fixed amount of pure-Python work, about 1 s on the defining sandbox
SPIN_ITERATIONS = 20_000_000
#: start-to-end calibration drift beyond which a run is marked noisy
NOISY_DRIFT = 0.15
#: the short spin taken next to every sample of wall time ...
SAMPLE_SPIN_ITERATIONS = 2_000_000
#: ... and what it reads on the reference host (this sandbox, undisturbed)
SAMPLE_SPIN_REF_S = 0.1


def calib_spin_s(iterations: int = SPIN_ITERATIONS) -> float:
    """Wall of a fixed spin loop: the host's speed right now, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i
    return time.perf_counter() - t0


def host_slowdown() -> float:
    """How much slower than the reference host this one runs right now:
    the sample spin's wall over its reference wall."""
    return calib_spin_s(SAMPLE_SPIN_ITERATIONS) / SAMPLE_SPIN_REF_S


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=root, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root: Path) -> str:
    """blake2b over the program and the benchmark as they were measured
    (``src/repro`` and ``perfbench`` ``*.py``, ``BENCHMARK.json``).  A dirty
    tree makes the commit say little; two reports with one digest measured
    one program, and ``compare`` then checks that they agree."""
    files = sorted(p for top in ("src/repro", "perfbench")
                   for p in (root / top).rglob("*.py"))
    digest = hashlib.blake2b(digest_size=16)
    for path in [*files, root / "BENCHMARK.json"]:
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def header(root: Path, fields: dict[str, Any]) -> dict[str, Any]:
    """Commit, dirty flag, source digest, interpreter and host size, plus
    ``fields``."""
    status = _git(root, "status", "--porcelain")
    return {
        "commit": _git(root, "rev-parse", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **fields,
    }


def append_history(path: str, report: dict[str, Any]) -> None:
    """Append one commit-keyed row (values only) to a JSONL history."""
    row = dict(report["header"])
    row["metrics"] = {
        name: {metric: entry["value"]
               for metric, entry in wl["end_to_end"].items()}
        for name, wl in report["workloads"].items()
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
