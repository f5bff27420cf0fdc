"""Shared plumbing of the benchmark: environment, statistics, digests, output.

Nothing here imports :mod:`repro`; the workload modules do that after
:func:`pin_env` has fixed every environment knob the package reads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parents[2]
#: The package sources the benchmark measures.
SRC = ROOT / "src"
#: Scratch space for stores, sockets and span files (git-ignored).
WORK_DIR = ROOT / ".perfbench_work"
#: Per-run result records (git-ignored).
RESULTS_DIR = ROOT / ".perfbench_results"


class SourceMissing(RuntimeError):
    """The checkout does not contain the ``repro`` sources."""


def require_source() -> None:
    """Put ``src`` first on ``sys.path``, or fail when it is absent.

    The benchmark measures the checkout it runs in, never an installed
    copy of the package, so a missing tree is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    """Worker count used for pools and the served instance."""
    return os.cpu_count() or 1


def pin_env(*, jobs: int, cache_dir: Path) -> Dict[str, str]:
    """Fix every environment knob ``repro`` reads; children inherit them.

    ``REPRO_CACHE_DIR`` points at a fresh directory so no store or
    artifact cache from an earlier run (or from ``~/.cache/repro``) can
    make a cold phase warm.
    """
    pinned = {
        "REPRO_CACHE_DIR": str(cache_dir),
        "REPRO_JOBS": str(jobs),
        "REPRO_BATCH": "auto",
        "REPRO_NO_CACHE": "0",
        "REPRO_PROFILE": "0",
        "REPRO_TELEMETRY": "0",
        "REPRO_CONTRACTS": "1",
    }
    os.environ.update(pinned)
    os.environ["PYTHONPATH"] = str(SRC)
    return pinned


def fresh_dir(prefix: str) -> Path:
    """A new empty directory under :data:`WORK_DIR`."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR))


def remove_dir(path: Optional[Path]) -> None:
    """Delete a scratch directory made by :func:`fresh_dir`."""
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


def derive_seed(seed: int, name: str) -> int:
    """A 31-bit child seed that depends only on ``(seed, name)``."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q/100 * n)``-th smallest value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for an even count)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def result_digest(result) -> str:
    """SHA-256 of a rollout's simulated content.

    Covers the six trace arrays (raw float64 bytes), every cycle
    record and the termination flags; the manifest (wall-clock bounds)
    and profile stats are provenance, not output, and are left out.
    """
    from dataclasses import astuple

    h = hashlib.sha256()
    for name in ("time_s", "s", "lateral_offset", "y_l_true", "steering", "speed"):
        h.update(name.encode())
        h.update(getattr(result, name).tobytes())
    for cycle in result.cycles:
        h.update(repr(astuple(cycle)).encode())
    h.update(repr((bool(result.crashed), result.crash_s, bool(result.completed))).encode())
    return h.hexdigest()


def combine_digests(digests: Iterable[str]) -> str:
    """One digest over an ordered sequence of digests."""
    h = hashlib.sha256()
    for digest in digests:
        h.update(digest.encode())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped descendant, MiB.

    ``RUSAGE_CHILDREN`` reports the maximum over every child (and their
    reaped children) this process has waited for, so pools and the
    served instance must be shut down before this is read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def provenance() -> Dict[str, object]:
    """Where a result came from: commit, versions, host width."""
    import numpy

    sha = "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    import repro

    return {
        "git_sha": sha,
        "repro_version": repro.__version__,
        "nproc": nproc(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    def op(self, ok: bool, problem: str = "") -> None:
        """Count one operation; a failed one records why."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem or "operation failed")

    def check(self, ok: bool, problem: str) -> None:
        """A run-level output check; a mismatch fails one operation."""
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}


def write_record(workload: str, seed: int, trace: bool, record: Dict[str, object]) -> Path:
    """Persist one run's full record (digests, provenance, problems)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
