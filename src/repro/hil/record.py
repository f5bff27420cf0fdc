"""Run records and QoC aggregation for closed-loop simulations."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.metrics.qoc import mae
from repro.sim.track import Track
from repro.utils.cache import atomic_write
from repro.utils.profiling import StageStats, format_stage_table

__all__ = ["CycleRecord", "HilResult", "SectorQoC"]


@dataclass
class CycleRecord:
    """Bookkeeping of one control cycle."""

    time_ms: float
    s: float
    active_isp: str
    roi: str
    speed_kmph: float
    period_ms: float
    delay_ms: float
    invoked: tuple
    measurement_valid: bool
    y_l_measured: float
    steering: float
    #: True when the cycle ran on the mitigation fallback knobs
    #: (identification stale — see repro.core.reconfiguration).
    degraded: bool = False
    #: Kind strings of the fault specs active during this cycle
    #: (empty without a fault plan — see repro.faults).
    faults: tuple = ()


@dataclass
class SectorQoC:
    """Per-sector QoC summary (the Fig. 8 bar data)."""

    sector: int
    s_start: float
    s_end: float
    mae: Optional[float]
    reached: bool
    completed: bool

    @property
    def failed(self) -> bool:
        """The vehicle entered the sector but crashed inside it."""
        return self.reached and not self.completed


@dataclass
class HilResult:
    """Full trace of one closed-loop run."""

    time_s: np.ndarray
    s: np.ndarray
    lateral_offset: np.ndarray
    y_l_true: np.ndarray
    steering: np.ndarray
    speed: np.ndarray
    cycles: List[CycleRecord] = field(default_factory=list)
    crashed: bool = False
    crash_s: Optional[float] = None
    completed: bool = False
    #: Measured per-stage wall-clock stats (``HilConfig.profile=True``
    #: or ``REPRO_PROFILE=1``); ``None`` when profiling was off.  This
    #: is ephemeral observability data: :meth:`save` does not persist
    #: it, and it never influences the simulated trace.
    profile: Optional[Dict[str, StageStats]] = None
    #: The run manifest (config hash, package version, RNG streams —
    #: see :func:`repro.telemetry.build_manifest`).  Attached by the
    #: engine, persisted by :meth:`save`, and ``None`` for results
    #: constructed by hand or loaded from pre-telemetry traces.
    manifest: Optional[Dict[str, object]] = None

    def profile_table(self) -> str:
        """The stage-timing table as text ('' when profiling was off)."""
        if not self.profile:
            return ""
        return format_stage_table(self.profile)

    def mae(self, skip_time_s: float = 0.0) -> float:
        """MAE of the true look-ahead deviation (Eq. 1).

        ``skip_time_s`` optionally drops the initial transient (the runs
        start with a deliberate lateral offset).  Runs shorter than the
        skip (e.g. an early crash) fall back to the full trace.  An
        empty trace (a run that recorded no step) has no defined MAE
        and raises :class:`ValueError`.
        """
        if self.time_s.size == 0:
            raise ValueError("MAE of an empty trace is undefined")
        sel = self.time_s >= skip_time_s
        if not sel.any():
            sel = slice(None)
        return mae(self.y_l_true[sel])

    def duration_s(self) -> float:
        """Simulated duration of the run in seconds."""
        return float(self.time_s[-1]) if self.time_s.size else 0.0

    def max_offset(self) -> float:
        """Largest absolute lateral offset reached (0.0 on an empty trace)."""
        if self.lateral_offset.size == 0:
            return 0.0
        return float(np.max(np.abs(self.lateral_offset)))

    def degraded_cycles(self) -> int:
        """Cycles that ran on the mitigation fallback knobs."""
        return sum(1 for c in self.cycles if c.degraded)

    def degraded_fraction(self) -> float:
        """Fraction of cycles in degraded mode (0.0 without cycles)."""
        if not self.cycles:
            return 0.0
        return self.degraded_cycles() / len(self.cycles)

    def fault_kinds(self) -> tuple:
        """Distinct fault kinds seen across the run's cycles (sorted)."""
        return tuple(sorted({kind for c in self.cycles for kind in c.faults}))

    def save(
        self, path: str, *, extra_json: Optional[Dict[str, str]] = None
    ) -> Path:
        """Persist the trace to ``.npz`` (cycle records as JSON inside).

        Useful for offline analysis of long runs without re-simulating.
        The write is atomic (:func:`repro.utils.cache.atomic_write`),
        so a crash mid-write never leaves a corrupt file at the
        returned path — which is always exactly the file written, with
        the ``.npz`` suffix applied up front rather than appended
        behind our back by ``np.savez``.

        ``extra_json`` attaches additional JSON-string members to the
        archive (e.g. the cache-key document :mod:`repro.cache` embeds
        for ``verify``); :meth:`load` ignores members it does not know,
        so extras never change the loaded result.
        """
        target = Path(path)
        if target.suffix != ".npz":
            target = target.with_suffix(target.suffix + ".npz")
        payload = {
            "time_s": self.time_s,
            "s": self.s,
            "lateral_offset": self.lateral_offset,
            "y_l_true": self.y_l_true,
            "steering": self.steering,
            "speed": self.speed,
            "crashed": np.array(self.crashed),
            "crash_s": np.array(
                np.nan if self.crash_s is None else self.crash_s
            ),
            "completed": np.array(self.completed),
            "cycles_json": np.array(
                json.dumps([asdict(c) for c in self.cycles])
            ),
        }
        if self.manifest is not None:
            payload["manifest_json"] = np.array(json.dumps(self.manifest))
        for name, blob in (extra_json or {}).items():
            if name in payload:
                raise ValueError(f"extra_json key shadows a trace member: {name!r}")
            payload[name] = np.array(blob)
        # Writing to the open handle (not a path) keeps np.savez from
        # appending its own suffix, so `target` provably names the
        # bytes on disk.
        with atomic_write(target) as handle:
            np.savez(handle, **payload)
        return target

    @classmethod
    def load(cls, path: str) -> "HilResult":
        """Inverse of :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            cycles = [
                CycleRecord(
                    **{
                        **c,
                        "invoked": tuple(c["invoked"]),
                        # Absent in traces saved before the fault
                        # subsystem existed; default to clean cycles.
                        "faults": tuple(c.get("faults", ())),
                        "degraded": bool(c.get("degraded", False)),
                    }
                )
                for c in json.loads(str(data["cycles_json"]))
            ]
            crash_s = float(data["crash_s"])
            manifest = (
                json.loads(str(data["manifest_json"]))
                # Absent in traces saved before the telemetry subsystem.
                if "manifest_json" in data.files
                else None
            )
            return cls(
                time_s=data["time_s"],
                s=data["s"],
                lateral_offset=data["lateral_offset"],
                y_l_true=data["y_l_true"],
                steering=data["steering"],
                speed=data["speed"],
                cycles=cycles,
                crashed=bool(data["crashed"]),
                crash_s=None if np.isnan(crash_s) else crash_s,
                completed=bool(data["completed"]),
                manifest=manifest,
            )

    def sector_qoc(self, track: Track, skip_distance_m: float = 0.0) -> List[SectorQoC]:
        """Aggregate QoC per track sector (Fig. 8).

        Parameters
        ----------
        track:
            The track the run was recorded on (provides sector bounds).
        skip_distance_m:
            Arc length skipped at the start of each sector before QoC is
            accumulated, so a sector's score is not dominated by the
            switching transient of its entry (the paper evaluates
            per-sector performance the same way: the transition effects
            belong to the failure analysis, not the steady QoC).
        """
        sectors: List[SectorQoC] = []
        progress = float(self.s[-1]) if self.s.size else 0.0
        for index, seg in enumerate(track.segments, start=1):
            reached = progress > seg.s_start
            completed = (progress >= seg.s_end - 1e-6) or (
                self.completed and index == len(track.segments)
            )
            sel = (self.s >= seg.s_start + skip_distance_m) & (self.s < seg.s_end)
            # Same Eq. 1 aggregate as HilResult.mae; a sector without a
            # single sample has no QoC (None), not a zero.
            sector_mae = mae(self.y_l_true[sel]) if sel.any() else None
            sectors.append(
                SectorQoC(
                    sector=index,
                    s_start=seg.s_start,
                    s_end=seg.s_end,
                    mae=sector_mae,
                    reached=reached,
                    completed=completed and not (
                        self.crashed
                        and self.crash_s is not None
                        and seg.s_start <= self.crash_s < seg.s_end
                    ),
                )
            )
        return sectors
