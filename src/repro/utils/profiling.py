"""Near-zero-overhead scoped stage timers and the one metrics registry.

The paper's argument rests on *where the sensor-to-actuation delay
goes* (Table II profiles every ISP configuration, the PR pipeline and
the classifiers stage by stage).  This module gives the reproduction
the same observability over its own wall clock::

    from repro.utils.profiling import profile

    with profile("isp.tone_map"):
        rgb = tone_map(rgb)

Each span records its wall clock in milliseconds as one sample of the
histogram named by its label, on the currently *active*
:class:`MetricsRegistry`.  When no registry is active — the default —
``profile()`` returns a shared no-op context manager: no object is
allocated per call and nothing is recorded, so instrumentation may
stay in hot loops permanently.

The registry is the repo's only stats collector: stage spans, sweep
worker counters and the sensing service's latency histograms all
record into one, summarize through :meth:`MetricsRegistry.
histogram_summaries` and cross process pools through its
:meth:`~MetricsRegistry.snapshot` / :meth:`~MetricsRegistry.merge`.

Enabling
--------
- ``REPRO_PROFILE=1`` in the environment activates a process-global
  registry at import time (also inherited by CLI entry points), or
- pass ``--profile`` to ``python -m repro run`` / use
  ``python -m repro profile``, or
- programmatically: ``activate(MetricsRegistry())`` / the
  ``activated()`` context manager.

Profiling never touches RNG state or array values, so traces are
bit-identical with profiling on or off.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

__all__ = [
    "StageStats",
    "MetricsRegistry",
    "profile",
    "profiling_enabled",
    "activate",
    "deactivate",
    "get_active",
    "activated",
    "format_stage_table",
]


def profiling_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` requests profiling (checked per call)."""
    return os.environ.get("REPRO_PROFILE", "0").lower() not in ("", "0", "false")


@dataclass(frozen=True)
class StageStats:
    """Aggregated timings of one labelled stage."""

    label: str
    count: int
    total_ms: float
    mean_ms: float
    p95_ms: float


class MetricsRegistry:
    """Named counters, gauges and weighted histograms with snapshot/merge.

    Counters accumulate, gauges hold the latest value.  A histogram
    keeps its first :data:`MAX_SAMPLES` samples (p95 is taken over
    them) plus a weighted count and a running total that keep growing
    past the cap, so long runs stay memory-bounded and means stay
    exact.  :meth:`snapshot` is a plain picklable dict and
    :meth:`merge` folds one back in — how
    :func:`repro.utils.parallel.parallel_map` funnels per-worker stats
    to the parent instead of dropping them with the pool.
    """

    #: Histogram sample cap per name.
    MAX_SAMPLES = 65536

    def __init__(self):
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._samples: Dict[str, List[float]] = {}
        self._weights: Dict[str, int] = {}
        self._totals: Dict[str, float] = {}

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to the counter *name* (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + int(amount)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge *name* to *value* (last write wins)."""
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float, count: int = 1) -> None:
        """Add one sample to the histogram *name*, worth *count* items.

        A batched kernel that processes B lanes in one call records its
        wall time once with ``count=B``, so per-item means stay
        comparable with the serial path.
        """
        value = float(value)
        samples = self._samples.setdefault(name, [])
        if len(samples) < self.MAX_SAMPLES:
            samples.append(value)
        self._weights[name] = self._weights.get(name, 0) + count
        self._totals[name] = self._totals.get(name, 0.0) + value

    def counters(self) -> Dict[str, int]:
        """A copy of all counters."""
        return dict(self._counters)

    def gauges(self) -> Dict[str, float]:
        """A copy of all gauges."""
        return dict(self._gauges)

    def histogram(self, name: str) -> List[float]:
        """A copy of the samples retained under *name* (maybe empty)."""
        return list(self._samples.get(name, ()))

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-histogram ``{"count", "total", "mean", "p95"}``, in
        first-recorded order.

        The one summary routine: the service ``stats`` operation reports
        it and :meth:`stage_stats` reshapes it.  ``count``/``total`` are
        the weighted count and the sum over every observation, ``mean``
        is their ratio, and ``p95`` is the nearest-rank percentile (the
        ``ceil(0.95 n)``-th smallest) of the retained samples.
        """
        summaries: Dict[str, Dict[str, float]] = {}
        for name, samples in self._samples.items():
            count, total = self._weights[name], self._totals[name]
            rank = math.ceil(0.95 * len(samples))
            summaries[name] = {
                "count": count,
                "total": total,
                "mean": total / count if count else 0.0,
                "p95": sorted(samples)[rank - 1],
            }
        return summaries

    def stage_stats(self) -> Dict[str, StageStats]:
        """Every histogram as :class:`StageStats` (spans record ms)."""
        return {
            label: StageStats(
                label=label,
                count=summary["count"],
                total_ms=summary["total"],
                mean_ms=summary["mean"],
                p95_ms=summary["p95"],
            )
            for label, summary in self.histogram_summaries().items()
        }

    def snapshot(self) -> Dict[str, object]:
        """A picklable plain-dict copy of the registry's state.

        ``histograms`` maps names to retained samples; ``weights`` and
        ``totals`` carry each histogram's weighted count and running sum.
        """
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {k: list(v) for k, v in self._samples.items()},
            "weights": dict(self._weights),
            "totals": dict(self._totals),
        }

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold a :meth:`snapshot` in: counters add, gauges last-win,
        histogram samples extend (bounded) while counts and totals
        accumulate.  Names keep first-appearance order."""
        for name, amount in snapshot.get("counters", {}).items():
            self.count(name, amount)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, samples in snapshot.get("histograms", {}).items():
            mine = self._samples.setdefault(name, [])
            mine.extend(samples[: max(0, self.MAX_SAMPLES - len(mine))])
            weight, total = snapshot["weights"][name], snapshot["totals"][name]
            self._weights[name] = self._weights.get(name, 0) + weight
            self._totals[name] = self._totals.get(name, 0.0) + total

    def reset(self) -> None:
        """Drop every recorded metric."""
        for store in (
            self._counters, self._gauges, self._samples, self._weights, self._totals
        ):
            store.clear()


class _Span:
    """Context manager timing one scope into its registry (in ms)."""

    __slots__ = ("_registry", "_label", "_count", "_t0")

    def __init__(self, registry: MetricsRegistry, label: str, count: int = 1):
        self._registry = registry
        self._label = label
        self._count = count

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._registry.observe(
            self._label, (time.perf_counter() - self._t0) * 1e3, self._count
        )
        return False


class _NullSpan:
    """Shared do-nothing span handed out while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The singleton no-op span: ``profile()`` with no active registry
#: returns this exact object, so the disabled path allocates nothing.
NULL_SPAN = _NullSpan()


_ACTIVE: Optional[MetricsRegistry] = None


def profile(label: str, count: int = 1):
    """A timed span when a registry is active, else the shared no-op.

    *count* weights the span for batched kernels (see
    :meth:`MetricsRegistry.observe`); the default 1 is the serial case.
    """
    if _ACTIVE is None:
        return NULL_SPAN
    return _Span(_ACTIVE, label, count)


def activate(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install *registry* (or a fresh one) as the active collector."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    return _ACTIVE


def deactivate() -> Optional[MetricsRegistry]:
    """Remove the active registry; returns it (with its data)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


def get_active() -> Optional[MetricsRegistry]:
    """The currently active registry, if any."""
    return _ACTIVE


@contextmanager
def activated(registry: Optional[MetricsRegistry]):
    """Scoped activation; ``activated(None)`` is a no-op passthrough.

    Restores whatever registry was active before on exit, so nested
    scopes (an engine run inside an env-enabled session) compose.
    """
    global _ACTIVE
    if registry is None:
        yield None
        return
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous


def format_stage_table(
    stats: Mapping[str, StageStats],
    modeled_ms: Optional[Mapping[str, float]] = None,
) -> str:
    """Render stats as an aligned text table.

    *modeled_ms* optionally maps labels to the paper's modeled latency
    (Table II); matching rows grow a ``model ms`` column so measured
    wall-clock sits next to the latency the control design assumes.
    """
    header = f"{'stage':<24} {'count':>7} {'mean ms':>9} {'p95 ms':>9} {'total ms':>10}"
    if modeled_ms:
        header += f" {'model ms':>9}"
    lines = [header]
    for label, stat in stats.items():
        row = (
            f"{label:<24} {stat.count:>7d} {stat.mean_ms:>9.3f} "
            f"{stat.p95_ms:>9.3f} {stat.total_ms:>10.2f}"
        )
        if modeled_ms:
            model = modeled_ms.get(label)
            row += f" {model:>9.3f}" if model is not None else f" {'-':>9}"
        lines.append(row)
    return "\n".join(lines)


# REPRO_PROFILE in the environment enables collection for the whole
# process without touching any call site.
if profiling_enabled():  # pragma: no cover - env-dependent import effect
    activate()
