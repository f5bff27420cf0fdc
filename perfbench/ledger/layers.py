"""The per-layer ledger: metric definitions over a merged span snapshot.

Each metric names the span or counter whose call count proves the
layer was exercised, and the workloads it is listed for; a traced run
fails when such a metric saw zero calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ledger.common import median

ROLLOUT, SWEEP, SERVED = "rollout", "sweep", "served"
ALL = (ROLLOUT, SWEEP, SERVED)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: Span (``"span:<name>"``) or counter (``"counter:<name>"``) whose
    #: count must be non-zero on the listed workloads.
    evidence: str
    workloads: Tuple[str, ...]
    #: Computes the value from a merged snapshot; ``None`` for metrics
    #: the workload itself supplies (client-side or run-level numbers).
    compute: Optional[Callable[[dict], float]] = None


def _span(snap: dict, name: str) -> List[float]:
    return snap["spans"].get(name, [0, 0.0, 0.0, 0.0])


def _counter(snap: dict, name: str) -> float:
    return snap["counters"].get(name, 0.0)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_unit(span: str, scale: float) -> Callable[[dict], float]:
    """Inclusive span time per unit (frame, lane step, point ...)."""
    return lambda snap: _ratio(_span(snap, span)[1], _span(snap, span)[3], scale)


def per_call(span: str, scale: float) -> Callable[[dict], float]:
    return lambda snap: _ratio(_span(snap, span)[1], _span(snap, span)[0], scale)


#: Spans whose self time is the engine's own loop (no layer below).
HIL_SPANS = ("rollout", "hil", "hil.batch")


def hil_self_frac(snap: dict) -> float:
    """Rollout wall outside every wrapped layer, as a share of it.

    The denominator is the benchmark's per-rollout root span where the
    workload opens one (``rollout``), otherwise the engine spans.
    """
    own = sum(_span(snap, name)[2] for name in HIL_SPANS)
    if _span(snap, "rollout")[0]:
        wall = _span(snap, "rollout")[1]
    else:
        wall = _span(snap, "hil")[1] + _span(snap, "hil.batch")[1]
    return _ratio(own, wall)


def _exec_p50(snap: dict) -> float:
    values = [ms for _, _, ms in snap["samples"].get("service.exec", [])]
    return median(values) if values else 0.0


LEDGER: Tuple[LayerMetric, ...] = (
    LayerMetric("sim.renderer.ms_per_frame", "ms", "lower", "span:sim.renderer",
                (ROLLOUT,), per_unit("sim.renderer", 1e3)),
    LayerMetric("isp.ms_per_frame", "ms", "lower", "span:isp",
                (ROLLOUT,), per_unit("isp", 1e3)),
    LayerMetric("isp.demosaic.ms_per_frame", "ms", "lower", "span:isp.demosaic",
                (ROLLOUT,), per_unit("isp.demosaic", 1e3)),
    LayerMetric("perception.ms_per_frame", "ms", "lower", "span:perception",
                (ROLLOUT, SWEEP), per_unit("perception", 1e3)),
    LayerMetric("perception.bev_warp.ms_per_frame", "ms", "lower",
                "span:perception.bev_warp", (ROLLOUT, SWEEP),
                per_unit("perception.bev_warp", 1e3)),
    LayerMetric("perception.threshold.ms_per_frame", "ms", "lower",
                "span:perception.threshold", (ROLLOUT, SWEEP),
                per_unit("perception.threshold", 1e3)),
    LayerMetric("perception.sliding_window.ms_per_frame", "ms", "lower",
                "span:perception.sliding_window", (ROLLOUT, SWEEP),
                per_unit("perception.sliding_window", 1e3)),
    LayerMetric("perception.fit.ms_per_frame", "ms", "lower", "span:perception.fit",
                (ROLLOUT, SWEEP), per_unit("perception.fit", 1e3)),
    LayerMetric("perception.valid_frac", "frac", "higher", "counter:perception.frames",
                ALL, lambda s: _ratio(_counter(s, "perception.valid"),
                                      _counter(s, "perception.frames"))),
    LayerMetric("core.reconfiguration.decide.ms_per_cycle", "ms", "lower",
                "span:core.reconfiguration.decide", (ROLLOUT,),
                per_call("core.reconfiguration.decide", 1e3)),
    LayerMetric("core.reconfiguration.identify.ms_per_call", "ms", "lower",
                "span:core.reconfiguration.identify", (ROLLOUT,),
                per_call("core.reconfiguration.identify", 1e3)),
    LayerMetric("control.ms_per_cycle", "ms", "lower", "span:control",
                (ROLLOUT, SWEEP), per_unit("control", 1e3)),
    LayerMetric("sim.vehicle.us_per_lane_step", "us", "lower", "span:sim.vehicle",
                (SWEEP, SERVED), per_unit("sim.vehicle", 1e6)),
    LayerMetric("sim.track.frenet.us_per_point", "us", "lower",
                "span:sim.track.frenet", (SWEEP,), per_unit("sim.track.frenet", 1e6)),
    LayerMetric("hil.self_frac", "frac", "lower", "span:hil*",
                (ROLLOUT, SWEEP), hil_self_frac),
    LayerMetric("hil.batch.frames_per_render_call", "frames", "higher",
                "counter:hil.batch.render_calls", (SWEEP,),
                lambda s: _ratio(_counter(s, "hil.batch.render_frames"),
                                 _counter(s, "hil.batch.render_calls"))),
    LayerMetric("core.characterization.prescreen_s", "s", "lower",
                "counter:core.characterization.prescreen_s", (SWEEP,),
                lambda s: _counter(s, "core.characterization.prescreen_s")),
    LayerMetric("utils.parallel.tasks", "count", "higher", "counter:utils.parallel.tasks",
                (SWEEP,), lambda s: _counter(s, "utils.parallel.tasks")),
    LayerMetric("utils.parallel.worker_busy_frac", "frac", "higher",
                "counter:utils.parallel.tasks", (SWEEP,),
                lambda s: _ratio(_counter(s, "utils.parallel.task_s"),
                                 _counter(s, "utils.parallel.capacity_s"))),
    LayerMetric("utils.parallel.failed", "count", "lower", "span:utils.parallel.map",
                (SWEEP,), lambda s: _counter(s, "utils.parallel.failed")),
    LayerMetric("cache.load.ms_per_call", "ms", "lower", "span:cache.load",
                (SWEEP, SERVED), per_call("cache.load", 1e3)),
    LayerMetric("cache.hit_ratio", "frac", "higher", "span:cache.load",
                (SWEEP, SERVED), lambda s: _ratio(_counter(s, "cache.hits"),
                                                  _span(s, "cache.load")[0])),
    LayerMetric("cache.store.ms_per_call", "ms", "lower", "span:cache.store",
                (SWEEP, SERVED), per_call("cache.store", 1e3)),
    LayerMetric("cache.bytes_per_entry", "bytes", "lower", "counter:cache.entries",
                (SWEEP, SERVED), lambda s: _ratio(_counter(s, "cache.bytes"),
                                                  _counter(s, "cache.entries"))),
    LayerMetric("service.exec.ms_p50", "ms", "lower", "span:service.exec",
                (SERVED,), _exec_p50),
    LayerMetric("service.overhead.ms_p50", "ms", "lower", "span:service.exec",
                (SERVED,)),
    LayerMetric("service.protocol.encode.ms_per_response", "ms", "lower",
                "span:service.protocol.encode", (SERVED,),
                per_call("service.protocol.encode", 1e3)),
    LayerMetric("service.protocol.response_bytes", "bytes", "lower",
                "span:service.protocol.encode", (SERVED,),
                lambda s: _ratio(_counter(s, "service.protocol.response_bytes"),
                                 _span(s, "service.protocol.encode")[0])),
    LayerMetric("loadgen.lag.ms_p90", "ms", "lower", "counter:loadgen.sent",
                (SERVED,)),
    LayerMetric("trace.overhead_frac", "frac", "lower", "counter:trace.units",
                ALL),
)


def evidence_count(snap: dict, evidence: str) -> float:
    kind, _, name = evidence.partition(":")
    if kind == "counter":
        return _counter(snap, name)
    if name.endswith("*"):
        prefix = name[:-1]
        return sum(v[0] for k, v in snap["spans"].items() if k.startswith(prefix))
    return _span(snap, name)[0]


def ledger_values(
    snap: dict, workload: str, supplied: Dict[str, float]
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Every ledger metric's value, plus the zero-call violations.

    *supplied* carries the metrics a workload computes itself.  Metrics
    not listed for *workload* and never exercised report 0.
    """
    values: Dict[str, Tuple[float, str]] = {}
    problems: List[str] = []
    for metric in LEDGER:
        if metric.compute is not None:
            value = metric.compute(snap)
        else:
            value = supplied.get(metric.name, 0.0)
        values[metric.name] = (value, metric.unit)
        if workload in metric.workloads and evidence_count(snap, metric.evidence) <= 0:
            problems.append(f"{metric.name}: zero calls of {metric.evidence}")
    return values, problems
