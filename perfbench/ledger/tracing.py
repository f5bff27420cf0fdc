"""Per-layer spans: wrappers on the names callers resolve, plus self time.

:func:`install` replaces public functions and methods of each layer
with timing wrappers.  A wrapper goes where the *caller* looks the name
up: a function imported into another module's namespace (e.g.
``repro.hil.batch.render_raw_batch`` or the perception stages imported
into ``repro.perception.pipeline``) is patched in that namespace, and
methods are patched on their class.

Every span records calls, inclusive time, self time (inclusive time
minus the time covered by child spans) and a unit count (frames, lane
steps, points ...).  Pool workers report their spans back per task:
through a :class:`repro.utils.parallel.StatsFunnel` for sweeps, and by
appending one line per request to a span file for the served instance
(pool children exit without running ``atexit`` hooks).
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Environment variable naming the directory served workers flush to.
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"


class SpanStack:
    """Nested span bookkeeping with explicit timestamps.

    ``stats[name]`` is ``[calls, total_s, self_s, units]``.  A span's
    self time is its duration minus the durations of the spans that
    closed directly inside it, so the self times of a span tree add up
    to the duration of its root.
    """

    def __init__(self) -> None:
        self.frames: List[list] = []
        self.stats: Dict[str, List[float]] = {}
        self.depth: Dict[str, int] = {}

    def enter(self, name: str, t: float) -> None:
        self.frames.append([name, t, 0.0])
        self.depth[name] = self.depth.get(name, 0) + 1

    def exit(self, t: float, units: float = 1.0) -> float:
        name, t0, child = self.frames.pop()
        self.depth[name] -= 1
        duration = t - t0
        entry = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        entry[3] += units
        if self.frames:
            self.frames[-1][2] += duration
        return duration

    def active(self, name: str) -> bool:
        return self.depth.get(name, 0) > 0


class Tracer:
    """The process-wide span collector the wrappers write to."""

    def __init__(self) -> None:
        self.enabled = False
        self.stack = SpanStack()
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, list] = {}

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)

    def snapshot(self) -> Dict[str, object]:
        return {
            "spans": {k: list(v) for k, v in self.stack.stats.items()},
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def reset(self) -> None:
        self.stack.stats = {}
        self.counters = {}
        self.samples = {}

    def swap(self) -> Tuple[dict, dict, dict]:
        """Detach the collected data (for per-task scoping)."""
        saved = (self.stack.stats, self.counters, self.samples)
        self.reset()
        return saved

    def restore(self, saved: Tuple[dict, dict, dict]) -> None:
        self.stack.stats, self.counters, self.samples = saved

    def merge(self, snapshot: Dict[str, object]) -> None:
        merge_into(self.snapshot_ref(), snapshot)

    def snapshot_ref(self) -> Dict[str, object]:
        """The live data in snapshot layout (mutations write through)."""
        return {
            "spans": self.stack.stats,
            "counters": self.counters,
            "samples": self.samples,
        }


def merge_into(target: Dict[str, object], snapshot: Dict[str, object]) -> None:
    """Add one snapshot into another (spans and counters sum)."""
    spans = target.setdefault("spans", {})
    for name, values in snapshot.get("spans", {}).items():
        entry = spans.setdefault(name, [0, 0.0, 0.0, 0.0])
        for i, value in enumerate(values):
            entry[i] += value
    counters = target.setdefault("counters", {})
    for name, value in snapshot.get("counters", {}).items():
        counters[name] = counters.get(name, 0.0) + value
    samples = target.setdefault("samples", {})
    for name, values in snapshot.get("samples", {}).items():
        samples.setdefault(name, []).extend(values)


def empty_snapshot() -> Dict[str, object]:
    return {"spans": {}, "counters": {}, "samples": {}}


TRACER = Tracer()

_clock = time.perf_counter


def _wrap(name: str, fn: Callable, units=None, after=None) -> Callable:
    """A timing wrapper recording span *name* around *fn*.

    ``units(args, out)`` gives the span's unit count (default 1);
    ``after(args, kwargs, out)`` updates counters.  A call nested in a
    span of the same name (a batched kernel falling back to the serial
    one) is passed through, so work is never counted twice.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        stack = tracer.stack
        if not tracer.enabled or stack.depth.get(name, 0):
            return fn(*args, **kwargs)
        stack.enter(name, _clock())
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            stack.exit(_clock(), 0.0)
            raise
        stack.exit(_clock(), 1.0 if units is None else units(args, out))
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


# -- unit counters ----------------------------------------------------------


def _lead(index: int):
    """Units = leading dimension of positional argument *index*."""
    return lambda args, out: float(np.shape(args[index])[0])


def _len_arg(index: int):
    return lambda args, out: float(len(args[index]))


def _frames_4d(args, out) -> float:
    shape = np.shape(args[0])
    return float(shape[0]) if len(shape) == 4 else 1.0


def _zero(args, out) -> float:
    return 0.0


# -- counter hooks ----------------------------------------------------------


def _render_one(args, kwargs, out) -> None:
    if TRACER.stack.active("hil.batch"):
        TRACER.count("hil.batch.render_calls")
        TRACER.count("hil.batch.render_frames")


def _render_many(args, kwargs, out) -> None:
    if TRACER.stack.active("hil.batch"):
        TRACER.count("hil.batch.render_calls")
        TRACER.count("hil.batch.render_frames", len(args[1]))


def _perceived_one(args, kwargs, out) -> None:
    TRACER.count("perception.frames")
    TRACER.count("perception.valid", 1.0 if out.valid else 0.0)


def _perceived_many(args, kwargs, out) -> None:
    TRACER.count("perception.frames", len(out))
    TRACER.count("perception.valid", sum(1.0 for r in out if r.valid))


def _cache_loaded(args, kwargs, out) -> None:
    if out is not None:
        TRACER.count("cache.hits")


def _cache_stored(args, kwargs, out) -> None:
    if out is not None:
        TRACER.count("cache.entries")
        TRACER.count("cache.bytes", Path(out).stat().st_size)


def _encoded(args, kwargs, out) -> None:
    TRACER.count("service.protocol.response_bytes", len(out))


# -- installation -----------------------------------------------------------

_INSTALLED: List[Tuple[object, str, object]] = []


def _patch(owner, attr: str, name: str, units=None, after=None, static=False) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    fn = original.__func__ if static else original
    wrapped = _wrap(name, fn, units, after)
    setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
    _INSTALLED.append((owner, attr, original))


def _parallel_map_wrapper(fn: Callable) -> Callable:
    """Span + failure/capacity accounting around a sweep fan-out."""
    from repro.utils.parallel import TaskFailure, resolve_jobs

    @functools.wraps(fn)
    def wrapper(task_fn, items, *, jobs=None, label="sweep"):
        tracer = TRACER
        if not tracer.enabled:
            return fn(task_fn, items, jobs=jobs, label=label)
        items = list(items)
        stack = tracer.stack
        stack.enter("utils.parallel.map", _clock())
        try:
            out = fn(task_fn, items, jobs=jobs, label=label)
        finally:
            duration = stack.exit(_clock(), float(len(items)))
        workers = max(1, min(resolve_jobs(jobs), len(items)))
        tracer.count("utils.parallel.capacity_s", workers * duration)
        tracer.count(
            "utils.parallel.failed",
            sum(1 for r in out if isinstance(r, TaskFailure)),
        )
        if label == "prescreen":
            tracer.count("core.characterization.prescreen_s", duration)
        return out

    return wrapper


def exec_key(params: Dict[str, object]) -> str:
    """Canonical key of a served request's parameters."""
    plain = {k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()}
    return json.dumps(plain, sort_keys=True)


def _simulate_exec_wrapper(fn: Callable) -> Callable:
    """``service.exec``: time inside ``repro.api.simulate`` in a worker."""

    @functools.wraps(fn)
    def wrapper(**kwargs):
        tracer = TRACER
        if not tracer.enabled:
            return fn(**kwargs)
        started = time.time()
        tracer.stack.enter("service.exec", _clock())
        try:
            out = fn(**kwargs)
        finally:
            duration = tracer.stack.exit(_clock())
        tracer.sample("service.exec", [exec_key(kwargs), started, duration * 1e3])
        return out

    return wrapper


def _execute_request_wrapper(fn: Callable) -> Callable:
    """Flush the worker's spans to its span file after every request."""

    @functools.wraps(fn)
    def wrapper(op, params):
        try:
            return fn(op, params)
        finally:
            flush_to_dir("worker")

    return wrapper


def flush_to_dir(role: str) -> None:
    """Append this process's spans to its file and start afresh."""
    directory = os.environ.get(SPAN_DIR_ENV)
    if not directory or not TRACER.enabled:
        return
    path = Path(directory) / f"{role}-{os.getpid()}.jsonl"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(TRACER.snapshot()) + "\n")
    TRACER.reset()


def read_span_dir(directory: Path) -> Dict[str, object]:
    """Merge every flushed snapshot under *directory*."""
    total = empty_snapshot()
    for path in sorted(Path(directory).glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                merge_into(total, json.loads(line))
    return total


def _funnel_begin():
    return TRACER.swap(), _clock()


def _funnel_end(handle):
    saved, started = handle
    TRACER.count("utils.parallel.tasks")
    TRACER.count("utils.parallel.task_s", _clock() - started)
    snapshot = TRACER.snapshot()
    TRACER.restore(saved)
    return snapshot


def install(*, served: bool = False) -> None:
    """Wrap every layer's public entry points and enable collection.

    ``served`` adds the service-side wrappers (``service.exec`` and the
    per-request worker flush).  Pools forked earlier do not see the
    wrappers, so the persistent sweep pool is shut down here and the
    next fan-out re-forks with them.
    """
    if _INSTALLED:
        TRACER.enabled = True
        return
    import repro.api
    import repro.cache.store as cache_store
    import repro.control.controller as controller
    import repro.control.gains as gains
    import repro.core.characterization as characterization
    import repro.core.reconfiguration as reconfiguration
    import repro.hil.batch as hil_batch
    import repro.hil.engine as hil_engine
    import repro.isp.pipeline as isp_pipeline
    import repro.perception.bev as bev
    import repro.perception.evaluation as evaluation
    import repro.perception.pipeline as perception_pipeline
    import repro.service.protocol as protocol
    import repro.service.server as server
    import repro.sim.renderer as renderer
    import repro.sim.track as track
    import repro.sim.vehicle as vehicle
    from repro.utils import parallel

    _patch(renderer.RoadSceneRenderer, "render_raw", "sim.renderer", after=_render_one)
    _patch(hil_batch, "render_raw_batch", "sim.renderer", _len_arg(1), _render_many)

    _patch(isp_pipeline.IspPipeline, "process", "isp")
    _patch(isp_pipeline.IspPipeline, "process_batch", "isp", _lead(1))
    _patch(isp_pipeline, "demosaic", "isp.demosaic")
    _patch(isp_pipeline, "demosaic_batch", "isp.demosaic", _lead(0))

    _patch(perception_pipeline.PerceptionPipeline, "process", "perception",
           after=_perceived_one)
    _patch(hil_batch, "perception_process_batch", "perception", _len_arg(1),
           _perceived_many)
    _patch(evaluation, "process_batch", "perception", _len_arg(1), _perceived_many)
    _patch(bev.BevGrid, "warp", "perception.bev_warp")
    _patch(bev.BevGrid, "warp_batch", "perception.bev_warp", _lead(1))
    _patch(perception_pipeline, "dynamic_threshold", "perception.threshold", _frames_4d)
    _patch(perception_pipeline, "find_lane_pixels", "perception.sliding_window")
    _patch(perception_pipeline, "fit_lane_lines", "perception.fit")

    _patch(reconfiguration.ReconfigurationManager, "decide",
           "core.reconfiguration.decide")
    _patch(reconfiguration.OracleIdentifier, "identify",
           "core.reconfiguration.identify")

    _patch(gains.GainScheduler, "gains_for", "control", _zero)
    _patch(controller.LaneKeepingController, "step", "control")

    _patch(vehicle.Vehicle, "step", "sim.vehicle")
    _patch(vehicle.Vehicle, "step_batch", "sim.vehicle", _lead(3), static=True)
    _patch(track.Track, "frenet", "sim.track.frenet")
    _patch(track.Track, "frenet_batch", "sim.track.frenet", _lead(1))

    _patch(hil_engine.HilEngine, "run", "hil")
    _patch(hil_batch.BatchedHilEngine, "run", "hil.batch")

    _patch(cache_store.RolloutCache, "load", "cache.load", after=_cache_loaded)
    _patch(cache_store.RolloutCache, "store", "cache.store", after=_cache_stored)

    original_map = characterization.parallel_map
    characterization.parallel_map = _parallel_map_wrapper(original_map)
    _INSTALLED.append((characterization, "parallel_map", original_map))

    _patch(protocol, "encode_response", "service.protocol.encode", after=_encoded)
    if served:
        original_simulate = repro.api.simulate
        repro.api.simulate = _simulate_exec_wrapper(original_simulate)
        _INSTALLED.append((repro.api, "simulate", original_simulate))
        original_execute = server._execute_request
        server._execute_request = _execute_request_wrapper(original_execute)
        _INSTALLED.append((server, "_execute_request", original_execute))

    parallel.register_stats_funnel(
        parallel.StatsFunnel(
            name="perfbench",
            parent_active=lambda: TRACER.enabled,
            begin_task=_funnel_begin,
            end_task=_funnel_end,
            merge=TRACER.merge,
        )
    )
    TRACER.enabled = True
    parallel.shutdown_pool()
