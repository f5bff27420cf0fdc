"""Micro-benchmarks of the substrate hot paths (repeated timing).

Unlike the experiment benches (one run, scientific output), these
measure throughput of the individual pipeline pieces: frame rendering,
ISP configurations, perception, control design and classifier
inference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.classifiers.models import build_tiny_resnet
from repro.control.lqr import design_lqr
from repro.core.situation import situation_by_index
from repro.isp.pipeline import IspPipeline
from repro.perception.pipeline import PerceptionPipeline
from repro.sim.camera import CameraModel
from repro.sim.renderer import RoadSceneRenderer, render_raw_batch
from repro.sim.vehicle import Vehicle, VehicleParams, VehicleState
from repro.sim.world import static_situation_track


@pytest.fixture(scope="module")
def scene():
    camera = CameraModel(width=384, height=192)
    track = static_situation_track(situation_by_index(1), length=200.0)
    renderer = RoadSceneRenderer(camera, track, seed=0)
    pose = track.pose_at(40.0, 0.1)
    raw = renderer.render_raw(pose)
    rgb = IspPipeline("S0").process(raw)
    return camera, track, renderer, pose, raw, rgb


def test_bench_render_raw(benchmark, scene):
    _, _, renderer, pose, _, _ = scene
    benchmark(renderer.render_raw, pose)


#: Best-of-50 ms of ``render_raw`` and ``render_raw_batch`` while the
#: renderer still computed full RGB frames and mosaicked them (median
#: of five runs; Intel Xeon, 2 vCPUs, numpy 2.4.6, Python 3.11).
BEFORE_BAYER_KERNEL = {
    (48, 24, 8): {"render_raw_ms": 0.374, "batch_ms": 1.866},
    (384, 192, 4): {"render_raw_ms": 12.764, "batch_ms": 58.592},
}


def _best_ms(fn, repeats: int = 50) -> float:
    """Best-of-repeats wall clock of ``fn()`` in milliseconds."""
    import time

    fn()  # warm caches
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


@pytest.mark.parametrize(
    "width,height,lanes", [(48, 24, 8), (384, 192, 4)], ids=["48x24-B8", "384x192-B4"]
)
def test_bench_render_raw_batch(benchmark, width, height, lanes):
    """Stacked render of one sweep-sized batch, with the before/after ledger.

    ``extra_info`` records best-of-50 ``render_raw`` and
    ``render_raw_batch`` times beside the figures measured before the
    renderer wrote the Bayer plane directly.
    """
    camera = CameraModel(width=width, height=height)
    track = static_situation_track(situation_by_index(1), length=200.0)
    renderers = [RoadSceneRenderer(camera, track, seed=k) for k in range(lanes)]
    poses = [track.pose_at(40.0 + 2.0 * k, 0.1) for k in range(lanes)]

    render_raw_ms = _best_ms(lambda: renderers[0].render_raw(poses[0]))
    batch_ms = _best_ms(lambda: render_raw_batch(renderers, poses))
    benchmark.extra_info["render_raw_ms"] = round(render_raw_ms, 4)
    benchmark.extra_info["batch_ms"] = round(batch_ms, 4)
    for name, before_ms in BEFORE_BAYER_KERNEL[(width, height, lanes)].items():
        benchmark.extra_info[f"before_{name}"] = before_ms

    frames = benchmark(render_raw_batch, renderers, poses)
    assert frames.shape == (lanes, height, width)


@pytest.mark.parametrize("config", ["S0", "S3", "S5", "S8"])
def test_bench_isp(benchmark, scene, config):
    _, _, _, _, raw, _ = scene
    pipeline = IspPipeline(config)
    pipeline.process(raw)  # warm shape caches
    benchmark(pipeline.process, raw)


def test_bench_perception(benchmark, scene):
    camera, _, _, _, _, rgb = scene
    pipeline = PerceptionPipeline(camera, "ROI 1")
    pipeline.process(rgb)
    benchmark(pipeline.process, rgb)


def test_bench_lqr_design(benchmark):
    params = VehicleParams()
    benchmark(design_lqr, params, 13.9, 0.025, 0.0246)


def test_bench_vehicle_step(benchmark):
    from repro.sim.geometry import Pose2D

    vehicle = Vehicle(VehicleParams(), VehicleState(pose=Pose2D(0, 0, 0)))
    benchmark(vehicle.step, 0.005, 0.05)


def _time_forward(model, x, repeats: int = 50) -> float:
    """Best-of-repeats forward wall clock in milliseconds."""
    import time

    model.forward(x)  # warm caches
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        model.forward(x)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def test_bench_classifier_inference(benchmark):
    """Deployment-path (fused) inference, with the optimisation ledger.

    ``extra_info`` records the fast-path win of this PR: seed-style
    (allocating im2col, unfused) vs unfused-with-scratch vs fused, plus
    the end-to-end speedup and the fused/unfused numeric agreement.
    """
    import repro.nn.layers as nn_layers

    model = build_tiny_resnet(5, seed=0)
    fused = model.fuse()
    x = np.random.default_rng(0).standard_normal((1, 3, 24, 48)).astype(np.float32)

    # Seed-style baseline: disable the inference scratch pool so conv
    # falls back to the allocating np.pad/im2col path of the seed tree.
    saved = nn_layers._INFERENCE_SCRATCH
    nn_layers._INFERENCE_SCRATCH = None
    try:
        seed_style_ms = _time_forward(model, x)
    finally:
        nn_layers._INFERENCE_SCRATCH = saved
    unfused_ms = _time_forward(model, x)
    fused_ms = _time_forward(fused, x)
    max_diff = float(np.max(np.abs(model.forward(x) - fused.forward(x))))

    benchmark.extra_info["seed_style_ms"] = round(seed_style_ms, 4)
    benchmark.extra_info["unfused_ms"] = round(unfused_ms, 4)
    benchmark.extra_info["fused_ms"] = round(fused_ms, 4)
    benchmark.extra_info["speedup_vs_seed"] = round(seed_style_ms / fused_ms, 2)
    benchmark.extra_info["fused_max_abs_diff"] = max_diff

    assert max_diff < 1e-4
    assert seed_style_ms / fused_ms >= 2.0

    benchmark(fused.forward, x)
