"""Per-stage wall clock of one closed-loop cycle (this PR's profiler).

Runs a short HiL episode with :class:`HilConfig` profiling enabled and
records each stage's measured mean latency in ``extra_info``, next to
the Table II modeled figure the control design assumes.  This is the
observability counterpart of ``bench_table2_runtimes``: that bench
reproduces the *modeled* numbers, this one shows where this host's
wall clock actually goes.

The stage means measured while ``HilEngine.run`` still had its own
per-step serial loop are kept in :data:`BEFORE_ONE_LOOP` and recorded
as ``before_<stage>_mean_ms`` beside the current ones.

Also pins the telemetry no-op contract: with no recorder active the
per-cycle hooks cost one ``get_active() is None`` check, so a disabled
run's wall clock and simulated arrays must be indistinguishable from a
build without the subsystem.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.situation import situation_by_index
from repro.hil.engine import HilConfig, HilEngine
from repro.platform.profiles import control_runtime_ms, pr_runtime_ms
from repro.sim.world import static_situation_track
from repro.telemetry import TelemetryRecorder, activated
from repro.utils.profiling import format_stage_table

#: Per-stage mean ms of this episode under the per-step serial loop
#: (Intel Xeon, 2 vCPUs, numpy 2.4.6, Python 3.11).
BEFORE_ONE_LOOP = {
    "hil.render": 3.685,
    "isp.demosaic": 1.285,
    "isp.gamut_map": 0.340,
    "hil.isp": 1.687,
    "hil.classifier": 0.046,
    "hil.pr": 6.055,
    "hil.control": 0.074,
}


def test_pipeline_stage_profile(once, benchmark, capsys):
    track = static_situation_track(situation_by_index(1), length=60.0)
    config = HilConfig(
        seed=7, frame_width=192, frame_height=96, profile=True
    )
    engine = HilEngine(track, "case4", config=config)
    result = once(engine.run)

    assert result.profile, "profiling was enabled but no stats were recorded"
    with capsys.disabled():
        print()
        print(result.profile_table())

    for label, stat in result.profile.items():
        benchmark.extra_info[f"{label}_mean_ms"] = round(stat.mean_ms, 4)
        benchmark.extra_info[f"{label}_count"] = stat.count
    for label, mean_ms in BEFORE_ONE_LOOP.items():
        benchmark.extra_info[f"before_{label}_mean_ms"] = mean_ms
    benchmark.extra_info["modeled_pr_ms"] = pr_runtime_ms()
    benchmark.extra_info["modeled_control_ms"] = control_runtime_ms()

    # Every cycle must have passed through the whole sensing chain.
    cycles = len(result.cycles)
    for label in ("hil.render", "hil.isp", "hil.pr", "hil.control"):
        assert result.profile[label].count == cycles
    # The table renderer must accept the stats it produced.
    assert "hil.isp" in format_stage_table(result.profile)


def test_telemetry_noop_overhead(once, benchmark):
    """Disabled telemetry must not be measurable in the closed loop."""
    track = static_situation_track(situation_by_index(1), length=60.0)
    config = HilConfig(seed=7, frame_width=192, frame_height=96)

    def run_pair():
        t0 = time.perf_counter()
        disabled = HilEngine(track, "case4", config=config).run()
        t1 = time.perf_counter()
        with activated(TelemetryRecorder()) as rec:
            enabled = HilEngine(track, "case4", config=config).run()
        t2 = time.perf_counter()
        return disabled, enabled, rec, t1 - t0, t2 - t1

    disabled, enabled, rec, off_s, on_s = once(run_pair)

    benchmark.extra_info["telemetry_off_s"] = round(off_s, 4)
    benchmark.extra_info["telemetry_on_s"] = round(on_s, 4)
    benchmark.extra_info["events_recorded"] = len(rec.events)

    # The observability contract: same simulated trace either way.
    np.testing.assert_array_equal(disabled.time_s, enabled.time_s)
    np.testing.assert_array_equal(
        disabled.lateral_offset, enabled.lateral_offset
    )
    np.testing.assert_array_equal(disabled.steering, enabled.steering)
    assert len(rec.events) >= 2 * len(enabled.cycles)
