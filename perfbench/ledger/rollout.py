"""``rollout``: the paper's closed loop, serial, in process, cache off.

A pass is a fixed list of ``repro.api.simulate`` calls at the default
384x192 camera: three static tracks under ``case4`` (straight, dark
scene, curve) and one shortened Fig. 7 dynamic track under
``variable`` with an ``oracle:<acc>`` identifier, so ISP/ROI
reconfiguration and the invocation scheme run.  The seed picks the
static rollouts' run seeds; the list itself never changes, so the
median of a pass has a fixed composition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from ledger.common import Outcome, derive_seed, median, nearest_rank, result_digest
from ledger.hostref import HostReference, between, scale

NAME = "rollout"
JOBS = 1
#: Identifier accuracy of the dynamic-track rollout.
ORACLE_ACCURACY = 0.9
#: Run seed of the dynamic-track rollout.
FIG7_SEED = 7


@dataclass(frozen=True)
class Spec:
    label: str
    kwargs: Dict[str, object]
    nominal: bool


def make_specs(seed: int) -> List[Spec]:
    """The pass: (label, simulate keywords, is a nominal case4 run)."""
    from repro.core.situation import situation_by_index
    from repro.sim.world import fig7_track, static_situation_track

    # Lengths chosen so the three static rollouts cost about the same
    # (~150/115/125 cycles): the median then sits among similar
    # rollouts instead of between two different ones.
    curve = static_situation_track(situation_by_index(8), length=35.0, lead_in=10.0)
    dynamic = fig7_track(straight_length=6.0, turn_length=4.0)
    return [
        Spec("straight", dict(situation=1, case="case4", length_m=60.0), True),
        Spec("dark", dict(situation=7, case="case4", length_m=80.0), True),
        Spec("curve", dict(situation=8, case="case4", track=curve), True),
        # A fixed run seed: the identifier's errors change this route's
        # speed profile and with it the cycle count (158 to 188 across
        # run seeds), which would make its time a property of the seed.
        Spec(
            "fig7",
            dict(
                case="variable",
                track=dynamic,
                identifier=f"oracle:{ORACLE_ACCURACY}",
                seed=FIG7_SEED,
            ),
            False,
        ),
    ]


def _seeded(spec: Spec, seed: int) -> Dict[str, object]:
    """Simulate keywords of one rollout; a seed in the spec wins."""
    return {"seed": derive_seed(seed, spec.label), **spec.kwargs, "cache": "off"}


class Rollout:
    """Fixtures, one pass, checks and metrics of the workload."""

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds

    def setup(self) -> None:
        """Import, build the tracks, and warm the per-resolution tables."""
        from repro.hil.engine import HilConfig, HilEngine
        from repro.isp.pipeline import IspPipeline

        self.specs = make_specs(self.seed)
        self.ref = HostReference()
        for spec in self.specs:
            track = spec.kwargs.get("track")
            if track is None:
                from repro.core.situation import situation_by_index
                from repro.sim.world import static_situation_track

                track = static_situation_track(
                    situation_by_index(spec.kwargs["situation"]),
                    length=spec.kwargs["length_m"],
                )
            engine = HilEngine(track, spec.kwargs["case"], config=HilConfig())
            raw = engine.renderer.render_raw(track.start_pose())
            rgb = IspPipeline("S0").process(raw)
            engine.perception.process(rgb)

    def unit(self, traced: bool) -> Dict[str, object]:
        """One pass over the rollout list."""
        import repro.api
        from ledger.tracing import TRACER

        rollouts = []
        refs = [self.ref.sample()]
        for spec in self.specs:
            kwargs = _seeded(spec, self.seed)
            if traced:
                TRACER.stack.enter("rollout", time.perf_counter())
            t0 = time.perf_counter()
            result = repro.api.simulate(**kwargs)
            wall = time.perf_counter() - t0
            if traced:
                TRACER.stack.exit(time.perf_counter())
            refs.append(self.ref.sample())
            rollouts.append(
                {
                    "label": spec.label,
                    "wall_s": wall,
                    "cycles": len(result.cycles),
                    "crashed": bool(result.crashed),
                    "completed": bool(result.completed),
                    "nominal": spec.nominal,
                    "digest": result_digest(result),
                }
            )
        for i, r in enumerate(rollouts):
            r["scaled_s"] = scale(r["wall_s"], between(refs, i))
        return {
            "rollouts": rollouts,
            "wall_s": sum(r["wall_s"] for r in rollouts),
            "scaled_s": sum(r["scaled_s"] for r in rollouts),
        }

    def record_ops(self, units: List[dict], outcome: Outcome) -> None:
        for unit in units:
            for r in unit["rollouts"]:
                ok = not (r["nominal"] and r["crashed"])
                outcome.op(ok, f"nominal case4 rollout {r['label']!r} crashed")

    def checks(self, units: List[dict], outcome: Outcome) -> None:
        """A sampled one-seed batch lane equals its serial rollout."""
        import repro.api

        spec = self.specs[int(derive_seed(self.seed, "lane-check") % 2)]
        kwargs = _seeded(spec, self.seed)
        seed = kwargs.pop("seed")
        lane = repro.api.simulate(seed=[seed], batch=1, **kwargs)[0]
        serial = next(r for r in units[0]["rollouts"] if r["label"] == spec.label)
        outcome.check(
            result_digest(lane) == serial["digest"],
            f"batched lane of {spec.label!r} differs from the serial rollout",
        )
        outcome.info["lane_check"] = spec.label

    def digest(self, unit: dict) -> List[str]:
        return [r["digest"] for r in unit["rollouts"]]

    def metrics(self, units: List[dict], outcome: Outcome) -> None:
        walls = [r["wall_s"] for u in units for r in u["rollouts"]]
        scaled = [r["scaled_s"] for u in units for r in u["rollouts"]]
        cycles = sum(r["cycles"] for u in units for r in u["rollouts"])
        outcome.metric("op_p50_ms", median(scaled) * 1e3, "ms")
        outcome.metric("op_p90_ms", nearest_rank(scaled, 90.0) * 1e3, "ms")
        outcome.metric("throughput_per_s", cycles / sum(scaled), "1/s")
        outcome.info.update(
            rollout_p50_s=median(scaled),
            rollout_samples=len(walls),
            cycles_per_s=cycles / sum(scaled),
            raw_rollout_p50_s=median(walls),
            raw_cycles_per_s=cycles / sum(walls),
            passes=len(units),
            first_pass_walls_s={r["label"]: r["wall_s"] for r in units[0]["rollouts"]},
            first_pass_cycles={r["label"]: r["cycles"] for r in units[0]["rollouts"]},
        )

    def enable_tracing(self) -> None:
        from ledger import tracing

        tracing.install()

    def traced_snapshot(self) -> dict:
        from ledger.tracing import TRACER

        return TRACER.snapshot()

    def teardown(self) -> None:
        pass
