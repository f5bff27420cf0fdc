"""``sweep``: the Table III characterization at design-time fidelity.

A round characterizes a fixed set of situations one at a time through
``repro.api.characterize(situations=[s], jobs=nproc, batch="auto")`` at
a 48x24 camera on 60 m tracks: first against an empty rollout store
(cold: prescreen, rollouts, store writes), then again against the
store it just filled (warm: loads only).  Each round starts from a
fresh cache directory.

The characterization itself is the repo's default (seed 11): which ISP
candidates survive the prescreen depends on that seed, and with it the
number of rollouts per situation, so a run-seeded characterization
would make the per-situation times a property of the seed rather than
of the code.  The run seed permutes the order the situations are
characterized in.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List

from ledger.common import (
    Outcome,
    derive_seed,
    fresh_dir,
    median,
    nearest_rank,
    nproc,
    remove_dir,
)
from ledger.hostref import HostReference, between, scale

NAME = "sweep"
JOBS = nproc()
#: Situations characterized per round: all of Table III.
SITUATIONS = tuple(range(1, 22))


def shape_problems(table, config) -> List[str]:
    """Broken layout -> ROI/speed rules of Table III.

    The ROI follows the layout family and every knob comes from the
    swept sets.  The paper's speed outcomes (50 km/h on straights,
    30 km/h on right turns, asserted by the Table III benchmark at the
    default 384x192 fidelity) are not invariants at 48x24; they are
    reported by :func:`speed_rule_breaks` instead.
    """
    from repro.core.situation import RoadLayout

    families = {
        RoadLayout.STRAIGHT: ("ROI 1",),
        RoadLayout.RIGHT: ("ROI 2", "ROI 3"),
        RoadLayout.LEFT: ("ROI 4", "ROI 5"),
    }
    problems = []
    for situation, knobs in table.items():
        ok = (
            knobs.roi in families[situation.layout]
            and knobs.speed_kmph in config.speeds_kmph
            and knobs.isp in config.isp_names
        )
        if not ok:
            problems.append(f"{situation.describe()}: {knobs}")
    return problems


def speed_rule_breaks(table) -> int:
    """Rows that differ from the paper's speed choice (informational)."""
    from repro.core.situation import RoadLayout

    expected = {RoadLayout.STRAIGHT: 50.0, RoadLayout.RIGHT: 30.0}
    return sum(
        1
        for situation, knobs in table.items()
        if expected.get(situation.layout, knobs.speed_kmph) != knobs.speed_kmph
    )


def _table_key(table) -> Dict[str, object]:
    return {s.describe(): (k.isp, k.roi, k.speed_kmph) for s, k in table.items()}


class Sweep:
    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds

    def setup(self) -> None:
        """Import, build the sweep config, warm the tables, fork the pool.

        Everything the workers would otherwise import or build lazily on
        their first task (the batched engine, the prescreen, the 48x24
        demosaic and BEV tables) is made here first, so the forked pool
        inherits it.
        """
        import numpy as np

        import repro.hil.batch  # noqa: F401
        import repro.perception.evaluation  # noqa: F401
        from repro.core.characterization import CharacterizationConfig
        from repro.core.situation import situation_by_index
        from repro.hil.engine import HilConfig, HilEngine
        from repro.isp.pipeline import IspPipeline
        from repro.sim.world import static_situation_track
        from repro.utils.parallel import get_executor

        self.config = CharacterizationConfig(
            frame_width=48,
            frame_height=24,
            track_length=60.0,
        )
        order = list(SITUATIONS)
        random.Random(derive_seed(self.seed, "order")).shuffle(order)
        self.situations = [situation_by_index(i) for i in order]
        track = static_situation_track(self.situations[0], length=10.0)
        engine = HilEngine(track, "case4", config=HilConfig(frame_width=48, frame_height=24))
        raw = engine.renderer.render_raw(track.start_pose())
        rgb = IspPipeline("S0").process_batch(np.stack([raw, raw]))
        engine.perception.process(rgb[0])
        self.ref = HostReference()
        pool = get_executor(JOBS)
        # One no-op per worker forks the whole pool now, not in round 1.
        futures = [pool.submit(os.getpid) for _ in range(JOBS)]
        self.worker_pids = sorted({f.result() for f in futures})

    def _pass(self, store, reference: bool) -> Dict[str, object]:
        """Characterize every situation once; *reference* brackets each
        situation with host-reference samples."""
        import repro.api
        from repro.cache import global_stats

        before = global_stats().snapshot()
        walls, table = [], {}
        refs = [self.ref.sample()] if reference else []
        for situation in self.situations:
            t0 = time.perf_counter()
            part = repro.api.characterize(
                situations=[situation],
                config=self.config,
                jobs=JOBS,
                batch="auto",
                cache=store,
            )
            walls.append(time.perf_counter() - t0)
            table.update(part)
            if reference:
                refs.append(self.ref.sample())
        delta = global_stats().since(before)
        scaled = [scale(w, between(refs, i)) for i, w in enumerate(walls)] if reference else []
        return {"walls": walls, "scaled": scaled, "table": table, "cache": delta.as_dict()}

    def unit(self, traced: bool) -> Dict[str, object]:
        """One cold round and one warm round against a fresh cache dir.

        ``REPRO_CACHE_DIR`` moves with the round: the prescreen vectors
        live in the artifact cache under it, beside the rollout store.
        """
        store = fresh_dir("sweep-cache-")
        previous = os.environ["REPRO_CACHE_DIR"]
        os.environ["REPRO_CACHE_DIR"] = str(store)
        try:
            cold = self._pass("auto", reference=True)
            warm = self._pass("auto", reference=False)
        finally:
            os.environ["REPRO_CACHE_DIR"] = previous
            remove_dir(store)
        return {
            "cold_walls": cold["walls"],
            "cold_scaled": cold["scaled"],
            "warm_walls": warm["walls"],
            "cold_table": _table_key(cold["table"]),
            "warm_table": _table_key(warm["table"]),
            "cold_cache": cold["cache"],
            "warm_cache": warm["cache"],
            "shape_problems": shape_problems(cold["table"], self.config),
            "speed_rule_breaks": speed_rule_breaks(cold["table"]),
            "wall_s": sum(cold["walls"]) + sum(warm["walls"]),
            "scaled_s": sum(cold["scaled"]),
        }

    def record_ops(self, units: List[dict], outcome: Outcome) -> None:
        for unit in units:
            for phase in ("cold", "warm"):
                for name in unit[f"{phase}_table"]:
                    outcome.op(True)
            outcome.check(
                unit["warm_table"] == unit["cold_table"],
                "warm table differs from the cold table",
            )
            cold, warm = unit["cold_cache"], unit["warm_cache"]
            outcome.check(
                cold["hits"] == 0 and cold["stores"] > 0,
                f"cold round was not cold: {cold}",
            )
            outcome.check(
                warm["misses"] == 0 and warm["hits"] == cold["stores"],
                f"warm round missed the store: {warm} after {cold}",
            )
            for problem in unit["shape_problems"]:
                outcome.check(False, f"Table III shape rule broken: {problem}")

    def checks(self, units: List[dict], outcome: Outcome) -> None:
        pass

    def digest(self, unit: dict) -> List[str]:
        return [repr(sorted(unit["cold_table"].items()))]

    def metrics(self, units: List[dict], outcome: Outcome) -> None:
        cold = [w for u in units for w in u["cold_scaled"]]
        outcome.metric("op_p50_ms", median(cold) * 1e3, "ms")
        outcome.metric("op_p90_ms", nearest_rank(cold, 90.0) * 1e3, "ms")
        outcome.metric("throughput_per_s", len(cold) / sum(cold), "1/s")
        outcome.info.update(
            raw_cold_p50_s=median([w for u in units for w in u["cold_walls"]]),
            sweep_cold_s=median([sum(u["cold_walls"]) for u in units]),
            sweep_warm_s=median([sum(u["warm_walls"]) for u in units]),
            rollouts_per_cold_round=units[0]["cold_cache"]["stores"],
            paper_speed_rule_breaks=units[0]["speed_rule_breaks"],
            cold_walls_s=units[0]["cold_walls"],
            rounds=len(units),
        )

    def enable_tracing(self) -> None:
        from ledger import tracing

        tracing.install()

    def traced_snapshot(self) -> dict:
        from ledger.tracing import TRACER

        return TRACER.snapshot()

    def teardown(self) -> None:
        from repro.utils.parallel import shutdown_pool

        shutdown_pool()
