"""Unit tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ledger import tracing
from ledger.common import median, nearest_rank, result_digest
from ledger.layers import LEDGER, ledger_values
from ledger.loadgen import PATTERN, REPEAT_AFTER_S, make_schedule
from ledger.tracing import SpanStack, _wrap

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- percentiles ------------------------------------------------------------


def test_nearest_rank_picks_an_observed_value():
    values = [7.0, 1.0, 3.0, 10.0, 2.0, 9.0, 4.0, 8.0, 6.0, 5.0]
    assert nearest_rank(values, 50) == 5.0
    assert nearest_rank(values, 90) == 9.0
    assert nearest_rank(values, 91) == 10.0
    assert nearest_rank(values, 100) == 10.0
    assert nearest_rank(values, 1) == 1.0
    assert nearest_rank([4.2], 90) == 4.2


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


# -- self time --------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    stack = SpanStack()
    stack.enter("root", 0.0)
    stack.enter("a", 1.0)
    stack.enter("b", 2.0)
    stack.exit(3.0)  # b: 1 s, no children
    stack.exit(4.0)  # a: 3 s, child b 1 s
    stack.enter("c", 5.0)
    stack.exit(9.0, units=4)  # c: 4 s
    stack.exit(10.0)  # root: 10 s, children a + c = 7 s
    calls, total, own, _ = stack.stats["root"]
    assert (calls, total, own) == (1, 10.0, 3.0)
    assert stack.stats["a"][1:3] == [3.0, 2.0]
    assert stack.stats["b"][1:3] == [1.0, 1.0]
    assert stack.stats["c"] == [1, 4.0, 4.0, 4]
    assert sum(v[2] for v in stack.stats.values()) == stack.stats["root"][1]


def test_same_name_nesting_is_counted_once():
    saved = tracing.TRACER.swap()
    tracing.TRACER.enabled = True
    try:
        inner = _wrap("kernel", lambda: 1)
        outer = _wrap("kernel", lambda: inner() + 1)
        assert outer() == 2
        assert tracing.TRACER.stack.stats["kernel"][0] == 1
    finally:
        tracing.TRACER.enabled = False
        tracing.TRACER.restore(saved)


def test_disabled_wrapper_records_nothing():
    saved = tracing.TRACER.swap()
    try:
        assert _wrap("idle", lambda x: x * 2)(3) == 6
        assert tracing.TRACER.stack.stats == {}
    finally:
        tracing.TRACER.restore(saved)


# -- schedule ---------------------------------------------------------------


def test_schedule_is_a_pure_function_of_the_seed():
    assert make_schedule(5, 20.0, 3.0) == make_schedule(5, 20.0, 3.0)
    a = [p.params for p in make_schedule(5, 20.0, 3.0)]
    b = [p.params for p in make_schedule(6, 20.0, 3.0)]
    assert a != b


def test_schedule_spacing_and_mix():
    plan = make_schedule(1, 20.0, 3.0)
    assert len(plan) == 60
    gaps = np.diff([p.due_s for p in plan])
    assert np.allclose(gaps, 1.0 / 3.0)
    for p in plan:
        if PATTERN[p.index % len(PATTERN)] == "C":
            assert p.kind == "control" and p.op in ("health", "stats")
        else:
            assert p.op == "simulate" and p.kind in ("miss", "hit")
    assert plan[0].kind == "miss"
    # The slot pattern fixes the mix for every seed.
    kinds = [[p.kind for p in make_schedule(s, 20.0, 3.0)] for s in (1, 2, 3)]
    assert kinds[0] == kinds[1] == kinds[2]


def test_hits_repeat_keys_first_due_long_enough_before():
    plan = make_schedule(3, 30.0, 3.0)
    first = {}
    hits = 0
    for p in plan:
        if p.kind == "miss":
            key = json.dumps(p.params, sort_keys=True)
            assert key not in first
            first[key] = p.due_s
        elif p.kind == "hit":
            hits += 1
            key = json.dumps(p.params, sort_keys=True)
            assert p.due_s - first[key] >= REPEAT_AFTER_S
    assert hits > len(plan) // 2


# -- ledger -----------------------------------------------------------------


def test_ledger_matches_benchmark_json():
    declared = json.loads(BENCHMARK.read_text())["per_layer"]
    assert [(m.name, m.unit, m.better) for m in LEDGER] == [
        (m["name"], m["unit"], m["better"]) for m in declared
    ]


def test_zero_calls_fail_only_on_listed_workloads():
    empty = {"spans": {}, "counters": {}, "samples": {}}
    _, rollout = ledger_values(empty, "rollout", {})
    assert any(p.startswith("sim.renderer.ms_per_frame") for p in rollout)
    assert not any(p.startswith("service.exec") for p in rollout)
    _, served = ledger_values(empty, "served", {})
    assert any(p.startswith("service.exec.ms_p50") for p in served)


def test_digest_sees_every_simulated_value():
    arrays = {n: np.linspace(0.0, 1.0, 5) for n in
              ("time_s", "s", "lateral_offset", "y_l_true", "steering", "speed")}
    base = SimpleNamespace(cycles=[], crashed=False, crash_s=None, completed=True, **arrays)
    changed = SimpleNamespace(**{**vars(base), "steering": arrays["steering"] + 1e-16})
    assert result_digest(base) == result_digest(SimpleNamespace(**vars(base)))
    assert result_digest(base) != result_digest(changed)
