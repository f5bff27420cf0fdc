"""Tests for the deterministic process-pool sweep runner."""

from __future__ import annotations

import os
import time

import pytest

from repro.utils import profiling
from repro.utils.parallel import (
    TaskFailure,
    parallel_map,
    resolve_batch,
    resolve_jobs,
    shutdown_pool,
    task_seed,
)
from repro.utils.rng import stream_seed


# Workers must live at module level so a process pool can pickle them.
def _square(x: int) -> int:
    return x * x


def _profiled_square(x: int) -> int:
    # Binary-exact values: any grouping of their sums is bit-identical,
    # so the jobs=1 / jobs=2 equivalence below can assert ==.
    profiling.get_active().observe("work.item", float(x))
    return x * x


def _counted_square(x: int) -> int:
    registry = profiling.get_active()
    registry.count("tasks")
    registry.observe("task.value", float(x))
    return x * x


def _square_unless_three(x: int) -> int:
    if x == 3:
        raise ValueError("three is right out")
    return x * x


def _sleep_then_identity(delay_s: float) -> float:
    # Earlier items sleep longer, so with >1 worker the completion
    # order inverts the submission order.
    time.sleep(delay_s)
    return delay_s


def _worker_pid(_: int) -> int:
    return os.getpid()


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        assert resolve_jobs(None) == 1

    def test_env_variable_supplies_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_explicit_value_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_auto_and_zero_mean_all_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) >= 1
        assert resolve_jobs("auto") == resolve_jobs(0)
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs() == resolve_jobs(0)

    def test_numeric_string_accepted(self):
        assert resolve_jobs("4") == 4

    def test_invalid_string_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs("many")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestParallelMapSerial:
    def test_maps_in_order(self):
        assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=1) == []
        assert parallel_map(_square, [], jobs=4) == []

    def test_serial_never_spawns_processes(self):
        # A closure is unpicklable, so this would blow up in any
        # process pool: jobs=1 must degenerate to a plain loop.
        offset = 10
        results = parallel_map(lambda x: x + offset, [1, 2], jobs=1)
        assert results == [11, 12]

    def test_failure_takes_slot_and_sweep_continues(self):
        results = parallel_map(_square_unless_three, [2, 3, 4], jobs=1)
        assert results[0] == 4 and results[2] == 16
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.index == 1
        assert failure.item == 3
        assert "three is right out" in failure.error

    def test_failures_are_falsy(self):
        results = parallel_map(_square_unless_three, [2, 3, 4], jobs=1)
        assert [r for r in results if r] == [4, 16]
        assert not TaskFailure(index=0, item=None, error="boom")


class TestParallelMapPool:
    def test_results_follow_submission_order(self):
        # Descending delays: with two workers the first item finishes
        # last, yet the results must come back in submission order.
        delays = [0.2, 0.1, 0.0]
        assert parallel_map(_sleep_then_identity, delays, jobs=2) == delays

    def test_pool_matches_serial(self):
        items = list(range(12))
        assert parallel_map(_square, items, jobs=2) == parallel_map(
            _square, items, jobs=1
        )

    def test_failure_in_worker_process(self):
        results = parallel_map(_square_unless_three, [1, 3, 5], jobs=2)
        assert results[0] == 1 and results[2] == 25
        assert isinstance(results[1], TaskFailure)
        assert results[1].item == 3

    def test_unpicklable_item_becomes_failure(self):
        # The pickling error surfaces on the submission side; it must be
        # contained as a TaskFailure, not abort the sweep.
        results = parallel_map(_square, [2, lambda: None, 4], jobs=2)
        assert results[0] == 4 and results[2] == 16
        assert isinstance(results[1], TaskFailure)


class TestStatsFunnel:
    """Worker collector stats must funnel back to the parent —
    identically for any worker count (the original bug: pooled sweeps
    silently dropped everything workers profiled)."""

    VALUES = [1.0, 2.0, 0.5, 4.0]

    def _profiled_sweep(self, jobs: int):
        registry = profiling.MetricsRegistry()
        with profiling.activated(registry):
            results = parallel_map(_profiled_square, self.VALUES, jobs=jobs)
        assert results == [v * v for v in self.VALUES]
        return registry.stage_stats()

    def test_pool_profiler_stats_match_serial(self):
        serial = self._profiled_sweep(jobs=1)
        pooled = self._profiled_sweep(jobs=2)
        assert serial == pooled
        assert serial["work.item"].count == len(self.VALUES)
        assert serial["work.item"].total_ms == pytest.approx(7.5)

    def test_registry_metrics_funnel_back(self):
        snapshots = {}
        for jobs in (1, 2):
            with profiling.activated(profiling.MetricsRegistry()) as registry:
                parallel_map(_counted_square, self.VALUES, jobs=jobs)
            snapshots[jobs] = registry.snapshot()
            assert registry.histogram("task.value") == self.VALUES
        assert snapshots[1] == snapshots[2]
        assert snapshots[1]["counters"]["tasks"] == len(self.VALUES)

    def test_inactive_collectors_funnel_nothing(self):
        # No profiler active in the parent: the plain path runs and the
        # worker-side get_active() would be None — the funnel must not
        # scope collectors nobody asked for.
        assert profiling.get_active() is None
        assert parallel_map(_square, [1, 2], jobs=1) == [1, 4]
        assert profiling.get_active() is None


class TestTaskSeed:
    def test_matches_indexed_stream(self):
        assert task_seed(7, "sweep", 3) == stream_seed(7, "sweep/3")

    def test_distinct_per_index(self):
        seeds = {task_seed(7, "sweep", i) for i in range(32)}
        assert len(seeds) == 32

    def test_deterministic(self):
        assert task_seed(1, "a", 0) == task_seed(1, "a", 0)


class TestPersistentPool:
    """The executor persists across sweeps: consecutive characterization
    phases (prescreen grid, then knob grid) must not pay worker
    spawn-and-import twice."""

    def test_back_to_back_sweeps_reuse_workers(self):
        shutdown_pool()  # a defined starting point
        try:
            first = parallel_map(_worker_pid, range(8), jobs=2)
            second = parallel_map(_worker_pid, range(8), jobs=2)
            # Workers spawned once: both sweeps draw from the same two
            # pool processes (a fast worker may grab every task of one
            # sweep, so the per-sweep sets need not be equal).
            assert len(set(first) | set(second)) <= 2
            assert all(pid != os.getpid() for pid in first)
        finally:
            shutdown_pool()

    def test_worker_count_change_rebuilds_pool(self):
        shutdown_pool()
        try:
            two = set(parallel_map(_worker_pid, range(8), jobs=2))
            three = set(parallel_map(_worker_pid, range(12), jobs=3))
            assert len(three - two) > 0  # at least one fresh worker
        finally:
            shutdown_pool()

    def test_shutdown_pool_discards_workers(self):
        shutdown_pool()
        try:
            first = set(parallel_map(_worker_pid, range(8), jobs=2))
            shutdown_pool()
            second = set(parallel_map(_worker_pid, range(8), jobs=2))
            assert first.isdisjoint(second)
        finally:
            shutdown_pool()

    def test_shutdown_without_pool_is_noop(self):
        shutdown_pool()
        shutdown_pool()


class TestResolveBatch:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "4")
        assert resolve_batch(8, n_tasks=100) == 8

    def test_env_supplies_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "6")
        assert resolve_batch(None, n_tasks=100) == 6

    def test_auto_splits_tasks_across_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert resolve_batch(None, n_tasks=100, jobs=4) == 16  # capped
        assert resolve_batch("auto", n_tasks=12, jobs=4) == 3
        assert resolve_batch(0, n_tasks=3, jobs=4) == 1

    def test_floor_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert resolve_batch(None, n_tasks=0, jobs=2) == 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            resolve_batch(-1, n_tasks=10)
        with pytest.raises(ValueError):
            resolve_batch("many", n_tasks=10)
