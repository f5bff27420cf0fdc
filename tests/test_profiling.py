"""Tests for the scoped stage spans, the metrics registry they record
into, and the scratch-buffer pool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import profiling
from repro.utils.profiling import (
    NULL_SPAN,
    MetricsRegistry,
    activated,
    format_stage_table,
    profile,
)
from repro.utils.scratch import ScratchCache


@pytest.fixture(autouse=True)
def _no_global_profiler():
    """Isolate each test from any env-activated global registry."""
    previous = profiling.deactivate()
    yield
    if previous is not None:
        profiling.activate(previous)


class TestDisabledPath:
    def test_disabled_profile_returns_shared_noop(self):
        # The whole no-overhead claim: with no active profiler, every
        # profile() call hands back the *same* object — nothing is
        # allocated per call, nothing is recorded.
        assert profile("isp.tone_map") is NULL_SPAN
        assert profile("hil.render") is profile("hil.pr") is NULL_SPAN

    def test_null_span_is_inert_context_manager(self):
        with profile("anything") as span:
            assert span is NULL_SPAN

    def test_disabled_path_records_nothing(self):
        registry = MetricsRegistry()
        with profile("stage"):
            pass
        assert registry.stage_stats() == {}


class TestEnabledAggregation:
    def test_span_records_count_total_mean_p95(self):
        registry = MetricsRegistry()
        with activated(registry):
            for _ in range(5):
                with profile("stage.a"):
                    pass
            with profile("stage.b"):
                pass
        stats = registry.stage_stats()
        assert list(stats) == ["stage.a", "stage.b"]
        a = stats["stage.a"]
        assert a.count == 5
        assert a.total_ms >= 0.0
        assert a.mean_ms == pytest.approx(a.total_ms / 5)
        assert a.p95_ms >= 0.0

    def test_record_is_exact(self):
        registry = MetricsRegistry()
        for ms in (1.0, 2.0, 3.0, 4.0):
            registry.observe("x", ms)
        stats = registry.stage_stats()["x"]
        assert stats.count == 4
        assert stats.total_ms == pytest.approx(10.0)
        assert stats.mean_ms == pytest.approx(2.5)

    def test_weighted_observations_keep_per_item_means(self):
        registry = MetricsRegistry()
        registry.observe("hil.render", 8.0, count=4)  # one batched call
        registry.observe("hil.render", 2.0)  # one serial call
        stats = registry.stage_stats()["hil.render"]
        assert stats.count == 5
        assert stats.total_ms == 10.0
        assert stats.mean_ms == 2.0

    def test_sample_cap_keeps_count_and_total(self):
        registry = MetricsRegistry()
        cap = MetricsRegistry.MAX_SAMPLES
        for _ in range(cap + 1):
            registry.observe("x", 1.0)
        assert len(registry.histogram("x")) == cap  # bounded
        stats = registry.stage_stats()["x"]
        assert stats.count == cap + 1  # still counted
        assert stats.total_ms == cap + 1
        # A merge past the cap keeps the bound and the running sums.
        registry.merge(registry.snapshot())
        assert len(registry.histogram("x")) == cap
        assert registry.stage_stats()["x"].count == 2 * (cap + 1)

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.observe("x", 1.0)
        registry.count("n")
        registry.reset()
        assert registry.counters() == {}
        assert registry.histogram_summaries() == {}

    def test_activated_restores_previous(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with activated(outer):
            with activated(inner):
                assert profiling.get_active() is inner
            assert profiling.get_active() is outer
        assert profiling.get_active() is None

    def test_activated_none_is_passthrough(self):
        with activated(None):
            assert profiling.get_active() is None
            assert profile("x") is NULL_SPAN


class TestStageTable:
    def test_table_contains_labels_and_model_column(self):
        registry = MetricsRegistry()
        registry.observe("hil.pr", 4.0)
        text = format_stage_table(
            registry.stage_stats(), modeled_ms={"hil.pr": 3.0}
        )
        assert "hil.pr" in text
        assert "model ms" in text
        assert "3.000" in text

    def test_table_dashes_unmodeled_rows(self):
        registry = MetricsRegistry()
        registry.observe("hil.render", 1.0)
        text = format_stage_table(
            registry.stage_stats(), modeled_ms={"hil.pr": 3.0}
        )
        assert text.splitlines()[1].rstrip().endswith("-")


class TestScratchCache:
    def test_same_key_returns_same_buffer(self):
        cache = ScratchCache()
        a = cache.get("buf", (4, 4))
        b = cache.get("buf", (4, 4))
        assert a is b
        assert a.dtype == np.float32

    def test_distinct_shape_dtype_or_tag_are_distinct(self):
        cache = ScratchCache()
        base = cache.get("buf", (4, 4))
        assert cache.get("buf", (4, 5)) is not base
        assert cache.get("buf", (4, 4), np.float64) is not base
        assert cache.get("other", (4, 4)) is not base

    def test_lru_bound_evicts_oldest(self):
        cache = ScratchCache(max_entries=2)
        a = cache.get("a", (2,))
        cache.get("b", (2,))
        cache.get("a", (2,))  # refresh a: b is now the oldest
        cache.get("c", (2,))  # evicts b
        assert len(cache) == 2
        assert cache.get("a", (2,)) is a  # survived as most-recent

    def test_zero_fills_on_creation_only(self):
        # Documented contract: zero=True buffers start zero-filled but
        # are NOT re-zeroed on reuse — callers must fully overwrite the
        # region they read (the conv pad buffer's borders stay zero
        # because nobody ever writes them).
        cache = ScratchCache()
        buf = cache.get("z", (3,), zero=True)
        assert np.array_equal(buf, np.zeros(3, dtype=np.float32))
        buf[:] = 7.0
        again = cache.get("z", (3,), zero=True)
        assert again is buf
        assert np.array_equal(again, np.full(3, 7.0, dtype=np.float32))
