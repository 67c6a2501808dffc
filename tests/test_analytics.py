"""Tests for ``repro.obs.analytics`` — the derived-metrics layer.

Two tiers: pure-function units (percentile, downsampling, histogram
reduction) and a real observed run of a registry experiment, asserting
the shape and internal consistency of every section of the derived
block.  The name tables the module derives from the event registry
are also pinned against the live taxonomies.
"""

from __future__ import annotations

import pytest

from repro.analysis import engine
from repro.kernel.config import KernelConfig
from repro.obs import analytics
from repro.obs.events import (
    DEFAULT_MONITOR_EVENTS,
    EVENT_NAMES,
    MONITOR,
    SPAN_CATEGORY,
    EventRegistryError,
)
from repro.obs.profiler import DISPLAY_ORDER, PATH_CATEGORIES
from repro.params import M604_185
from repro.perf.histogram import Histogram
from repro.sim.simulator import Simulator


class TestPercentile:
    def test_empty_is_zero(self):
        assert analytics.percentile([], 99) == 0

    def test_single_value(self):
        assert analytics.percentile([7], 50) == 7
        assert analytics.percentile([7], 99) == 7

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100, already sorted
        assert analytics.percentile(values, 50) == 50
        assert analytics.percentile(values, 90) == 90
        assert analytics.percentile(values, 99) == 99

    def test_small_population_rounds_up(self):
        # Nearest-rank with ceil: p50 of [10, 20] is the first element.
        assert analytics.percentile([10, 20], 50) == 10
        assert analytics.percentile([10, 20], 99) == 20


class TestSpanStats:
    def test_empty(self):
        stats = analytics.span_stats([])
        assert stats["count"] == 0
        assert stats["total_cycles"] == 0
        assert stats["max"] == 0
        assert stats["p99"] == 0

    def test_shape_and_values(self):
        stats = analytics.span_stats([30, 10, 20])
        assert stats["count"] == 3
        assert stats["total_cycles"] == 60
        assert stats["mean"] == 20.0
        assert stats["max"] == 30
        assert stats["p50"] == 20
        assert set(stats) == {
            "count", "total_cycles", "mean", "max", "p50", "p90", "p99",
        }


class TestSeriesStats:
    def test_empty(self):
        assert analytics.series_stats([]) == {
            "min": 0, "max": 0, "mean": 0.0, "final": 0,
        }

    def test_values(self):
        stats = analytics.series_stats([4, 2, 6])
        assert stats == {"min": 2, "max": 6, "mean": 4.0, "final": 6}


class TestDownsample:
    def test_short_series_untouched(self):
        assert analytics.downsample([1, 2, 3], points=10) == [1, 2, 3]

    def test_keeps_endpoints_and_length(self):
        values = list(range(1000))
        out = analytics.downsample(values, points=96)
        assert len(out) == 96
        assert out[0] == 0
        assert out[-1] == 999
        assert out == sorted(out)

    def test_one_point_keeps_the_first_value(self):
        # The SLO block correlates the queue-depth curve against a
        # zombie track that may hold a single sample.
        assert analytics.downsample([5, 6, 7], points=1) == [5]

    def test_deterministic(self):
        values = list(range(777))
        assert (analytics.downsample(values)
                == analytics.downsample(values))


class TestHistogramBars:
    def test_short_counts_untouched(self):
        assert analytics.histogram_bars([1, 2], bars=8) == [1, 2]

    def test_reduction_preserves_total(self):
        counts = list(range(300))
        bars = analytics.histogram_bars(counts, bars=64)
        assert len(bars) == 64
        assert sum(bars) == sum(counts)

    def test_summary_shape(self):
        summary = analytics.histogram_summary(Histogram([0, 4, 2, 0]))
        assert summary["buckets"] == 4
        assert summary["total"] == 6
        assert summary["max_load"] == 4
        assert summary["bars"] == [0, 4, 2, 0]
        assert 0.0 <= summary["entropy_efficiency"] <= 1.0


class TestMergedCounts:
    def test_modal_size_wins(self):
        merged = analytics._merged_counts([[1, 2], [3, 4], [9, 9, 9]])
        assert merged == [4, 6]

    def test_tie_prefers_smallest(self):
        merged = analytics._merged_counts([[1, 2], [5, 6, 7]])
        assert merged == [1, 2]


class TestRegistryMirrors:
    """The derived tables must track the live taxonomies."""

    def test_category_spans_cover_the_full_taxonomy(self):
        expected = set(PATH_CATEGORIES.values())
        assert set(analytics.CATEGORY_SPANS) == expected
        assert set(analytics.CATEGORY_SPANS) == set(DISPLAY_ORDER)

    def test_span_events_are_registered(self):
        for name in analytics.SPAN_EVENTS:
            assert name in EVENT_NAMES

    def test_instant_events_are_registered(self):
        for name in analytics.INSTANT_EVENTS:
            assert name in EVENT_NAMES

    def test_drift_counters_are_registered(self):
        for name in analytics.DRIFT_COUNTERS:
            assert name in EVENT_NAMES

    def test_category_spans_use_span_events(self):
        for spans in analytics.CATEGORY_SPANS.values():
            for name in spans:
                assert name in analytics.SPAN_EVENTS
        for name in analytics.RELOAD_SPANS:
            assert name in analytics.SPAN_EVENTS

    def test_every_event_lands_in_one_derived_table(self):
        derived = (analytics.SPAN_EVENTS + analytics.INSTANT_EVENTS
                   + analytics.COUNTER_TRACKS + analytics.DRIFT_COUNTERS)
        assert sorted(derived) == sorted(EVENT_NAMES)

    def test_every_span_category_is_displayed(self):
        assert set(SPAN_CATEGORY.values()) <= set(DISPLAY_ORDER)

    def test_default_monitor_events_are_monitor_counters(self):
        for name in DEFAULT_MONITOR_EVENTS:
            assert EVENT_NAMES[name].kind == MONITOR, name


class TestDerive:
    def test_empty_handles(self):
        assert analytics.derive([]) == {}

    def test_unregistered_monitor_counter_raises(self):
        sim = Simulator(M604_185, KernelConfig.optimized(), profile=True)
        sim.machine.monitor.count("mystery_counter")
        with pytest.raises(EventRegistryError, match="'mystery_counter'"):
            analytics.derive([sim.obs])

    def test_full_block_from_observed_run(self):
        _result, observed = engine.observe(
            engine.spec_for("E1"), trace=True, sample_every_us=10.0
        )
        derived = analytics.derive(observed)

        assert derived["total_cycles"] > 0
        assert derived["simulators"] == len(observed)
        assert derived["machines"]

        attribution = derived["attribution"]
        assert sum(attribution["cycles"].values()) == derived["total_cycles"]
        assert abs(sum(attribution["shares"].values()) - 1.0) < 1e-3
        assert attribution["top"] in attribution["cycles"]

        assert set(derived["counters"]) == set(analytics.DRIFT_COUNTERS)
        assert derived["counters"]["context_switch"] > 0

        events = derived["events"]
        assert events["emitted"] > 0
        assert set(events["instants"]) <= set(analytics.INSTANT_EVENTS)
        assert set(derived["spans"]) <= set(analytics.SPAN_EVENTS)
        assert set(derived["categories"]) <= set(analytics.CATEGORY_SPANS)

        timeline = derived["timeline"]
        assert timeline["samples"] > 0
        assert len(timeline["series"]["us"]) <= analytics.TIMELINE_POINTS
        assert (len(timeline["series"]["live"])
                == len(timeline["series"]["us"]))

        for name in ("occupancy", "miss"):
            summary = derived["histograms"][name]
            assert sum(summary["bars"]) == summary["total"]

    def test_derive_is_deterministic_over_handles(self):
        _result, observed = engine.observe(
            engine.spec_for("E1"), trace=True
        )
        assert analytics.derive(observed) == analytics.derive(observed)
