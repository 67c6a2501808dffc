"""Histogram helpers."""

import pytest

from repro.perf.histogram import Histogram, miss_histogram, occupancy_histogram
from repro.hw.hashtable import HashedPageTable
from repro.hw.pte import HashPte


class TestHistogram:
    def test_empty(self):
        histogram = Histogram([])
        assert histogram.total == 0
        assert histogram.nonzero_fraction() == 0.0
        assert histogram.hot_spot_ratio() == 0.0

    def test_uniform_distribution_metrics(self):
        histogram = Histogram([5] * 16)
        assert histogram.nonzero_fraction() == 1.0
        assert histogram.hot_spot_ratio() == pytest.approx(1.0)
        assert histogram.entropy_efficiency() == pytest.approx(1.0)

    def test_hot_spot_detected(self):
        histogram = Histogram([100] + [1] * 15)
        assert histogram.hot_spot_ratio() > 10
        assert histogram.entropy_efficiency() < 0.5
        assert histogram.top_share(0.05) > 0.8

    def test_max_load(self):
        assert Histogram([1, 9, 3]).max_load() == 9

    def test_from_hashtable(self):
        htab = HashedPageTable(groups=64)
        htab.insert(HashPte(vsid=1, page_index=2, rpn=3))
        occupancy = occupancy_histogram(htab)
        assert occupancy.total == 1
        htab.search(9, 9)
        misses = miss_histogram(htab)
        assert misses.total == 1

