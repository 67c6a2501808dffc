"""Performance-analysis helpers: hash-table histograms."""

from repro.perf.histogram import Histogram, occupancy_histogram

__all__ = [
    "Histogram",
    "occupancy_histogram",
]
