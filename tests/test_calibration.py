"""Calibration guards: the LmBench points stay in their paper bands.

The cost model is calibrated once in ``repro/params.py``; these tests
pin the headline numbers to generous bands around the paper's values so
that a refactor that silently breaks the calibration fails loudly here
rather than in the benchmark shapes.
"""

import pytest

from repro.kernel.config import KernelConfig
from repro.params import M604_133, M604_185
from repro.sim.simulator import Simulator
from repro.workloads.lmbench import (
    context_switch,
    null_syscall,
    pipe_bandwidth,
    pipe_latency,
    process_start,
)

OPT = KernelConfig.optimized()
UNOPT = KernelConfig.unoptimized()


class TestOptimized133:
    """Table 3's Linux/PPC column: 2 / 6 / 28 us, 52 MB/s."""

    def test_null_syscall(self):
        assert 1.2 <= null_syscall(Simulator(M604_133, OPT)) <= 3.5

    def test_context_switch(self):
        assert 2.0 <= context_switch(Simulator(M604_133, OPT)) <= 10.0

    def test_pipe_latency(self):
        assert 18.0 <= pipe_latency(Simulator(M604_133, OPT)) <= 40.0

    def test_pipe_bandwidth(self):
        assert 40.0 <= pipe_bandwidth(Simulator(M604_133, OPT)) <= 80.0


class TestUnoptimized133:
    """Table 3's unoptimized column: 18 / 28 / 78 us, 36 MB/s."""

    def test_null_syscall(self):
        assert 12.0 <= null_syscall(Simulator(M604_133, UNOPT)) <= 24.0

    def test_context_switch(self):
        assert 18.0 <= context_switch(Simulator(M604_133, UNOPT)) <= 40.0

    def test_pipe_latency(self):
        assert 55.0 <= pipe_latency(Simulator(M604_133, UNOPT)) <= 110.0

    def test_pipe_bandwidth(self):
        assert 20.0 <= pipe_bandwidth(Simulator(M604_133, UNOPT)) <= 45.0


class TestOptimized185:
    """Table 1's 604 column: ~4 us ctxsw, ~21 us pipe, ~88 MB/s."""

    def test_context_switch(self):
        assert 1.5 <= context_switch(Simulator(M604_185, OPT)) <= 7.0

    def test_pipe_latency(self):
        assert 13.0 <= pipe_latency(Simulator(M604_185, OPT)) <= 30.0

    def test_pipe_bandwidth(self):
        assert 65.0 <= pipe_bandwidth(Simulator(M604_185, OPT)) <= 115.0

    def test_process_start_ms(self):
        assert 0.8 <= process_start(Simulator(M604_185, OPT)) <= 2.5


class TestRatios:
    """The optimized/unoptimized ratios the paper's story rests on."""

    def test_null_syscall_ratio(self):
        optimized = null_syscall(Simulator(M604_133, OPT))
        unoptimized = null_syscall(Simulator(M604_133, UNOPT))
        assert 5.0 <= unoptimized / optimized <= 14.0  # paper: 9x

    def test_context_switch_ratio(self):
        optimized = context_switch(Simulator(M604_133, OPT))
        unoptimized = context_switch(Simulator(M604_133, UNOPT))
        assert 2.5 <= unoptimized / optimized <= 10.0  # paper: 4.7x
