"""Small-scale sanity runs of the paper workloads.

Full paper-scale runs are ``python -m repro run --all`` (committed
output: ``benchmarks/reports.txt``); these verify that each workload
runs end to end and produces sane units.
"""

import pytest

from repro.kernel.config import KernelConfig
from repro.params import M604_185
from repro.sim.simulator import Simulator
from repro.workloads.kbuild import (
    CACHE_RESIDENT,
    KbuildProfile,
    TLB_STORM,
    kernel_compile,
)
from repro.workloads.lmbench import (
    context_switch,
    file_reread,
    lmbench_suite,
    mmap_latency,
    null_syscall,
    pipe_bandwidth,
    pipe_latency,
    process_start,
)
from repro.workloads.mixes import multiprogram_mix


def mk():
    return Simulator(M604_185, KernelConfig.optimized())


class TestLmbenchPoints:
    def test_null_syscall_microseconds(self):
        value = null_syscall(mk(), iterations=50)
        assert 0.5 < value < 30

    def test_context_switch(self):
        value = context_switch(mk(), nproc=2, iterations=10)
        assert 0 <= value < 100

    def test_context_switch_with_working_set_stays_sane(self):
        loaded = context_switch(
            mk(), nproc=4, iterations=10, working_set_kb=16
        )
        # Net-of-overhead switch time is clamped non-negative and finite.
        assert 0 <= loaded < 1000

    def test_pipe_latency(self):
        value = pipe_latency(mk(), iterations=10)
        assert 1 < value < 500

    def test_pipe_bandwidth(self):
        value = pipe_bandwidth(mk(), total_bytes=256 * 1024)
        assert 5 < value < 500

    def test_file_reread(self):
        value = file_reread(mk(), file_bytes=512 * 1024)
        assert 5 < value < 500

    def test_mmap_latency(self):
        value = mmap_latency(mk(), region_bytes=1024 * 1024, iterations=3)
        assert 1 < value < 10000

    def test_process_start(self):
        value = process_start(mk(), iterations=2)
        assert 0.1 < value < 20

    def test_suite_runs_selected_points(self):
        result = lmbench_suite(
            mk, label="test", points=("null_syscall", "ctxsw")
        )
        assert result.null_syscall_us is not None
        assert result.ctxsw_us is not None
        assert result.pipe_bw_mb_s is None
        assert result.label == "test"


class TestKbuild:
    def test_small_compile_runs(self):
        result = kernel_compile(mk(), units=2, profile=CACHE_RESIDENT)
        assert result.units == 2
        assert result.wall_ms > 0
        assert result.tlb_misses > 0
        assert result.counters["context_switch"] > 0

    def test_storm_profile_has_more_tlb_pressure(self):
        quiet = kernel_compile(mk(), units=2, profile=CACHE_RESIDENT)
        storm = kernel_compile(mk(), units=2, profile=TLB_STORM)
        assert (
            storm.tlb_misses / storm.wall_cycles
            > quiet.tlb_misses / quiet.wall_cycles
        )

    def test_profile_properties(self):
        profile = KbuildProfile(
            name="x", data_pages=10, visits=10, hot_fraction=1.0,
            lines_per_visit=4, source_bytes=8192,
        )
        assert profile.source_pages == 2
        assert profile.phases == 2


class TestMix:
    def test_small_mix_runs(self):
        result = multiprogram_mix(
            mk(), nproc=3, rounds=6, churn_every=2, think_cycles=5000,
            ws_pages=10, visits=10, samples=2,
        )
        assert result.wall_cycles > 0
        assert result.samples
        assert 0 <= result.occupancy <= 1
        assert result.valid_entries >= result.live_entries
