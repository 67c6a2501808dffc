"""The lmbench_suite runner."""

import pytest

from repro.kernel.config import KernelConfig
from repro.params import M604_185
from repro.sim.simulator import Simulator
from repro.workloads.lmbench import lmbench_suite


def mk():
    return Simulator(M604_185, KernelConfig.optimized())


class TestSuiteRunner:
    def test_each_point_gets_a_fresh_system(self):
        calls = []

        def make_sim():
            calls.append(1)
            return mk()

        lmbench_suite(make_sim, label="x", points=("null_syscall", "ctxsw"))
        # One probe boot plus one boot per point.
        assert len(calls) == 3

    def test_ctxsw8_optional(self):
        result = lmbench_suite(
            mk, label="x", points=("null_syscall",), ctxsw8=True
        )
        assert result.ctxsw8_us is not None
        assert result.ctxsw8_us >= 0

    def test_counters_captured_with_process_start(self):
        result = lmbench_suite(mk, label="x", points=("process_start",))
        assert result.counters.get("context_switch", 0) > 0

    def test_machine_name_recorded(self):
        result = lmbench_suite(mk, label="x", points=())
        assert result.machine == "604 185MHz"
