"""End-to-end integration: every optimization toggled on a live system.

Each test boots two complete systems differing in exactly one paper
optimization, runs the same workload through the executive, and asserts
the direction of the effect — the paper's §4 methodology in miniature.
"""

import pytest

from repro.kernel.config import IdlePageClearPolicy, KernelConfig, VsidPolicy
from repro.params import M603_180, M604_185, PAGE_SIZE
from repro.sim.simulator import Simulator
from repro.sim.trace import WorkingSetTrace


def mixed_workload(sim, seed=5, rounds=8):
    """A little of everything: compute, mmap churn, pipes, fork."""
    executive = sim.executive

    def factory(task):
        def body(t):
            trace = WorkingSetTrace(
                0x01000000, 8, 0x10000000, 40, hot_fraction=0.5, seed=seed
            )
            pipe = yield ("pipe",)
            for _round in range(rounds):
                yield ("work", trace.visit_list(60))
                addr = yield ("mmap", 32 * PAGE_SIZE, None, None)
                for page in range(0, 32, 4):
                    yield ("touch", addr + page * PAGE_SIZE, 4, True)
                yield ("munmap", addr, 32 * PAGE_SIZE)
                yield ("pipe_write", pipe, 256, 0x10000000)
                yield ("pipe_read", pipe, 256, 0x10000000)
            child = yield ("fork", None)
            sim.kernel.sys_exit(child)
            yield ("exit", 0)

        return body(task)

    executive.spawn("mix", factory, text_pages=8, data_pages=44)
    sim.run()
    return sim


def wall_us(config, spec=M604_185):
    sim = mixed_workload(Simulator(spec, config))
    return sim.elapsed_us(), sim


OPT = KernelConfig.optimized()
UNOPT = KernelConfig.unoptimized()


class TestEachOptimizationDirection:
    def test_whole_paper_stack_wins(self):
        # This workload is fault/cache-heavy (config-independent costs),
        # so the margin is smaller than on the syscall-heavy benchmarks.
        optimized, _ = wall_us(OPT)
        unoptimized, _ = wall_us(UNOPT)
        assert optimized < 0.92 * unoptimized

    def test_fast_handlers_direction(self):
        base, _ = wall_us(UNOPT)
        fast, _ = wall_us(
            UNOPT.with_changes(fast_handlers=True, optimized_entry=True)
        )
        assert fast < base

    def test_lazy_flush_direction(self):
        """Lazy flushing wins when flushed ranges are large relative to
        the working set that has to refault — the paper's §7 regime."""

        def big_flush_run(config):
            sim = Simulator(M604_185, config)
            kernel = sim.kernel
            task = kernel.spawn("t", data_pages=20)
            kernel.switch_to(task)
            for _round in range(6):
                for page in range(16):
                    kernel.user_access(
                        task, 0x10000000 + page * PAGE_SIZE, 2, True
                    )
                addr = kernel.sys_mmap(task, 192 * PAGE_SIZE)
                for page in range(0, 192, 24):
                    kernel.user_access(task, addr + page * PAGE_SIZE, 2, True)
                kernel.sys_munmap(task, addr, 192 * PAGE_SIZE)
            return sim.cycles

        search = big_flush_run(
            OPT.with_changes(
                lazy_vsid_flush=False, vsid_policy=VsidPolicy.PID_SCATTER
            )
        )
        lazy = big_flush_run(OPT)
        assert lazy < search

    def test_bat_map_reduces_kernel_tlb_presence(self):
        _, with_bat = wall_us(UNOPT.with_changes(bat_kernel_map=True))
        _, without = wall_us(UNOPT)
        assert (
            with_bat.machine.itlb.kernel_entries()
            + with_bat.machine.dtlb.kernel_entries()
            == 0
        )
        assert (
            without.machine.monitor.total_tlb_misses()
            > with_bat.machine.monitor.total_tlb_misses()
        )

    def test_no_htab_on_603_direction(self):
        emulated, _ = wall_us(
            OPT.with_changes(use_htab_on_603=True), spec=M603_180
        )
        direct, _ = wall_us(OPT, spec=M603_180)
        assert direct <= emulated * 1.01

    def test_603_vs_604_same_kernel(self):
        slow, _ = wall_us(OPT, spec=M603_180)
        fast, _ = wall_us(OPT, spec=M604_185)
        # The 604 is faster, but the no-htab 603 stays within ~40%.
        assert fast <= slow <= 1.4 * fast


class TestCrossConfigConsistency:
    @pytest.mark.parametrize(
        "config",
        [
            OPT,
            UNOPT,
            OPT.with_changes(cache_page_tables=False),
            OPT.with_changes(idle_page_clear=IdlePageClearPolicy.CACHED_LIST),
            OPT.with_changes(cache_preloads=True),
            UNOPT.with_changes(
                vsid_policy=VsidPolicy.CONTEXT_COUNTER,
                lazy_vsid_flush=True,
            ),
        ],
        ids=[
            "optimized",
            "unoptimized",
            "uncached-ptes",
            "cached-clearing",
            "preloads",
            "lazy-only",
        ],
    )
    def test_workload_completes_and_balances(self, config):
        """Every configuration runs the workload to completion with a
        balanced ledger and no leaked tasks."""
        sim = mixed_workload(Simulator(M604_185, config))
        assert not sim.kernel.tasks  # everything exited
        assert sim.cycles == sum(sim.breakdown().values())
        counters = sim.counters()
        assert counters["syscall"] > 0
        assert counters["page_fault_minor"] > 0

    def test_same_config_same_cycles(self):
        """The simulation is deterministic."""
        first, _ = wall_us(OPT)
        second, _ = wall_us(OPT)
        assert first == second
