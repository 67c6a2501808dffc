"""Pipes and the syscall cost layer."""

import pytest

from repro.errors import SyscallError
from repro.kernel.config import KernelConfig
from repro.kernel.syscall import (
    KERNEL_FOOTPRINT,
    KERNEL_HOT_DATA_PAGES,
    KERNEL_HOT_TEXT_PAGES,
    entry_exit_cycles,
)
from repro.params import M604_185, PAGE_SIZE, SYSCALL_FAST_CYCLES, SYSCALL_SLOW_CYCLES
from repro.sim.simulator import Simulator


@pytest.fixture
def sim():
    return Simulator(M604_185, KernelConfig.optimized())


@pytest.fixture
def task(sim):
    task = sim.kernel.spawn("p", data_pages=8)
    sim.kernel.switch_to(task)
    return task


class TestEntryCosts:
    def test_fast_vs_slow(self):
        assert entry_exit_cycles(True) == SYSCALL_FAST_CYCLES
        assert entry_exit_cycles(False) == SYSCALL_SLOW_CYCLES
        assert SYSCALL_SLOW_CYCLES > 5 * SYSCALL_FAST_CYCLES

    def test_footprint_table_within_hot_sets(self):
        for text_pages, _tl, data_pages, _dl in KERNEL_FOOTPRINT.values():
            assert all(p < KERNEL_HOT_TEXT_PAGES for p in text_pages)
            assert all(p < KERNEL_HOT_DATA_PAGES for p in data_pages)

    def test_getpid_returns_pid_and_charges(self, sim, task):
        before = sim.machine.clock.total
        assert sim.kernel.sys_getpid(task) == task.pid
        assert sim.machine.clock.total > before
        assert sim.machine.monitor["syscall"] == 1


class TestPipes:
    def test_create_allocates_buffer(self, sim, task):
        ident = sim.kernel.sys_pipe(task)
        pipe = sim.kernel.pipes.get(ident)
        assert sim.kernel.palloc.is_allocated(pipe.buffer_pfn)

    def test_write_then_read(self, sim, task):
        ident = sim.kernel.sys_pipe(task)
        written, blocked = sim.kernel.sys_pipe_write(task, ident, 100)
        assert (written, blocked) == (100, False)
        count, blocked = sim.kernel.sys_pipe_read(task, ident, 100)
        assert (count, blocked) == (100, False)

    def test_read_empty_would_block(self, sim, task):
        ident = sim.kernel.sys_pipe(task)
        count, blocked = sim.kernel.sys_pipe_read(task, ident, 1)
        assert blocked and count == 0

    def test_write_full_would_block(self, sim, task):
        ident = sim.kernel.sys_pipe(task)
        written, blocked = sim.kernel.sys_pipe_write(task, ident, PAGE_SIZE)
        assert written == PAGE_SIZE and not blocked
        _, blocked = sim.kernel.sys_pipe_write(task, ident, 1)
        assert blocked

    def test_partial_write_when_nearly_full(self, sim, task):
        ident = sim.kernel.sys_pipe(task)
        sim.kernel.sys_pipe_write(task, ident, PAGE_SIZE - 10)
        written, blocked = sim.kernel.sys_pipe_write(task, ident, 100)
        assert written == 10 and not blocked

    def test_write_wakes_sleeping_reader(self, sim, task):
        kernel = sim.kernel
        ident = kernel.sys_pipe(task)
        reader = kernel.spawn("reader")
        from repro.kernel.task import TaskState

        reader.state = TaskState.SLEEPING
        kernel.pipes.get(ident).readers_waiting.append(reader)
        kernel.sys_pipe_write(task, ident, 1)
        assert reader.state is TaskState.READY

    def test_unknown_pipe_raises(self, sim, task):
        with pytest.raises(SyscallError):
            sim.kernel.sys_pipe_read(task, 999, 1)

    def test_charge_entry_false_skips_syscall_cost(self, sim, task):
        kernel = sim.kernel
        ident = kernel.sys_pipe(task)
        kernel.sys_pipe_write(task, ident, 1)
        before = sim.machine.monitor["syscall"]
        kernel.sys_pipe_read(task, ident, 1, charge_entry=False)
        assert sim.machine.monitor["syscall"] == before

    def test_copy_multiplier_multiplies_copy_cost(self):
        def write_cost(multiplier):
            config = KernelConfig.optimized().with_changes(
                pipe_copy_multiplier=multiplier
            )
            sim = Simulator(M604_185, config)
            task = sim.kernel.spawn("p", data_pages=8)
            sim.kernel.switch_to(task)
            ident = sim.kernel.sys_pipe(task)
            start = sim.machine.clock.snapshot()
            sim.kernel.sys_pipe_write(task, ident, PAGE_SIZE)
            return sim.machine.clock.since(start)

        assert write_cost(3) > write_cost(1)

    def test_pipe_op_extra_cycles_charged_as_ipc(self):
        config = KernelConfig.optimized().with_changes(
            pipe_op_extra_cycles=5000
        )
        sim = Simulator(M604_185, config)
        task = sim.kernel.spawn("p", data_pages=8)
        sim.kernel.switch_to(task)
        ident = sim.kernel.sys_pipe(task)
        sim.kernel.sys_pipe_write(task, ident, 1)
        assert sim.breakdown().get("ipc", 0) == 5000
