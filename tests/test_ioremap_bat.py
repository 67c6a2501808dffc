"""§5.1's per-process framebuffer BAT (the sketched ioremap mechanism)."""

import pytest

from repro.errors import SyscallError
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import IO_BASE_EA, USER_IO_BAT_SLOT, USER_IO_WINDOW
from repro.params import M604_185
from repro.sim.simulator import Simulator


@pytest.fixture
def sim():
    return Simulator(M604_185, KernelConfig.optimized())


def ioremapped_task(sim, name="x", offset=0, size=2 * 1024 * 1024):
    task = sim.kernel.spawn(name, data_pages=8)
    sim.kernel.switch_to(task)
    ea = sim.kernel.sys_ioremap_bat(task, offset, size)
    return task, ea


class TestMapping:
    def test_window_translates_through_bat(self, sim):
        _task, ea = ioremapped_task(sim)
        result = sim.machine.translate(ea + 0x4000)
        assert result.path == "bat"
        assert result.pa == IO_BASE_EA + 0x4000

    def test_window_is_cache_inhibited(self, sim):
        _task, ea = ioremapped_task(sim)
        before = sim.machine.dcache.stats.bypasses
        sim.machine.data_access(ea, write=True)
        assert sim.machine.dcache.stats.bypasses == before + 1

    def test_no_tlb_entries_used(self, sim):
        _task, ea = ioremapped_task(sim)
        for page in range(16):
            sim.machine.data_access(ea + page * 4096, write=True)
        assert len(sim.machine.dtlb) == 0

    def test_offset_mapping(self, sim):
        _task, ea = ioremapped_task(sim, offset=2 * 1024 * 1024)
        result = sim.machine.translate(ea)
        assert result.pa == IO_BASE_EA + 2 * 1024 * 1024

    def test_rejects_unaligned_or_oversized(self, sim):
        task = sim.kernel.spawn("bad")
        sim.kernel.switch_to(task)
        with pytest.raises(SyscallError):
            sim.kernel.sys_ioremap_bat(task, 1024, 2 * 1024 * 1024)
        with pytest.raises(SyscallError):
            sim.kernel.sys_ioremap_bat(task, 0, 64 * 1024 * 1024)


class TestPerProcessSwitching:
    def test_bat_switched_with_the_process(self, sim):
        kernel = sim.kernel
        xserver, ea = ioremapped_task(sim, "xserver", offset=0)
        other = kernel.spawn("other", data_pages=4)
        kernel.switch_to(other)
        # The other process has no window: DBAT[2] is clear.
        assert sim.machine.bats.dbats[USER_IO_BAT_SLOT].valid is False
        kernel.switch_to(xserver)
        assert sim.machine.translate(ea).path == "bat"

    def test_two_processes_different_windows(self, sim):
        kernel = sim.kernel
        first, ea1 = ioremapped_task(sim, "a", offset=0)
        second, _ = ioremapped_task(
            sim, "b", offset=4 * 1024 * 1024, size=4 * 1024 * 1024
        )
        kernel.switch_to(first)
        assert sim.machine.translate(ea1).pa == IO_BASE_EA
        kernel.switch_to(second)
        assert (
            sim.machine.translate(USER_IO_WINDOW).pa
            == IO_BASE_EA + 4 * 1024 * 1024
        )

    def test_exec_drops_the_window(self, sim):
        kernel = sim.kernel
        task, _ = ioremapped_task(sim)
        kernel.sys_exec(task, "fresh")
        assert task.mm.io_bat is None
        assert sim.machine.bats.dbats[USER_IO_BAT_SLOT].valid is False

    def test_exec_without_a_window_keeps_the_bat_memo(self, sim):
        kernel = sim.kernel
        task = kernel.spawn("plain", data_pages=4)
        kernel.switch_to(task)
        kernel.sys_getpid(task)
        bats = sim.machine.bats
        memo = bats.resolved
        assert "getpid" in memo
        kernel.sys_exec(task, "fresh")
        # DBAT[2] was never valid: clearing it rebuilt nothing.
        assert bats.resolved is memo and "getpid" in memo

    def test_exec_with_a_window_clears_dbat2_and_the_memo(self, sim):
        kernel = sim.kernel
        task, _ = ioremapped_task(sim)
        kernel.sys_getpid(task)
        bats = sim.machine.bats
        memo = bats.resolved
        assert "getpid" in memo
        kernel.sys_exec(task, "fresh")
        assert bats.dbats[USER_IO_BAT_SLOT].valid is False
        assert bats.resolved is not memo
        # The exec path itself re-resolved its visits after the clear.
        assert "getpid" not in bats.resolved
