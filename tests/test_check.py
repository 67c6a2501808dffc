"""The shadow-MMU coherence sanitizer (``repro.check``).

Three layers of coverage:

* clean workloads produce zero violations (the sanitizer has no false
  positives on the §7/§9 designs it understands, zombies included);
* seeded corruption IS detected (the sanitizer has teeth);
* a hypothesis property test drives random interleavings of the kernel
  lifecycle operations — mmap/munmap/touch/fork/exit/VSID bump/idle
  reclaim/context switch — and requires full coherence throughout.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import check, obs
from repro.check import invariants
from repro.check.sanitizer import Sanitizer
from repro.errors import ConfigError
from repro.hw.tlb import TlbEntry
from repro.kernel.config import KernelConfig, VsidPolicy
from repro.params import M604_185, PAGE_SIZE
from repro.sim.simulator import Simulator


def lazy_config():
    return KernelConfig.optimized()


def search_config():
    return KernelConfig.optimized().with_changes(
        lazy_vsid_flush=False, vsid_policy=VsidPolicy.PID_SCATTER
    )


def boot_checked(config=None):
    return Simulator(
        M604_185, config if config is not None else lazy_config(),
        sanitize=True,
    )


def assert_clean(sim):
    sim.sanitizer.sweep(stable=True)
    assert sim.sanitizer.reporter.total == 0, sim.sanitizer.reporter.summary()


class TestCleanWorkloads:
    def test_basic_lifecycle_has_no_violations(self):
        sim = boot_checked()
        kernel = sim.kernel
        task = kernel.spawn("t", data_pages=8)
        kernel.switch_to(task)
        addr = kernel.sys_mmap(task, 30 * PAGE_SIZE)
        for page in range(30):
            kernel.user_access(task, addr + page * PAGE_SIZE, 1, True)
        kernel.flush.flush_range(task.mm, addr, addr + 30 * PAGE_SIZE)
        child = kernel.sys_fork(task)
        kernel.switch_to(child)
        kernel.user_access(child, addr, 1, True)
        kernel.run_idle(500000)
        kernel.sys_exit(child)
        assert sim.sanitizer.translations_checked > 0
        assert_clean(sim)

    def test_zombie_entries_are_not_violations(self):
        # The defining §7 state: valid-but-dead entries rotting in the
        # TLB and hash table.  The sanitizer must understand they are
        # unreachable, not flag them.
        sim = boot_checked()
        kernel = sim.kernel
        task = kernel.spawn("z", data_pages=34)
        kernel.switch_to(task)
        for page in range(30):
            kernel.user_access(task, 0x10000000 + page * PAGE_SIZE, 1, True)
        kernel.flush.flush_mm(task.mm)
        _live, zombies = kernel.htab_zombie_stats()
        assert zombies > 0
        assert_clean(sim)

    def test_global_flush_checks_pass(self):
        sim = boot_checked()
        kernel = sim.kernel
        task = kernel.spawn("g", data_pages=8)
        kernel.switch_to(task)
        addr = kernel.sys_mmap(task, 4 * PAGE_SIZE)
        kernel.user_access(task, addr, 1, True)
        kernel.flush.flush_everything()
        kernel.user_access(task, addr, 1, False)
        assert_clean(sim)


class TestDetection:
    def _mapped_entry(self, sim):
        kernel = sim.kernel
        task = kernel.spawn("v", data_pages=4)
        kernel.switch_to(task)
        addr = kernel.sys_mmap(task, PAGE_SIZE)
        kernel.user_access(task, addr, 1, True)
        vsid = task.mm.user_vsids[(addr >> 28) & 0xF]
        page_index = (addr >> 12) & 0xFFFF
        return task, addr, vsid, page_index

    def test_sweep_catches_corrupt_tlb_entry(self):
        sim = boot_checked()
        task, addr, vsid, page_index = self._mapped_entry(sim)
        good = task.mm.resident[addr]
        sim.machine.dtlb.insert(
            TlbEntry(vsid=vsid, page_index=page_index, ppn=good + 1)
        )
        assert sim.sanitizer.sweep(stable=True) > 0
        counts = sim.sanitizer.reporter.counts_by_invariant("default")
        assert counts.get("stale-tlb-entry", 0) >= 1

    def test_translation_path_catches_corrupt_tlb_entry(self):
        sim = boot_checked()
        task, addr, vsid, page_index = self._mapped_entry(sim)
        good = task.mm.resident[addr]
        sim.machine.dtlb.insert(
            TlbEntry(vsid=vsid, page_index=page_index, ppn=good + 1)
        )
        before = sim.sanitizer.reporter.total
        sim.kernel.user_access(task, addr, 1, False)
        assert sim.sanitizer.reporter.total > before
        counts = sim.sanitizer.reporter.counts_by_invariant("default")
        assert counts.get("stale-translation", 0) >= 1

    def test_sweep_catches_dirty_precleared_page(self):
        sim = boot_checked()
        kernel = sim.kernel
        kernel.run_idle(200000)
        pages = kernel.palloc.precleared_pages()
        assert pages
        # Scribble on a stocked page through the real translated-write
        # path: the shadow sees the write and the next sweep must flag
        # the page as no longer zero.
        sim.machine.translate(kernel.kernel_ea_for_frame(pages[0]),
                              write=True)
        assert sim.sanitizer.sweep(stable=True) > 0
        counts = sim.sanitizer.reporter.counts_by_invariant("default")
        assert counts.get("precleared-dirty", 0) >= 1


class TestGlobalAttach:
    def test_global_enable_attaches_to_new_simulators(self):
        reporter = check.ViolationReporter()
        obs.enable_global_observability(
            profile=False, sweep_every=1000, reporter=reporter
        )
        try:
            sim = Simulator(M604_185, lazy_config())
            assert sim.sanitizer is not None
            assert sim.sanitizer.reporter is reporter
            assert sim.sanitizer.sweep_every == 1000
            assert sim.obs.profiler is None and sim.obs.tracer is None
            assert obs.drain_global_observed() == [sim.obs]
        finally:
            obs.disable_global_observability()
        assert Simulator(M604_185, lazy_config()).sanitizer is None

    def test_reporter_contexts(self):
        reporter = check.ViolationReporter()
        reporter.begin_context("E1")
        reporter.record("stale-tlb-entry", "one")
        reporter.end_context()
        reporter.record("stale-htab-entry", "two")
        assert reporter.total == 2
        assert reporter.count("E1") == 1
        assert reporter.contexts() == ["E1", "default"]
        assert "stale-tlb-entry" in reporter.summary()


class TestSweepCadence:
    """A negative ``sweep_every`` would sweep on every translation."""

    def test_sanitizer_rejects_negative_cadence(self):
        kernel = Simulator(M604_185, lazy_config()).kernel
        with pytest.raises(ConfigError, match="sweep_every"):
            Sanitizer(kernel, sweep_every=-1)

    def test_global_enable_rejects_negative_cadence(self):
        with pytest.raises(ConfigError, match="sweep_every"):
            obs.enable_global_observability(sweep_every=-1)
        assert Simulator(M604_185, lazy_config()).obs is None

    def test_run_checked_fails_before_running(self):
        from repro.check.runner import run_checked

        started = []
        with pytest.raises(ConfigError, match="sweep_every"):
            run_checked(ids=["E1"], sweep_every=-1, progress=started.append)
        assert started == []
        assert Simulator(M604_185, lazy_config()).obs is None


class TestInvariantSuite:
    def test_sweep_order(self):
        assert [fn.__name__ for fn in invariants.suite()] == [
            "check_tlbs", "check_htab", "check_segments",
            "check_precleared", "check_frame_ownership", "check_shootdown",
            "check_allocator",
        ]
        # A mid-operation sweep skips the stable-only allocator check.
        assert invariants.suite(stable=False) == invariants.suite()[:-1]


# -- the property test: random lifecycle interleavings stay coherent -------

N_OPS = 8


def run_ops(sim, ops):
    """Interpret an op stream against the kernel, with validity guards."""
    kernel = sim.kernel
    tasks = []
    mappings = {}
    for op, arg in ops:
        current = kernel.current_task
        if op == 0 and len(tasks) < 5:  # spawn + run
            task = kernel.spawn(f"p{len(tasks)}", data_pages=4)
            tasks.append(task)
            kernel.switch_to(task)
        elif op == 1 and tasks:  # context switch
            kernel.switch_to(tasks[arg % len(tasks)])
        elif op == 2 and current is not None:  # mmap + touch
            pages = (arg % 8) + 1
            addr = kernel.sys_mmap(current, pages * PAGE_SIZE)
            for page in range(pages):
                kernel.user_access(
                    current, addr + page * PAGE_SIZE, 1, True
                )
            mappings.setdefault(current.pid, []).append((addr, pages))
        elif op == 3 and current is not None:  # munmap
            regions = mappings.get(current.pid)
            if regions:
                addr, pages = regions.pop(arg % len(regions))
                kernel.sys_munmap(current, addr, pages * PAGE_SIZE)
        elif op == 4 and current is not None and len(tasks) < 5:  # fork
            tasks.append(kernel.sys_fork(current))
        elif op == 5 and current is not None:  # whole-context flush
            kernel.flush.flush_mm(current.mm)
        elif op == 6:  # idle window: reclaim + preclear
            kernel.run_idle(20000 + (arg % 8) * 10000)
        elif op == 7 and tasks:  # exit
            task = tasks.pop(arg % len(tasks))
            mappings.pop(task.pid, None)
            kernel.sys_exit(task)


@pytest.mark.parametrize("make_config", [lazy_config, search_config])
@settings(max_examples=30)
@given(ops=st.lists(
    st.tuples(st.integers(0, N_OPS - 1), st.integers(0, 30)),
    max_size=25,
))
def test_random_interleavings_stay_coherent(make_config, ops):
    sim = boot_checked(make_config())
    run_ops(sim, ops)
    assert_clean(sim)
