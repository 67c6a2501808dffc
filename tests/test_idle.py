"""The idle task: zombie reclaim and page clearing (§7, §9)."""

from repro.kernel.config import IdlePageClearPolicy, KernelConfig
from repro.params import M604_185, PAGE_SIZE
from repro.sim.simulator import Simulator


def boot_idle(**changes):
    config = KernelConfig.optimized().with_changes(**changes)
    return Simulator(M604_185, config)


def make_zombies(sim, pages=30):
    """Touch pages then bump the context, leaving zombies in the htab."""
    kernel = sim.kernel
    task = kernel.spawn("z", data_pages=pages + 2)
    kernel.switch_to(task)
    for page in range(pages):
        kernel.user_access(task, 0x10000000 + page * PAGE_SIZE, 1, True)
    kernel.flush.flush_mm(task.mm)
    return task


class TestWindowDiscipline:
    def test_idle_consumes_roughly_the_window(self):
        sim = boot_idle()
        consumed = sim.kernel.run_idle(50000)
        assert consumed >= 50000
        # Overshoot is bounded by one work unit.
        assert consumed < 50000 + 20000

    def test_idle_spins_when_nothing_to_do(self):
        sim = boot_idle(
            idle_zombie_reclaim=False,
            idle_page_clear=IdlePageClearPolicy.OFF,
        )
        sim.kernel.run_idle(10000)
        assert sim.machine.clock.category("idle_spin") > 0


class TestZombieReclaim:
    def test_reclaim_clears_zombies(self):
        sim = boot_idle()
        make_zombies(sim, pages=30)
        _live, zombies_before = sim.kernel.htab_zombie_stats()
        assert zombies_before > 0
        # Enough idle to sweep the whole table.
        sim.kernel.run_idle(3_000_000)
        _live, zombies_after = sim.kernel.htab_zombie_stats()
        assert zombies_after == 0
        assert sim.machine.monitor["zombie_reclaimed"] == zombies_before

    def test_reclaim_never_touches_live_entries(self):
        sim = boot_idle()
        kernel = sim.kernel
        task = kernel.spawn("live", data_pages=10)
        kernel.switch_to(task)
        for page in range(8):
            kernel.user_access(task, 0x10000000 + page * PAGE_SIZE, 1, True)
        live_before, _ = kernel.htab_zombie_stats()
        kernel.run_idle(3_000_000)
        live_after, _ = kernel.htab_zombie_stats()
        assert live_after == live_before

    def test_empty_scan_counts_as_idle_spin(self):
        # A reclaim pass over a table with nothing to reclaim is not
        # "work": the loop must fall through to spinning so the window
        # is accounted as idle time (the scan used to report work
        # unconditionally, keeping the spin path unreachable).
        sim = boot_idle(idle_page_clear=IdlePageClearPolicy.OFF)
        sim.kernel.run_idle(100000)
        assert sim.machine.clock.category("idle_spin") > 0

    def test_reclaim_disabled_leaves_zombies(self):
        sim = boot_idle(idle_zombie_reclaim=False,
                        idle_page_clear=IdlePageClearPolicy.OFF)
        make_zombies(sim, pages=10)
        sim.kernel.run_idle(1_000_000)
        _live, zombies = sim.kernel.htab_zombie_stats()
        assert zombies > 0


class TestPageClearing:
    def test_uncached_list_stocks_pages(self):
        sim = boot_idle(idle_zombie_reclaim=False)
        sim.kernel.run_idle(200000)
        assert sim.kernel.palloc.precleared_count() > 0
        assert sim.machine.monitor["pages_precleared"] > 0

    def test_uncached_clearing_leaves_cache_alone(self):
        sim = boot_idle(idle_zombie_reclaim=False)
        resident_before = len(sim.machine.dcache)
        sim.kernel.run_idle(200000)
        assert len(sim.machine.dcache) <= resident_before + 2

    def test_cached_clearing_fills_cache(self):
        sim = boot_idle(
            idle_zombie_reclaim=False,
            idle_page_clear=IdlePageClearPolicy.CACHED_LIST,
        )
        sim.kernel.run_idle(500000)
        assert sim.machine.dcache.occupancy() > 0.5

    def test_no_list_policy_keeps_free_list_intact(self):
        sim = boot_idle(
            idle_zombie_reclaim=False,
            idle_page_clear=IdlePageClearPolicy.UNCACHED_NO_LIST,
        )
        free_before = sim.kernel.palloc.free_count()
        sim.kernel.run_idle(200000)
        assert sim.kernel.palloc.precleared_count() == 0
        assert sim.kernel.palloc.free_count() == free_before

    def test_off_policy_clears_nothing(self):
        sim = boot_idle(
            idle_zombie_reclaim=False,
            idle_page_clear=IdlePageClearPolicy.OFF,
        )
        sim.kernel.run_idle(200000)
        assert sim.kernel.idle_task.pages_cleared == 0


class TestPreclearTarget:
    """§9's stock is unbounded: the idle task keeps clearing free pages."""

    def test_unbounded_default_keeps_clearing(self):
        sim = boot_idle(idle_zombie_reclaim=False)
        sim.kernel.run_idle(500000)
        assert sim.kernel.palloc.precleared_count() > 4


class TestAccounting:
    def test_idle_work_charged_to_idle_categories(self):
        sim = boot_idle()
        make_zombies(sim)
        sim.kernel.run_idle(100000)
        breakdown = sim.breakdown()
        assert (
            breakdown.get("idle_reclaim", 0)
            + breakdown.get("idle_clear", 0)
            + breakdown.get("idle_spin", 0)
        ) > 0
