"""The hash-table reloader and the rejected scavenge design."""

import pytest

from repro.hw.pte import HashPte, PP_RO, PP_RW, WIMG_CACHE_INHIBIT
from repro.kernel.config import KernelConfig
from repro.kernel.pagetable import LinuxPte
from repro.kernel.reload import hash_pte_from_linux
from repro.params import M604_185, PAGE_SIZE
from repro.sim.simulator import Simulator


class TestPteTranslation:
    def test_writable_maps_to_pp_rw(self):
        pte = hash_pte_from_linux(1, 2, LinuxPte(pfn=3, writable=True))
        assert pte.pp == PP_RW and pte.rpn == 3 and pte.valid

    def test_readonly_maps_to_pp_ro(self):
        pte = hash_pte_from_linux(1, 2, LinuxPte(pfn=3, writable=False))
        assert pte.pp == PP_RO

    def test_dirty_sets_changed(self):
        pte = hash_pte_from_linux(1, 2, LinuxPte(pfn=3, dirty=True))
        assert pte.changed

    def test_cache_inhibit_propagates(self):
        pte = hash_pte_from_linux(
            1, 2, LinuxPte(pfn=3, cache_inhibited=True)
        )
        assert pte.cache_inhibited

    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("dirty", [True, False])
    @pytest.mark.parametrize("inhibited", [True, False])
    def test_every_field_lands_in_place(self, writable, dirty, inhibited):
        """The PTE is built positionally; compare it field by field."""
        linux = LinuxPte(pfn=3, writable=writable, dirty=dirty,
                         cache_inhibited=inhibited)
        assert hash_pte_from_linux(5, 9, linux) == HashPte(
            vsid=5, page_index=9, rpn=3, valid=True, secondary=False,
            referenced=True, changed=dirty,
            wimg=WIMG_CACHE_INHIBIT if inhibited else 0,
            pp=PP_RW if writable else PP_RO,
        )


class TestInstall:
    def test_install_counts_reload(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        cycles = sim.kernel.reloader.install(5, 9, LinuxPte(pfn=7))
        assert cycles > 0
        assert sim.machine.monitor["htab_reload"] == 1
        assert sim.machine.htab.peek(5, 9) is not None


class TestOnDemandScavenge:
    def _saturated_sim(self):
        config = KernelConfig.optimized().with_changes(
            idle_zombie_reclaim=False, on_demand_scavenge=True
        )
        sim = Simulator(M604_185, config)
        kernel = sim.kernel
        task = kernel.spawn("churn", data_pages=100)
        kernel.switch_to(task)
        htab = sim.machine.htab
        while htab.evicts == 0:
            for page in range(0, 96, 2):
                kernel.user_access(
                    task, 0x10000000 + page * PAGE_SIZE, 1, True
                )
            kernel.flush.flush_mm(task.mm)
        return sim

    def test_evict_triggers_scavenge_burst(self):
        sim = self._saturated_sim()
        assert sim.machine.monitor["scavenge_burst"] >= 1
        assert sim.kernel.reloader.scavenge_bursts >= 1
        assert sim.machine.monitor["zombie_reclaimed"] > 0

    def test_scavenge_charged_to_its_own_category(self):
        sim = self._saturated_sim()
        assert sim.breakdown().get("scavenge", 0) > 0

    def test_scavenge_disabled_by_default(self):
        sim = Simulator(M604_185, KernelConfig.optimized())
        assert not sim.config.on_demand_scavenge


class TestReclaimSanitizerCheck:
    """Both zombie reclaimers let the sanitizer check every slot."""

    @pytest.mark.parametrize("changes, idle_window", [
        ({"idle_zombie_reclaim": False, "on_demand_scavenge": True}, 0),
        ({}, 20000),
    ], ids=["scavenge", "idle"])
    def test_every_reclaimed_slot_is_checked(self, changes, idle_window):
        sim = Simulator(
            M604_185, KernelConfig.optimized().with_changes(**changes),
            htab_groups=8, sanitize=True,
        )
        checked = []
        check = sim.sanitizer.after_reclaim_slot

        def spy(flat, pte):
            checked.append(flat)
            check(flat, pte)

        sim.sanitizer.after_reclaim_slot = spy
        kernel = sim.kernel
        task = kernel.spawn("churn", data_pages=40)
        kernel.switch_to(task)
        for _round in range(6):
            for page in range(40):
                kernel.user_access(
                    task, 0x10000000 + page * PAGE_SIZE, 1, True
                )
            kernel.flush.flush_mm(task.mm)
            if idle_window:
                kernel.run_idle(idle_window)
        reclaimed = sim.machine.monitor["zombie_reclaimed"]
        assert reclaimed > 0
        assert len(checked) == reclaimed
        assert sim.sanitizer.reporter.total == 0
