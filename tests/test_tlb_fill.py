"""Every TLB fill builds each ``TlbEntry`` field from the PTE it filled.

Both fills build their entry positionally, so a field order slip would
put one field's value in another.  Each fill route runs here on a page
whose fields differ from the dataclass defaults:

* a writable user data page;
* a read-only user text page, fetched as instructions (``writable``
  False, instruction TLB);
* a cache-inhibited I/O page (``cache_inhibited`` True);
* a kernel direct-map page (``is_kernel`` True).

The routes are the 604's hardware walk fill, the 604's software refill
after a hash-table miss, the 603's refill from the Linux tree, and the
603's refill after its software hash-table search hits.
"""

import pytest

from repro.hw.access import AccessKind
from repro.hw.addr import ea_offset, ea_page_index
from repro.hw.pte import PP_RO
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import (
    IO_BASE_EA,
    KERNEL_DATA_OFFSET,
    USER_DATA_BASE,
    USER_TEXT_BASE,
)
from repro.params import KERNELBASE, M603_180, M604_185, PAGE_SIZE
from repro.sim.simulator import Simulator

#: No BATs, so kernel and I/O addresses translate through the TLB.
NO_BATS = KernelConfig.optimized().with_changes(
    bat_kernel_map=False, bat_io_map=False
)

#: case -> (ea, access kind, writable, cache_inhibited, is_kernel).
PAGES = {
    "user-data": (USER_DATA_BASE + 3 * PAGE_SIZE + 0x48, AccessKind.DATA,
                  True, False, False),
    "user-text": (USER_TEXT_BASE + 2 * PAGE_SIZE + 0x10,
                  AccessKind.INSTRUCTION, False, False, False),
    "io": (IO_BASE_EA + 5 * PAGE_SIZE + 0x20, AccessKind.DATA,
           True, True, True),
    "kernel": (KERNELBASE + KERNEL_DATA_OFFSET + 7 * PAGE_SIZE + 0x30,
               AccessKind.DATA, True, False, True),
}

#: route -> (machine, kernel config, whether the measured fill finds
#: the page in the hash table, translation path of the fill, monitor
#: event the fill counts once).
ROUTES = {
    "604-walk": (M604_185, NO_BATS, True, "hw_walk", "htab_hit"),
    "604-hash-miss": (M604_185, NO_BATS, False, "handler",
                      "hash_miss_interrupt"),
    "603-tree": (M603_180, NO_BATS, False, "handler",
                 "sw_tlb_miss_interrupt"),
    "603-htab-hit": (M603_180, NO_BATS.with_changes(use_htab_on_603=True),
                     True, "handler", "htab_hit"),
}


def linux_pte(kernel, task, ea):
    mm = kernel.mm_for_address(ea)
    assert mm is (kernel.kernel_mm if ea >= KERNELBASE else task.mm)
    return mm.page_table.lookup(ea).pte


@pytest.mark.parametrize("case", sorted(PAGES))
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_fill_builds_every_field_from_its_pte(route, case):
    spec, config, in_htab, path, event = ROUTES[route]
    ea, kind, writable, inhibited, is_kernel = PAGES[case]
    sim = Simulator(spec, config)
    kernel, machine = sim.kernel, sim.machine
    task = kernel.spawn("t", text_pages=8, data_pages=16)
    kernel.switch_to(task)
    # Resolve the page once (demand fault, hash-table reload), then drop
    # the TLBs, and the hash table where the fill must miss it, so the
    # measured fill is exactly one miss of the route under test.
    machine.translate(ea, kind, False)
    machine.invalidate_tlbs()
    if not in_htab:
        machine.htab.invalidate_all()
    before = machine.monitor.get(event)
    result = machine.translate(ea, kind, False)
    assert result.path == path
    assert machine.monitor.get(event) == before + 1

    vsid = machine.segments.vsid_for(ea)
    page_index = ea_page_index(ea)
    tlb = machine.itlb if kind is AccessKind.INSTRUCTION else machine.dtlb
    entry = tlb.peek(vsid, page_index)
    assert entry is not None
    source = linux_pte(kernel, task, ea)
    assert (entry.vsid, entry.page_index) == (vsid, page_index)
    assert entry.ppn == source.pfn
    assert entry.writable is source.writable is writable
    assert entry.cache_inhibited is source.cache_inhibited is inhibited
    assert entry.is_kernel is is_kernel
    assert result.pa == (entry.ppn * PAGE_SIZE) | ea_offset(ea)
    assert result.cache_inhibited is inhibited
    if kernel.uses_htab:
        # The hash-table PTE the walk and the software search read.
        hashed = machine.htab.peek(vsid, page_index)
        assert entry.ppn == hashed.rpn
        assert entry.writable is (hashed.pp != PP_RO)
        assert entry.cache_inhibited is hashed.cache_inhibited
