#!/usr/bin/env python3
"""Figure 1, live: follow one address through the PowerPC MMU.

Decomposes an effective address into its architected fields, computes
both hash functions, then performs the translation on a booted machine
three times — through the page-fault path, the hardware hash walk, and
the TLB — printing what the hardware did at each step.

Run:  python examples/figure1_walkthrough.py
"""

from repro import KernelConfig, M604_185, Simulator
from repro.hw.addr import decompose_ea, make_virtual_address
from repro.hw.hashtable import primary_hash, secondary_hash


def main():
    sim = Simulator(M604_185, KernelConfig.optimized())
    kernel = sim.kernel
    task = kernel.spawn("fig1", data_pages=8)
    kernel.switch_to(task)

    ea = 0x10002ABC  # data segment, page 2, offset 0xABC
    fields = decompose_ea(ea)
    vsid = task.mm.user_vsids[fields.segment]
    va = make_virtual_address(vsid, ea)

    print("32-Bit Effective Address")
    print(f"  EA = 0x{ea:08x}")
    print(f"    segment register #   {fields.segment}  (4 bits)")
    print(f"    page index           0x{fields.page_index:04x}  (16 bits)")
    print(f"    byte offset          0x{fields.offset:03x}  (12 bits)")
    print()
    print("Segment registers")
    print(f"    SR[{fields.segment}] holds VSID 0x{vsid:06x}  (24 bits)")
    print()
    print("52-Bit Virtual Address")
    print(f"    VA = 0x{va.value:013x}")
    print()
    print("Hashed page table")
    h1 = primary_hash(vsid, fields.page_index)
    h2 = secondary_hash(vsid, fields.page_index)
    groups = sim.machine.htab.groups
    print(f"    primary hash   0x{h1:05x} -> PTEG {h1 & (groups - 1)}")
    print(f"    secondary hash 0x{h2:05x} -> PTEG {h2 & (groups - 1)}")
    print()

    for attempt in range(1, 4):
        snapshot = sim.machine.monitor.snapshot()
        start = sim.machine.clock.snapshot()
        result = sim.machine.translate(ea, write=(attempt == 1))
        cycles = sim.machine.clock.since(start)
        events = sim.machine.monitor.delta(snapshot)
        print(f"translation #{attempt}: path={result.path:<8} "
              f"PA=0x{result.pa:08x}  {cycles} cycles  events={events}")
        if attempt == 1:
            # Drop the TLB entry so attempt 2 exercises the hardware walk.
            sim.machine.invalidate_tlbs()

    print()
    print("#1 faulted the page in (software refill through the Linux PTE")
    print("tree), #2 hit the hash table via the 604's hardware walk, and")
    print("#3 hit the TLB — the three levels of Figure 1.")


if __name__ == "__main__":
    main()
