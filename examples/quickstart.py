#!/usr/bin/env python3
"""Quickstart: boot a simulated PowerPC system and watch the MMU work.

Boots two kernels on the same 185 MHz 604 machine model — the paper's
optimized Linux/PPC and the original unoptimized kernel — runs the same
small program on each, and prints where the cycles went.

Run:  python examples/quickstart.py
"""

from repro import KernelConfig, M604_185, Simulator
from repro.params import PAGE_SIZE


def program(task):
    """A small process: touch a working set, make syscalls, use a pipe."""
    yield ("getpid",)
    # Fault in and revisit a 16-page working set.
    for page in range(16):
        yield ("touch", 0x10000000 + page * PAGE_SIZE, 8, True)
    for _ in range(10):
        for page in range(16):
            yield ("touch", 0x10000000 + page * PAGE_SIZE, 8, False)
    # Map, use, and unmap a 64-page region (a §7-sized range flush).
    addr = yield ("mmap", 64 * PAGE_SIZE, None, None)
    for page in range(0, 64, 4):
        yield ("touch", addr + page * PAGE_SIZE, 4, True)
    yield ("munmap", addr, 64 * PAGE_SIZE)
    # Talk to ourselves through a pipe.
    pipe = yield ("pipe",)
    for _ in range(20):
        yield ("pipe_write", pipe, 64, 0x10000000)
        yield ("pipe_read", pipe, 64, 0x10000000)
    yield ("exit", 0)


def run(label, config):
    sim = Simulator(M604_185, config)
    task = sim.kernel.spawn("demo", text_pages=8, data_pages=80)
    sim.executive.add(task, program(task))
    sim.run()

    counters = sim.counters()
    print(f"--- {label} on {sim.spec.name} ---")
    print(f"  wall clock          {sim.elapsed_us():10.1f} us")
    print(f"  TLB misses          {counters.get('itlb_miss', 0) + counters.get('dtlb_miss', 0):10d}")
    print(f"  hash-table reloads  {counters.get('htab_reload', 0):10d}")
    print(f"  page faults         {counters.get('page_fault_minor', 0):10d}")
    print(f"  BAT translations    {counters.get('bat_translation', 0):10d}")
    print("  cycle breakdown:")
    for category, cycles in sorted(
        sim.breakdown().items(), key=lambda item: -item[1]
    )[:6]:
        print(f"    {category:<16} {cycles:10d}")
    print()
    return sim.elapsed_us()


def main():
    optimized = run("optimized Linux/PPC", KernelConfig.optimized())
    unoptimized = run("unoptimized Linux/PPC", KernelConfig.unoptimized())
    print(f"speedup from the paper's optimizations: "
          f"{unoptimized / optimized:.2f}x")


if __name__ == "__main__":
    main()
