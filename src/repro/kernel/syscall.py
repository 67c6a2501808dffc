"""System-call entry costs, the kernel-footprint map, and pipes.

§5.1 measured that a third of all TLB entries belonged to the kernel.
That footprint exists because every kernel entry executes real kernel
text and touches real kernel data; this module records *which* kernel
pages each operation touches so the footprint is reproduced mechanically:
with the BAT mapping off, these touches compete for TLB slots with user
pages; with it on, they cost no TLB slots at all.

Pipes are the LmBench communication substrate: a one-page kernel buffer,
data copied in on write and out on read, with reader/writer blocking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import SyscallError
from repro.params import (
    CACHE_LINE_SIZE,
    PAGE_SIZE,
    SYSCALL_FAST_CYCLES,
    SYSCALL_SLOW_CYCLES,
)

#: (kernel text pages, text lines each, kernel data pages, data lines each)
#: touched by each operation.  Page numbers index the kernel's hot text
#: and hot data regions.  The footprint sizes are chosen so the whole hot
#: kernel set is ~30 text + ~10 data pages — which, PTE-mapped, occupies
#: roughly a third of a 603's TLB, the paper's measured footprint.
KERNEL_FOOTPRINT: Dict[str, Tuple[List[int], int, List[int], int]] = {
    "entry": ([0, 1], 5, [0, 1], 2),
    "getpid": ([2], 2, [0], 1),
    "read": ([3, 4, 5, 6], 5, [2, 3], 3),
    "write": ([7, 8, 9, 10], 5, [4, 5], 3),
    "mmap": ([11, 12, 13], 6, [6, 7], 4),
    "munmap": ([13, 14, 15], 6, [6, 7], 4),
    "brk": ([11], 4, [6], 2),
    "fork": ([16, 17, 18, 19], 8, [8, 9, 10], 5),
    "exec": ([20, 21, 22, 23], 8, [11, 12, 13], 5),
    "exit": ([24, 25], 6, [14], 2),
    "ctxsw": ([26, 27, 28], 6, [15, 16], 4),
    "fault": ([29, 30, 31], 5, [17, 18], 3),
    "pipe": ([32, 33, 34], 5, [19], 4),
    "fs": ([35, 36, 37, 38, 39], 5, [20, 21, 22], 4),
    "idle": ([40], 2, [23], 1),
}

#: Hot-set sizes implied by the table above: ~41 text + 24 data pages.
#: PTE-mapped, that is a third of a 603's 128 TLB slots — the §5.1
#: measured kernel footprint.
KERNEL_HOT_TEXT_PAGES = 41
KERNEL_HOT_DATA_PAGES = 24

#: Base instruction-path cycles per syscall body (beyond entry/exit and
#: beyond the memory traffic charged through the cache model).
SYSCALL_BODY_CYCLES: Dict[str, int] = {
    "getpid": 24,
    #: The fd-layer read/write paths (file table, locking, poll wakeups)
    #: are an order of magnitude heavier than a null syscall.
    "read": 1200,
    "write": 1200,
    #: mmap/munmap carry file lookup, vma allocation and rb-tree edits.
    "mmap": 2400,
    "munmap": 2000,
    "brk": 160,
    "fork": 1600,
    #: exec parses the ELF image and sets up the dynamic linker.
    "exec": 6000,
    "exit": 700,
    "pipe_create": 300,
}


def entry_exit_cycles(optimized: bool) -> int:
    """Syscall entry+exit path cost per kernel generation."""
    return SYSCALL_FAST_CYCLES if optimized else SYSCALL_SLOW_CYCLES


@dataclass
class Pipe:
    """A kernel pipe: one page of buffer, blocking reader/writer."""

    ident: int
    buffer_pfn: int
    capacity: int = PAGE_SIZE
    fill: int = 0
    #: Tasks blocked waiting for data / for space.
    readers_waiting: list = field(default_factory=list)
    writers_waiting: list = field(default_factory=list)
    total_bytes: int = 0

    @property
    def space(self) -> int:
        return self.capacity - self.fill

    def lines_for(self, nbytes: int) -> int:
        """Cache lines a copy of ``nbytes`` moves through the buffer."""
        return max(1, (nbytes + CACHE_LINE_SIZE - 1) // CACHE_LINE_SIZE)


class PipeTable:
    """Pipe namespace for the kernel."""

    def __init__(self, kernel):
        self.kernel = kernel
        self._pipes: Dict[int, Pipe] = {}
        self._next_ident = 1

    def create(self) -> Pipe:
        pfn = self.kernel.palloc.get_free_page(zeroed=False)
        pipe = Pipe(ident=self._next_ident, buffer_pfn=pfn)
        self._next_ident += 1
        self._pipes[pipe.ident] = pipe
        tracer = self.kernel.machine.tracer
        if tracer is not None:
            tracer.instant("pipe-create", "ipc", pipe.ident)
        return pipe

    def get(self, ident: int) -> Pipe:
        pipe = self._pipes.get(ident)
        if pipe is None:
            raise SyscallError("pipe", f"no such pipe: {ident}")
        return pipe
