"""The kernel facade: boot, system calls, faults, switching, idle.

This is the Linux/PPC-shaped layer the paper instruments.  It owns the
machine, implements the process lifecycle (spawn/fork/exec/exit), memory
system calls (mmap/munmap/brk), pipes and file reads, installs the
TLB/hash miss handlers, and runs the idle task.  Every path charges the
cycle ledger and the hardware monitor the way §4's instrumentation
counted the real system.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import KernelPanic, SegmentFault, SyscallError
from repro.hw.machine import AccessKind, MachineModel
from repro.hw.pte import WIMG_CACHE_INHIBIT
from repro.hw.bat import BatRegister
from repro.kernel.config import KernelConfig, VsidPolicy
from repro.kernel.fault import MissHandlers
from repro.kernel.flush import FlushEngine
from repro.kernel.fs import FileSystem
from repro.kernel.idle import IdleTask
from repro.kernel.pagetable import LinuxPte, TwoLevelPageTable, page_base
from repro.kernel.palloc import PageAllocator
from repro.kernel.reload import HtabReloader
from repro.kernel.sched import Scheduler
from repro.kernel.shootdown import ShootdownEngine
from repro.kernel.syscall import (
    KERNEL_FOOTPRINT,
    PipeTable,
    SYSCALL_BODY_CYCLES,
    entry_exit_cycles,
)
from repro.kernel.task import Mm, Task, TaskState, Vma
from repro.kernel.vsid import (
    ContextCounterVsids,
    PidScatterVsids,
    kernel_vsids,
)
from repro.params import (
    CTXSW_FAST_CYCLES,
    CTXSW_SLOW_CYCLES,
    KERNELBASE,
    LINE_COPY_CYCLES,
    PAGE_SHIFT,
    PAGE_SIZE,
    PIPE_WAKEUP_CYCLES,
)

#: Enum members bound once: the switch and wakeup paths read them per
#: call, and a module global reads far faster than an enum member.
_DATA = AccessKind.DATA
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_SLEEPING = TaskState.SLEEPING
_EXITED = TaskState.EXITED

#: Kernel image: 2 MB of text+static data at the bottom of RAM.
KERNEL_IMAGE_PAGES = 512
#: Offset of the kernel's hot data region within the image.
KERNEL_DATA_OFFSET = 0x100000

#: User address-space layout (all within user segments 0..11).
USER_TEXT_BASE = 0x01000000
USER_DATA_BASE = 0x10000000
USER_MMAP_BASE = 0x40000000
USER_STACK_TOP = 0x70000000

#: I/O (framebuffer) space, in kernel segment 15.
IO_BASE_EA = 0xF8000000
IO_SIZE = 8 * 1024 * 1024

#: User-visible window for per-process ioremap'd BAT mappings (§5.1's
#: "giving each process its own data BAT entry that could be switched
#: during a context switch").  Segment 11, block-aligned.
USER_IO_WINDOW = 0xB0000000
#: The DBAT slot dedicated to the per-process I/O mapping.
USER_IO_BAT_SLOT = 2

#: Generic page-fault path cost (beyond the memory traffic it causes).
PAGE_FAULT_FAST_CYCLES = 260
PAGE_FAULT_SLOW_CYCLES = 900

#: Per-page bookkeeping during fork's address-space copy.
FORK_PER_PAGE_CYCLES = 30

#: Pages the dynamic linker remaps when a dynamically linked process
#: starts (§7: "ranges of 40 — 110 pages ... flushed in one shot").
DYNLINK_REMAP_PAGES = 48

#: Shared C library image.
LIBC_IMAGE = "lib:libc.so"
LIBC_PAGES = 64

#: ``KERNEL_FOOTPRINT`` resolved once into each operation's page visits,
#: ``(ea, lines, write, kind, first_line)`` in touch order: text pages,
#: then data pages, each staggered so hot pages do not alias one set.
_KERNEL_VISITS: Dict[str, Tuple[tuple, ...]] = {
    op: tuple(
        [
            (KERNELBASE + page * PAGE_SIZE, text_lines, False,
             AccessKind.INSTRUCTION, (page * 37) % 96)
            for page in text_pages
        ]
        + [
            (KERNELBASE + KERNEL_DATA_OFFSET + page * PAGE_SIZE, data_lines,
             True, AccessKind.DATA, (page * 53) % 96)
            for page in data_pages
        ]
    )
    for op, (text_pages, text_lines, data_pages, data_lines)
    in KERNEL_FOOTPRINT.items()
}


class _KernelMm:
    """The kernel's own address space: just the direct-map page table."""

    def __init__(self, page_table: TwoLevelPageTable):
        self.page_table = page_table
        self.user_vsids: List[int] = []


class Kernel:
    """One booted instance of the simulated kernel."""

    def __init__(self, machine: MachineModel, config: KernelConfig):
        self.machine = machine
        self.config = config
        #: Whether reloads feed the hash table: the 604's hardware walk
        #: requires it; the 603 keeps it only when configured (§6.2).
        self.uses_htab = (
            machine.spec.hardware_tablewalk or config.use_htab_on_603
        )
        htab_first_pfn = machine.htab_base_pa >> PAGE_SHIFT
        self.palloc = PageAllocator(
            machine,
            first_pfn=KERNEL_IMAGE_PAGES,
            last_pfn=htab_first_pfn - 1,
        )
        self._build_kernel_address_space()
        self._build_vsid_allocator()
        self._program_bats()
        # Fixed kernel anchors the miss handlers touch.
        self.task_struct_pa = KERNEL_DATA_OFFSET + 0x2000
        self.kernel_stack_pa = KERNEL_DATA_OFFSET + 0x4000
        #: One running task slot per CPU (``current_task`` views the
        #: slot of the machine's current CPU).
        self._current_tasks: List[Optional[Task]] = [None] * machine.n_cpus
        self.flush = FlushEngine(self)
        self.shootdown = ShootdownEngine(self)
        self.reloader = HtabReloader(self)
        self.miss_handlers = MissHandlers(self)
        machine.install_refill_handler(self.miss_handlers.refill)
        self.scheduler = Scheduler(self)
        self.fs = FileSystem(self)
        self.pipes = PipeTable(self)
        self.idle_task = IdleTask(self)
        self.tasks: Dict[int, Task] = {}
        self._next_pid = 1
        #: The mm whose VSID bump is in flight (see FlushEngine._bump_context);
        #: a counter wrap during the bump must not renumber it.
        self._mm_in_bump: Optional[Mm] = None
        #: pid -> tasks blocked in waitpid() on that pid.
        self.exit_waiters: Dict[int, List[Task]] = {}
        # Kernel segment registers live for the whole boot, on every CPU.
        for cpu in machine.cpus:
            for index, vsid in zip(range(12, 16), kernel_vsids()):
                cpu.segments.write(index, vsid)
        # The shared C library image every dynamic exec maps.
        self.create_image(LIBC_IMAGE, LIBC_PAGES)

    # -- per-CPU current task ------------------------------------------------------

    @property
    def current_task(self) -> Optional[Task]:
        """The task running on the machine's *current* CPU."""
        return self._current_tasks[self.machine.current_cpu]

    @current_task.setter
    def current_task(self, task: Optional[Task]) -> None:
        self._current_tasks[self.machine.current_cpu] = task

    # -- boot helpers -------------------------------------------------------------

    def _build_kernel_address_space(self) -> None:
        """Direct-map all of RAM at KERNELBASE in the kernel page table."""
        self.kernel_page_table = TwoLevelPageTable(
            alloc_frame=self.palloc.alloc_frame
        )
        ram_pages = self.machine.ram_bytes >> PAGE_SHIFT
        for pfn in range(ram_pages):
            self.kernel_page_table.set_pte(
                KERNELBASE + (pfn << PAGE_SHIFT),
                LinuxPte(pfn=pfn, present=True, writable=True, user=False),
            )
        # I/O space: cache-inhibited identity mappings.
        for page in range(IO_SIZE >> PAGE_SHIFT):
            ea = IO_BASE_EA + (page << PAGE_SHIFT)
            self.kernel_page_table.set_pte(
                ea,
                LinuxPte(
                    pfn=ea >> PAGE_SHIFT,
                    present=True,
                    writable=True,
                    user=False,
                    cache_inhibited=True,
                ),
            )
        self.kernel_mm = _KernelMm(self.kernel_page_table)

    def _build_vsid_allocator(self) -> None:
        config = self.config
        if config.vsid_policy is VsidPolicy.PID_SCATTER:
            self.vsid_allocator = PidScatterVsids(config.vsid_scatter_constant)
        else:
            allocator = ContextCounterVsids(config.vsid_scatter_constant)
            allocator.on_wrap = self._on_vsid_wrap
            self.vsid_allocator = allocator

    def _on_vsid_wrap(self) -> None:
        """Context-counter exhaustion: flush the world, renumber everyone.

        All of the actual work lives in :meth:`post_global_flush`, which
        ``flush_everything`` invokes unconditionally — the wrap path and a
        direct ``flush_everything`` call follow the same protocol.
        """
        self.flush.flush_everything()

    def post_global_flush(self) -> None:
        """The single coherent protocol after a flush-everything event.

        Every translation is gone from the TLBs and hash table, so:

        * zombies are truly gone for either allocator strategy;
        * with the context counter, retired VSID numbers are safe to
          reuse — restart the counter and renumber every live context
          (reloading the live segment registers so the current task's new
          VSIDs take effect immediately).

        An mm whose bump is in flight (``_mm_in_bump``) is skipped: its
        fresh VSIDs come from the allocation that triggered the wrap.
        """
        allocator = self.vsid_allocator
        allocator.reset_after_global_flush()
        if not isinstance(allocator, ContextCounterVsids):
            # PID-derived VSIDs are fixed for the process lifetime;
            # nothing to renumber.
            return
        allocator.hard_reset()
        for task in self.tasks.values():
            if task.mm is self._mm_in_bump:
                continue
            task.mm.user_vsids = allocator.allocate(task.pid)
        # Every CPU's live segment registers hold retired VSID numbers
        # now; reload each one with its current task's fresh set.
        for cpu, task in enumerate(self._current_tasks):
            if task is not None and task.mm is not self._mm_in_bump:
                self.machine.context_switch_segments_on(
                    cpu, task.mm.segment_vsids()
                )

    def _program_bats(self) -> None:
        machine = self.machine
        if self.config.bat_kernel_map:
            # One BAT pair covers the whole 32 MB direct map: kernel
            # text, data, page tables and the hash table all translate
            # without any TLB or hash-table presence (§5.1).  BATs are
            # per-CPU registers, so boot programs every processor.
            bat = BatRegister.mapping(
                ea_base=KERNELBASE,
                pa_base=0,
                size_bytes=machine.ram_bytes,
            )
            for cpu in machine.cpus:
                cpu.bats.map_both(0, bat)
        if self.config.bat_io_map:
            io_bat = BatRegister.mapping(
                ea_base=IO_BASE_EA,
                pa_base=IO_BASE_EA,
                size_bytes=IO_SIZE,
                wimg=WIMG_CACHE_INHIBIT,
            )
            for cpu in machine.cpus:
                cpu.bats.set(1, io_bat, instruction=False)

    # -- addressing helpers -----------------------------------------------------------

    def mm_for_address(self, ea: int):
        if ea >= KERNELBASE or IO_BASE_EA <= ea:
            return self.kernel_mm
        task = self.current_task
        if task is None:
            raise KernelPanic(f"user address {ea:#x} with no current task")
        return task.mm

    def kernel_ea_for_frame(self, pfn: int) -> int:
        return KERNELBASE + (pfn << PAGE_SHIFT)

    # -- kernel footprint ----------------------------------------------------------------

    def touch_kernel(self, op: str) -> None:
        """Execute one operation's kernel text/data footprint (§5.1).

        With the BAT map these accesses translate for free; without it
        they occupy TLB entries like any other page.  The machine
        resolves each visit's BAT translation once per BAT state (see
        :meth:`~repro.hw.machine.MachineModel.access_visits`).
        """
        self.machine.access_visits(op, _KERNEL_VISITS.get(op, ()))

    def _syscall_entry(self, name: str) -> None:
        if self.config.syscall_entry_cycles is not None:
            cycles = self.config.syscall_entry_cycles
        else:
            cycles = entry_exit_cycles(self.config.optimized_entry)
        self.machine.clock.add(cycles, "syscall")
        self.machine.monitor.count("syscall")
        if self.machine.tracer is not None:
            self.machine.tracer.instant(f"syscall:{name}", "syscall")
        self.touch_kernel("entry")
        self.touch_kernel(name)
        body = SYSCALL_BODY_CYCLES.get(name)
        if body:
            self.machine.clock.add(body, "syscall")

    # -- copies ---------------------------------------------------------------------------

    def kernel_copy_lines(
        self, src_ea: Optional[int], dst_ea: Optional[int], lines: int
    ) -> int:
        """Copy ``lines`` cache lines; either side may be absent.

        Both addresses translate through the machine (kernel addresses
        use the BAT or kernel PTEs; user addresses the user's TLB
        entries), so copies exercise exactly the translation paths the
        paper's copy-heavy benchmarks (pipe bandwidth, file reread) do.
        """
        machine = self.machine
        cycles = lines * LINE_COPY_CYCLES
        machine.clock.add(cycles, "copy")
        if src_ea is not None:
            machine.access_page(src_ea, lines=lines, write=False)
        if dst_ea is not None:
            machine.access_page(dst_ea, lines=lines, write=True)
        return cycles

    # -- page faults -------------------------------------------------------------------------

    def handle_page_fault(self, ea: int, write: bool) -> Tuple[LinuxPte, int]:
        """Demand-fault one user page; returns (pte, cycles)."""
        if ea >= KERNELBASE:
            raise KernelPanic(f"kernel page missing from direct map: {ea:#x}")
        task = self.current_task
        if task is None:
            raise KernelPanic(f"page fault at {ea:#x} with no current task")
        mm = task.mm
        vma = mm.find_vma(ea)
        if vma is None:
            raise SegmentFault(ea)
        if vma.pooled:
            # Physically still mapped, but unmapped as far as the
            # process is concerned — touching it is a segfault.
            raise SegmentFault(ea, "access to pooled (unmapped) region")
        if write and not vma.writable:
            raise SegmentFault(ea, "write to read-only mapping")
        cycles = (
            PAGE_FAULT_FAST_CYCLES
            if self.config.optimized_entry
            else PAGE_FAULT_SLOW_CYCLES
        )
        self.touch_kernel("fault")
        base = page_base(ea)
        if vma.file is not None:
            file = self.fs.lookup(vma.file)
            page = (base - vma.start + vma.file_offset) >> PAGE_SHIFT
            pfn, wait = self.fs.page_frame(file, page)
            # Executable images are staged into the page cache at
            # creation, so faults on them never wait for the disk.
            cycles += wait
            mm.shared_pages.add(pfn)
        else:
            pfn = self.palloc.get_free_page(zeroed=True)
        pte = LinuxPte(
            pfn=pfn,
            present=True,
            writable=vma.writable and vma.file is None,
            user=True,
        )
        mm.page_table.set_pte(base, pte)
        mm.resident[base] = pfn
        self.machine.monitor.count("page_fault_minor")
        self.machine.clock.add(cycles, "fault")
        if self.machine.tracer is not None:
            self.machine.tracer.complete(
                "page-fault", "vm", cycles, hex(ea), write
            )
        return pte, cycles

    # -- user memory access -----------------------------------------------------------------

    def user_access(
        self,
        task: Task,
        ea: int,
        lines: int = 1,
        write: bool = False,
        kind: AccessKind = AccessKind.DATA,
        first_line: int = 0,
    ) -> int:
        """One page-visit by a user task (must be current)."""
        self.check_current(task)
        return self.machine.access_page(ea, lines, write, kind, first_line)

    def check_current(self, task: Task) -> None:
        """Raise unless ``task`` runs on the current CPU.

        User memory is reachable only through the running task's
        segment registers.  The executive's ``work`` action checks once
        per action and then visits through the machine directly.
        """
        if task is not self.current_task:
            raise KernelPanic(
                f"task {task.pid} accessed memory while not current"
            )

    # -- context switching -------------------------------------------------------------------

    def switch_to(self, task: Task) -> int:
        """Full context-switch path onto ``task``."""
        if task.state is _EXITED:
            raise KernelPanic(f"switch to exited task {task.pid}")
        # Nothing below switches tasks before the slot is written at
        # the end, so one read of the property serves the whole path.
        previous = self.current_task
        if task is previous:
            task.state = _RUNNING
            return 0
        machine = self.machine
        if self.config.ctxsw_cycles is not None:
            cycles = self.config.ctxsw_cycles
        else:
            cycles = (
                CTXSW_FAST_CYCLES
                if self.config.optimized_entry
                else CTXSW_SLOW_CYCLES
            )
        if self.config.cache_preloads:
            # §10.2: touch the switch path's data ahead of using it; the
            # fills hide under the register save/restore below.
            for ea, lines, _write, kind, first_line in _KERNEL_VISITS["ctxsw"]:
                if kind is _DATA:
                    machine.prefetch_page_lines(
                        ea, lines=lines, first_line=first_line
                    )
            machine.prefetch_page_lines(
                KERNELBASE + self.task_struct_pa, lines=4
            )
        machine.clock.add(cycles, "context_switch")
        self.touch_kernel("ctxsw")
        if previous is not None and previous.state is _RUNNING:
            previous.state = _READY
        # Scrub this CPU's deferred remote invalidations before the new
        # task's segment registers make their VSIDs reachable again.
        self.shootdown.drain_current_cpu()
        machine.context_switch_segments(task.mm.segment_vsids())
        # §5.1's per-process framebuffer BAT: swap DBAT[2] with the task.
        if task.mm.io_bat is not None:
            machine.bats.set(USER_IO_BAT_SLOT, task.mm.io_bat,
                             instruction=False)
            machine.clock.add(3, "context_switch")
        elif previous is not None and previous.mm.io_bat is not None:
            machine.bats.clear(USER_IO_BAT_SLOT, instruction=False)
            machine.clock.add(3, "context_switch")
        machine.monitor.count("context_switch")
        task.state = _RUNNING
        task.last_scheduled = machine.clock.total
        self.current_task = task
        if machine.tracer is not None:
            machine.tracer.instant("ctxsw", "sched", task.name, task.pid)
        return cycles

    # -- process lifecycle ----------------------------------------------------------------------

    def create_image(self, name: str, pages: int):
        """Register an executable image and stage it in the page cache."""
        if not self.fs.exists(name):
            self.fs.create(name, pages * PAGE_SIZE, wired=True)
            self.fs.prefault(name)
        return self.fs.lookup(name)

    def _new_mm(self, pid: int) -> Mm:
        page_table = TwoLevelPageTable(alloc_frame=self.palloc.alloc_frame)
        vsids = self.vsid_allocator.allocate(pid)
        return Mm(page_table, vsids)

    def spawn(
        self,
        name: str,
        text_pages: int = 16,
        data_pages: int = 8,
        stack_pages: int = 4,
        seed: int = 0,
    ) -> Task:
        """Create a fresh process (boot-time; charges nothing)."""
        pid = self._next_pid
        self._next_pid += 1
        image = f"bin:{name}"
        self.create_image(image, text_pages)
        mm = self._new_mm(pid)
        mm.add_vma(Vma(
            start=USER_TEXT_BASE,
            end=USER_TEXT_BASE + text_pages * PAGE_SIZE,
            writable=False,
            file=image,
            name="text",
        ))
        mm.add_vma(Vma(
            start=USER_DATA_BASE,
            end=USER_DATA_BASE + data_pages * PAGE_SIZE,
            name="data",
        ))
        mm.add_vma(Vma(
            start=USER_STACK_TOP - stack_pages * PAGE_SIZE,
            end=USER_STACK_TOP,
            name="stack",
        ))
        task = Task(pid=pid, name=name, mm=mm, seed=seed,
                    cpu=self.scheduler.assign_cpu())
        self.tasks[pid] = task
        return task

    def sys_fork(self, parent: Task) -> Task:
        """fork(): duplicate the parent's address space."""
        self._syscall_entry("fork")
        # Pooled regions are unmapped from the process's point of view;
        # the child must not inherit them, so make them real first.
        self.shootdown.pool_drain(parent.mm)
        pid = self._next_pid
        self._next_pid += 1
        mm = self._new_mm(pid)
        for vma in parent.mm.vmas:
            mm.add_vma(Vma(
                start=vma.start,
                end=vma.end,
                writable=vma.writable,
                file=vma.file,
                file_offset=vma.file_offset,
                name=vma.name,
            ))
        machine = self.machine
        for base, pfn in parent.mm.resident.items():
            machine.clock.add(FORK_PER_PAGE_CYCLES, "fork")
            vma = mm.find_vma(base)
            if vma is not None and vma.file is not None:
                # Read-only file pages (text) are shared outright.
                mm.resident[base] = pfn
                mm.shared_pages.add(pfn)
                mm.page_table.set_pte(
                    base, LinuxPte(pfn=pfn, present=True, writable=False)
                )
                continue
            new_pfn = self.palloc.get_free_page(zeroed=False)
            self.kernel_copy_lines(
                self.kernel_ea_for_frame(pfn),
                self.kernel_ea_for_frame(new_pfn),
                lines=PAGE_SIZE // machine.dcache.line_size,
            )
            mm.resident[base] = new_pfn
            mm.page_table.set_pte(
                base, LinuxPte(pfn=new_pfn, present=True, writable=True)
            )
        # The write-protect pass of the real (COW) fork invalidates the
        # parent's cached translations; the flush cost is the same.
        self.flush.flush_mm(parent.mm)
        child = Task(pid=pid, name=f"{parent.name}-child", mm=mm,
                     seed=parent.seed + pid, cpu=self.scheduler.assign_cpu())
        self.tasks[pid] = child
        return child

    def sys_exec(
        self,
        task: Task,
        image_name: str,
        text_pages: int = 16,
        data_pages: int = 8,
        stack_pages: int = 4,
        dynamic: bool = True,
    ) -> None:
        """exec(): replace the address space with a new image."""
        self._syscall_entry("exec")
        image = f"bin:{image_name}"
        self.create_image(image, text_pages)
        # flush_mm + the page-release pass below already invalidate and
        # free everything pooled; just drop the pool bookkeeping.
        self.shootdown.pool_forget(task.mm)
        self.flush.flush_mm(task.mm)
        self._drop_user_pages(task.mm)
        task.mm.vmas = []
        task.mm.io_bat = None
        if task is self.current_task:
            self.machine.bats.clear(USER_IO_BAT_SLOT, instruction=False)
        task.name = image_name
        mm = task.mm
        mm.add_vma(Vma(
            start=USER_TEXT_BASE,
            end=USER_TEXT_BASE + text_pages * PAGE_SIZE,
            writable=False,
            file=image,
            name="text",
        ))
        mm.add_vma(Vma(
            start=USER_DATA_BASE,
            end=USER_DATA_BASE + data_pages * PAGE_SIZE,
            name="data",
        ))
        mm.add_vma(Vma(
            start=USER_STACK_TOP - stack_pages * PAGE_SIZE,
            end=USER_STACK_TOP,
            name="stack",
        ))
        if dynamic:
            # "when a dynamically linked Linux process is started, the
            # process must remap its address space to incorporate shared
            # libraries" (§7) — map libc, then the linker's remap flush.
            lib_base = USER_MMAP_BASE
            mm.add_vma(Vma(
                start=lib_base,
                end=lib_base + LIBC_PAGES * PAGE_SIZE,
                writable=False,
                file=LIBC_IMAGE,
                name="libc",
            ))
            self.flush.flush_range(
                mm, lib_base, lib_base + DYNLINK_REMAP_PAGES * PAGE_SIZE
            )

    def _drop_user_pages(self, mm: Mm) -> None:
        for base, pfn in list(mm.resident.items()):
            mm.page_table.clear_pte(base)
            if pfn not in mm.shared_pages:
                self.palloc.free_page(pfn)
        mm.resident.clear()
        mm.shared_pages.clear()

    def sys_exit(self, task: Task, code: int = 0) -> None:
        """exit(): tear the process down."""
        self._syscall_entry("exit")
        self.shootdown.pool_forget(task.mm)
        if not self.config.lazy_vsid_flush:
            # The original kernel scrubbed the dying context's PTEs out
            # of the hash table; the lazy kernel just retires the VSIDs.
            self.flush.flush_mm(task.mm)
        self._drop_user_pages(task.mm)
        task.mm.page_table.release_frames(self.palloc.free_page)
        self.vsid_allocator.retire(task.mm.user_vsids)
        task.state = _EXITED
        task.exit_code = code
        self.scheduler.dequeue(task)
        for cpu, current in enumerate(self._current_tasks):
            if current is task:
                self._current_tasks[cpu] = None
        del self.tasks[task.pid]
        self._wake_all(self.exit_waiters.pop(task.pid, []))

    # -- memory syscalls ------------------------------------------------------------------------

    def sys_mmap(
        self,
        task: Task,
        length: int,
        file: Optional[str] = None,
        addr: Optional[int] = None,
        writable: bool = True,
    ) -> int:
        """mmap(): map a new region; returns its address."""
        self._syscall_entry("mmap")
        if length <= 0:
            raise SyscallError("mmap", f"bad length {length}")
        pages = (length + PAGE_SIZE - 1) >> PAGE_SHIFT
        if addr is None:
            if file is None:
                # mmap-reuse fast path (arXiv 2409.10946): revive a
                # pooled region of the same shape — its translations
                # were never invalidated, so there is nothing to flush
                # and the first touches will not even fault.
                pooled = self.shootdown.pool_take(
                    task.mm, pages, writable=writable
                )
                if pooled is not None:
                    pooled.name = "mmap"
                    return pooled.start
            addr = self._find_mmap_gap(task.mm, pages)
        else:
            self.shootdown.pool_drop_overlaps(
                task.mm, addr, addr + pages * PAGE_SIZE
            )
        if file is not None:
            self.fs.lookup(file)
        task.mm.add_vma(Vma(
            start=addr,
            end=addr + pages * PAGE_SIZE,
            writable=writable and file is None,
            file=file,
            name="mmap",
        ))
        # Mapping new addresses over a region that may have stale
        # translations requires a flush of that range (§7).
        self.flush.flush_range(task.mm, addr, addr + pages * PAGE_SIZE)
        return addr

    def _find_mmap_gap(self, mm: Mm, pages: int) -> int:
        addr = USER_MMAP_BASE
        span = pages * PAGE_SIZE
        for vma in mm.vmas:
            if vma.end <= addr:
                continue
            if vma.start >= addr + span:
                break
            addr = vma.end
        if addr + span > USER_STACK_TOP:
            raise SyscallError("mmap", "address space exhausted")
        return addr

    def sys_munmap(self, task: Task, addr: int, length: int) -> None:
        """munmap(): unmap a region — §7's expensive path."""
        self._syscall_entry("munmap")
        end = addr + ((length + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1))
        mm = task.mm
        vma = mm.find_vma(addr)
        if vma is None or vma.pooled or vma.start != addr or vma.end != end:
            raise SyscallError(
                "munmap", f"no matching VMA at {addr:#x}+{length:#x}"
            )
        if self.shootdown.pool_munmap(mm, vma):
            # Parked for reuse: PTEs, frames and TLB entries stay live
            # (the flush-skipping this strategy exists to measure).
            return
        self.flush.flush_range(mm, addr, end)
        self.release_user_range(mm, addr, end)
        mm.remove_vma(vma)

    def release_user_range(self, mm: Mm, start: int, end: int) -> None:
        """Release every resident frame and PTE in ``[start, end)``."""
        for base in range(start, end, PAGE_SIZE):
            pfn = mm.resident.pop(base, None)
            if pfn is not None:
                mm.page_table.clear_pte(base)
                if pfn in mm.shared_pages:
                    mm.shared_pages.discard(pfn)
                else:
                    self.palloc.free_page(pfn)

    def sys_brk(self, task: Task, grow_pages: int) -> int:
        """brk(): grow the data segment; returns the new break."""
        self._syscall_entry("brk")
        data = next(v for v in task.mm.vmas if v.name == "data")
        task.mm.remove_vma(data)
        new = Vma(
            start=data.start,
            end=data.end + grow_pages * PAGE_SIZE,
            name="data",
        )
        task.mm.add_vma(new)
        return new.end

    def sys_ioremap_bat(self, task: Task, io_offset: int, size: int) -> int:
        """§5.1's sketched mechanism: map device memory into the process
        through a dedicated, per-process data BAT.

        The mapping costs no TLB entries and no hash-table space — "so
        programs such as X do not compete constantly with other
        applications or the kernel for TLB space".  The BAT is switched
        with the process (see :meth:`switch_to`).  Returns the EA of the
        window.  ``size`` must be a power-of-two multiple of 128 KB, per
        the architecture.
        """
        self._syscall_entry("mmap")
        if io_offset % size or io_offset + size > IO_SIZE:
            raise SyscallError(
                "ioremap", f"bad I/O window: +{io_offset:#x}/{size:#x}"
            )
        bat = BatRegister.mapping(
            ea_base=USER_IO_WINDOW,
            pa_base=IO_BASE_EA + io_offset,
            size_bytes=size,
            wimg=WIMG_CACHE_INHIBIT,
        )
        task.mm.io_bat = bat
        if task is self.current_task:
            self.machine.bats.set(USER_IO_BAT_SLOT, bat, instruction=False)
            self.machine.clock.add(3, "syscall")
        return USER_IO_WINDOW

    # -- trivial and pipe syscalls ---------------------------------------------------------------

    def sys_getpid(self, task: Task) -> int:
        self._syscall_entry("getpid")
        return task.pid

    def sys_pipe(self, task: Task) -> int:
        self._syscall_entry("pipe")
        self.machine.clock.add(SYSCALL_BODY_CYCLES["pipe_create"], "syscall")
        return self.pipes.create().ident

    def sys_pipe_write(
        self, task: Task, ident: int, nbytes: int,
        user_buffer: Optional[int] = None,
        charge_entry: bool = True,
    ) -> Tuple[int, bool]:
        """Write to a pipe: ``(bytes_written, would_block)``.

        ``charge_entry=False`` is the resume-after-sleep path: the task
        blocked *inside* the syscall, so re-entry costs nothing.
        """
        if charge_entry:
            self._syscall_entry("write")
            self.touch_kernel("pipe")
            if self.config.pipe_op_extra_cycles:
                self.machine.clock.add(
                    self.config.pipe_op_extra_cycles, "ipc"
                )
        pipe = self.pipes.get(ident)
        if pipe.space == 0:
            return 0, True
        count = min(nbytes, pipe.space)
        lines = pipe.lines_for(count)
        src = user_buffer
        dst = self.kernel_ea_for_frame(pipe.buffer_pfn)
        for _ in range(self.config.pipe_copy_multiplier):
            self.kernel_copy_lines(src, dst, lines)
        pipe.fill += count
        pipe.total_bytes += count
        self._wake_all(pipe.readers_waiting)
        return count, False

    def sys_pipe_read(
        self, task: Task, ident: int, nbytes: int,
        user_buffer: Optional[int] = None,
        charge_entry: bool = True,
    ) -> Tuple[int, bool]:
        """Read from a pipe: ``(bytes_read, would_block)``.

        See :meth:`sys_pipe_write` for ``charge_entry``.
        """
        if charge_entry:
            self._syscall_entry("read")
            self.touch_kernel("pipe")
            if self.config.pipe_op_extra_cycles:
                self.machine.clock.add(
                    self.config.pipe_op_extra_cycles, "ipc"
                )
        pipe = self.pipes.get(ident)
        if pipe.fill == 0:
            return 0, True
        count = min(nbytes, pipe.fill)
        lines = pipe.lines_for(count)
        src = self.kernel_ea_for_frame(pipe.buffer_pfn)
        for _ in range(self.config.pipe_copy_multiplier):
            self.kernel_copy_lines(src, user_buffer, lines)
        pipe.fill -= count
        self._wake_all(pipe.writers_waiting)
        return count, False

    def _wake_all(self, waiters: List[Task]) -> None:
        for task in waiters:
            if task.state is _SLEEPING:
                self.scheduler.enqueue(task)
                self.machine.clock.add(PIPE_WAKEUP_CYCLES, "wakeup")
        waiters.clear()

    # -- file syscall ------------------------------------------------------------------------------

    def sys_read_file(
        self,
        task: Task,
        name: str,
        offset: int,
        length: int,
        user_buffer: Optional[int] = None,
    ) -> Tuple[int, int]:
        """read() on a file: ``(bytes, disk_wait_cycles)``."""
        self._syscall_entry("read")
        return self.fs.read(task, name, offset, length, user_buffer)

    # -- idle --------------------------------------------------------------------------------------

    def run_idle(self, window_cycles: int) -> int:
        """Run the idle task for an I/O-wait window; returns consumed."""
        self.touch_kernel("idle")
        consumed = self.idle_task.run(window_cycles)
        if self.machine.tracer is not None:
            self.machine.tracer.complete(
                "idle-window", "idle", consumed, window_cycles
            )
        return consumed

    # -- diagnostics ---------------------------------------------------------------------------------

    @property
    def sanitizer(self):
        """The attached shadow-MMU sanitizer, if any (see ``repro.check``)."""
        return self.machine.sanitizer

    def htab_zombie_stats(self) -> Tuple[int, int]:
        """(live, zombie) valid PTE counts in the hash table."""
        return self.machine.htab.live_and_zombie_counts(
            self.vsid_allocator.is_live
        )
