"""Kernel configuration: one switch per paper optimization.

``KernelConfig.unoptimized()`` is the paper's baseline kernel;
``KernelConfig.optimized()`` enables everything the paper ships.  Each
experiment toggles exactly the flags its section discusses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.params import DEFAULT_RANGE_FLUSH_CUTOFF


class IdlePageClearPolicy(enum.Enum):
    """§9's three page-clearing experiments plus the baseline."""

    #: No idle clearing; get_free_page() zeroes pages inline, through the
    #: cache (the original kernel).
    OFF = "off"
    #: Idle task clears pages through the cache and feeds the cleared
    #: list — the variant that made the kernel compile ~2x slower.
    CACHED_LIST = "cached_list"
    #: Idle task clears pages with the cache inhibited but does NOT feed
    #: the list — the control experiment that showed no gain or loss.
    UNCACHED_NO_LIST = "uncached_no_list"
    #: Idle task clears pages cache-inhibited and feeds the list — the
    #: winning variant.
    UNCACHED_LIST = "uncached_list"


class ShootdownStrategy(enum.Enum):
    """How a mapping change is made visible to the *other* CPUs' TLBs.

    With one CPU every strategy degenerates to the local flush and
    charges nothing extra.  The hash table is shared, so invalidating a
    PTE there is globally visible at once; only the per-CPU TLBs can go
    stale, and these strategies trade IPI traffic against deferred work
    to fix that.  Kernel-segment pages are eagerly broadcast under every
    strategy — the kernel VSIDs are loaded on all CPUs at all times, so
    deferral would be incoherent.
    """

    #: The naive SMP port: every flush IPIs every other CPU.
    BROADCAST = "broadcast"
    #: mm_cpumask-style: IPI only CPUs currently running the flushed
    #: address space (with fixed task affinity, usually none).
    TARGETED = "targeted"
    #: numaPTE-style lazy remote invalidation (arXiv 2401.15558): CPUs
    #: running the mm get a targeted IPI; every other CPU gets the
    #: invalidation queued and drains it at its next context switch.
    LAZY = "lazy"
    #: Lazy, plus mmap-reuse flush skipping (arXiv 2409.10946): munmap
    #: pools the region instead of flushing, and an mmap that reuses it
    #: revives the still-truthful translations — no flush at all.
    MMAP_REUSE = "mmap_reuse"


class VsidPolicy(enum.Enum):
    """How VSIDs are derived (§5.2 vs §7)."""

    #: VSID = PID * scatter_constant + segment (the original strategy).
    #: Lazy flushing is impossible: a process's VSIDs are fixed for life.
    PID_SCATTER = "pid_scatter"
    #: VSID from a monotonic memory-management context counter — the §7
    #: mechanism that makes VSID bumping (lazy flushes) possible.
    CONTEXT_COUNTER = "context_counter"


@dataclass(frozen=True)
class KernelConfig:
    """Every paper optimization as an independent flag."""

    #: §5.1 — map kernel text+data with a BAT pair instead of PTEs.
    bat_kernel_map: bool = False
    #: §5.1 — also BAT-map the I/O/framebuffer space (found not to help).
    bat_io_map: bool = False
    #: §6.1 — hand-scheduled assembly miss handlers (vs the original C
    #: handlers that re-enable the MMU and save full state).
    fast_handlers: bool = False
    #: §6.2 — on the 603, skip the hash table and reload the TLB straight
    #: from the Linux PTE tree.  Ignored on the 604 (hardware requires
    #: the hash table).
    use_htab_on_603: bool = True
    #: §5.2 / §7 — VSID derivation policy.
    vsid_policy: VsidPolicy = VsidPolicy.PID_SCATTER
    #: §5.2 — the scatter multiplier (tuned via the miss histogram).
    vsid_scatter_constant: int = 16
    #: §7 — lazy flushes: invalidate a whole context by bumping its VSIDs
    #: instead of searching the hash table.  Requires CONTEXT_COUNTER.
    lazy_vsid_flush: bool = False
    #: §7 — range flushes larger than this many pages invalidate the whole
    #: context (only meaningful with lazy_vsid_flush).  ``None`` disables
    #: the cutoff: ranges are always search-flushed page by page.
    range_flush_cutoff: int = DEFAULT_RANGE_FLUSH_CUTOFF
    #: §7 — idle-task reclaim of zombie hash-table entries.
    idle_zombie_reclaim: bool = False
    #: §7's *rejected* design, kept as an ablation: scavenge zombies
    #: synchronously when a reload has to evict ("clear them when hash
    #: table space became scarce") instead of in the idle task.
    on_demand_scavenge: bool = False
    #: §9 — idle-task page clearing policy.
    idle_page_clear: IdlePageClearPolicy = IdlePageClearPolicy.OFF
    #: §8 — whether page-table memory (hash table + PTE tree) may allocate
    #: into the data cache.  True matches the hardware default the paper
    #: criticizes.
    cache_page_tables: bool = True
    #: §6.1's companion: optimized syscall-entry and context-switch paths
    #: (part of what separates "Linux/PPC" from "Unoptimized Linux/PPC"
    #: in Table 3).
    optimized_entry: bool = False
    #: §10.1 ablation — run the idle task with the cache inhibited.
    idle_uncached: bool = False
    #: §10.2 ablation — issue `dcbt` prefetches for the switch path's
    #: data (task struct, switch footprint) at context-switch entry, so
    #: the fills overlap the register save/restore work.
    cache_preloads: bool = False
    #: SMP — how mapping changes reach remote TLBs (no effect with one
    #: CPU: every strategy charges nothing when there are no remotes).
    shootdown_strategy: ShootdownStrategy = ShootdownStrategy.BROADCAST

    # -- Table 3 comparator cost model ---------------------------------------
    # The Rhapsody/MkLinux/AIX columns are modelled as cost profiles on
    # the same hardware: fixed path costs that replace the Linux ones,
    # plus Mach-style IPC overheads on the pipe path.  All None/zero for
    # the two Linux kernels (whose numbers the simulator *produces*).

    #: Override the syscall entry+exit cost (None -> optimized_entry).
    syscall_entry_cycles: object = None
    #: Override the context-switch core cost (None -> optimized_entry).
    ctxsw_cycles: object = None
    #: Extra cycles per pipe read/write (microkernel port IPC).
    pipe_op_extra_cycles: int = 0
    #: Copy multiplier on pipe data (Mach double-copies via the server).
    pipe_copy_multiplier: int = 1

    def __post_init__(self):
        if self.lazy_vsid_flush and self.vsid_policy is not VsidPolicy.CONTEXT_COUNTER:
            raise ConfigError(
                "lazy VSID flushing requires the context-counter VSID policy"
            )
        if self.vsid_scatter_constant <= 0:
            raise ConfigError("vsid_scatter_constant must be positive")
        if self.range_flush_cutoff is not None and self.range_flush_cutoff < 1:
            raise ConfigError("range_flush_cutoff must be >= 1 or None")
        if self.pipe_copy_multiplier < 1:
            raise ConfigError("pipe_copy_multiplier must be >= 1")
        if self.pipe_op_extra_cycles < 0:
            raise ConfigError("pipe_op_extra_cycles must be >= 0")

    # -- presets the benchmarks use -------------------------------------------

    @classmethod
    def unoptimized(cls) -> "KernelConfig":
        """The original kernel: C handlers, PID VSIDs, search flushes."""
        return cls()

    @classmethod
    def optimized(cls) -> "KernelConfig":
        """Everything the paper ships enabled (the 'Linux/PPC' column)."""
        return cls(
            bat_kernel_map=True,
            fast_handlers=True,
            use_htab_on_603=False,
            vsid_policy=VsidPolicy.CONTEXT_COUNTER,
            vsid_scatter_constant=37,
            lazy_vsid_flush=True,
            range_flush_cutoff=DEFAULT_RANGE_FLUSH_CUTOFF,
            idle_zombie_reclaim=True,
            idle_page_clear=IdlePageClearPolicy.UNCACHED_LIST,
            optimized_entry=True,
        )

    def with_changes(self, **kwargs) -> "KernelConfig":
        """A modified copy (frozen dataclass helper)."""
        return replace(self, **kwargs)
