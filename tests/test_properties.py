"""System-level property tests (hypothesis).

These are the invariants the paper's optimizations must preserve:

* **Translation safety** — whatever sequence of maps, touches, unmaps
  and flushes runs, the hardware never translates an address to a frame
  other than the one the kernel's page tables currently assign it.  The
  lazy VSID flush leaves stale "valid" entries everywhere; this property
  is exactly why that is sound.
* **Resource conservation** — physical frames are never double-owned.
* **Hash distribution** — the architected hash function's structural
  properties.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SyscallError, TranslationError
from repro.hw.hashtable import primary_hash, secondary_hash
from repro.kernel.config import KernelConfig, ShootdownStrategy, VsidPolicy
from repro.params import IPI_DELIVER_CYCLES, KERNELBASE, M604_185, PAGE_SIZE
from repro.sim.simulator import Simulator

CONFIGS = {
    "optimized": KernelConfig.optimized(),
    "unoptimized": KernelConfig.unoptimized(),
    "lazy-tiny-cutoff": KernelConfig.optimized().with_changes(
        range_flush_cutoff=1
    ),
    "search-flush": KernelConfig.optimized().with_changes(
        lazy_vsid_flush=False, vsid_policy=VsidPolicy.PID_SCATTER
    ),
}

#: One mmap arena the state machine plays in.
ARENA_PAGES = 24


class _Model:
    """Drives one simulated process through map/touch/unmap steps while
    shadowing what the memory should look like."""

    def __init__(self, config, sim=None):
        self.sim = sim if sim is not None else Simulator(M604_185, config)
        self.kernel = self.sim.kernel
        self.task = self.kernel.spawn("model", data_pages=4)
        self.kernel.switch_to(self.task)
        self.arena = None

    def do_map(self):
        if self.arena is None:
            self.arena = self.kernel.sys_mmap(
                self.task, ARENA_PAGES * PAGE_SIZE
            )

    def do_unmap(self):
        if self.arena is not None:
            self.kernel.sys_munmap(
                self.task, self.arena, ARENA_PAGES * PAGE_SIZE
            )
            self.arena = None

    def do_touch(self, page, write):
        if self.arena is None:
            return
        ea = self.arena + page * PAGE_SIZE
        self.kernel.user_access(self.task, ea, 1, write)
        # SAFETY: hardware translation must agree with the page table.
        expected = self.task.mm.resident[ea]
        result = self.sim.machine.translate(ea)
        assert result.pa >> 12 == expected

    def do_flush_mm(self):
        self.kernel.flush.flush_mm(self.task.mm)

    def do_fork_exit(self):
        child = self.kernel.sys_fork(self.task)
        self.kernel.switch_to(child)
        self.kernel.sys_exit(child)
        self.kernel.switch_to(self.task)

    def check_unmapped_is_unreachable(self):
        if self.arena is None:
            # The arena's old address must fault, not translate stale.
            probe = 0x40000000
            if self.task.mm.find_vma(probe) is None:
                with pytest.raises(TranslationError):
                    self.kernel.user_access(self.task, probe, 1, False)


steps = st.lists(
    st.one_of(
        st.just(("map",)),
        st.just(("unmap",)),
        st.tuples(
            st.just("touch"), st.integers(0, ARENA_PAGES - 1), st.booleans()
        ),
        st.just(("flush",)),
        st.just(("forkexit",)),
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
class TestTranslationSafety:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan=steps)
    def test_hardware_never_serves_stale_translations(self, config_name, plan):
        model = _Model(CONFIGS[config_name])
        for step in plan:
            if step[0] == "map":
                model.do_map()
            elif step[0] == "unmap":
                model.do_unmap()
                model.check_unmapped_is_unreachable()
            elif step[0] == "touch":
                model.do_touch(step[1], step[2])
            elif step[0] == "flush":
                model.do_flush_mm()
            elif step[0] == "forkexit":
                model.do_fork_exit()


class TestFrameConservation:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan=steps)
    def test_no_frame_double_owned(self, plan):
        model = _Model(CONFIGS["optimized"])
        kernel = model.kernel
        for step in plan:
            if step[0] == "map":
                model.do_map()
            elif step[0] == "unmap":
                model.do_unmap()
            elif step[0] == "touch":
                model.do_touch(step[1], step[2])
            elif step[0] == "forkexit":
                model.do_fork_exit()
            # Every resident anonymous frame is owned exactly once.
            owners = {}
            for task in kernel.tasks.values():
                for ea, pfn in task.mm.resident.items():
                    if pfn in task.mm.shared_pages:
                        continue
                    assert pfn not in owners, (
                        f"frame {pfn} owned by {owners[pfn]} and "
                        f"({task.pid}, {ea:#x})"
                    )
                    owners[pfn] = (task.pid, ea)
                    assert kernel.palloc.is_allocated(pfn)


class TestHashStructure:
    @given(st.integers(0, 0xFFFFFF), st.integers(0, 0xFFFF))
    def test_secondary_always_differs_from_primary(self, vsid, page):
        assert primary_hash(vsid, page) != secondary_hash(vsid, page)

    @given(st.integers(0, 0xFFFFFF), st.integers(0, 0xFFFF),
           st.integers(0, 0xFFFF))
    def test_same_vsid_different_pages_usually_spread(self, vsid, p1, p2):
        # XOR structure: equal hashes iff equal page indexes.
        if p1 != p2:
            assert primary_hash(vsid, p1) != primary_hash(vsid, p2)

    @given(st.integers(0, 0x7FFFF))
    def test_hash_is_self_inverse_in_vsid(self, value):
        # h(v, p) == h(p, v) for 16-bit values: XOR commutes.
        assert primary_hash(value, 0) == value & 0x7FFFF


class TestLedgerMonotonicity:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan=steps)
    def test_cycles_never_decrease(self, plan):
        model = _Model(CONFIGS["optimized"])
        last = model.sim.cycles
        for step in plan:
            if step[0] == "map":
                model.do_map()
            elif step[0] == "unmap":
                model.do_unmap()
            elif step[0] == "touch":
                model.do_touch(step[1], step[2])
            elif step[0] == "flush":
                model.do_flush_mm()
            elif step[0] == "forkexit":
                model.do_fork_exit()
            assert model.sim.cycles >= last
            last = model.sim.cycles


class TestGeometryIndependence:
    """The kernel's MMU discipline holds at *any* legal geometry.

    The array-backed rewrite (and the idle-scan geometry fix) must not
    bake the architected defaults into address or slot arithmetic.  This
    drives the same map/touch/unmap/flush/fork state machine through a
    fully sanitized simulator built at non-default TLB associativity and
    hash-table shape, with the idle reclaim scan mixed in, and requires
    a clean differential check plus a clean final stable sweep.
    """

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        plan=steps,
        tlb_assoc=st.sampled_from([1, 4, 8]),
        htab_groups=st.sampled_from([256, 1024, 4096]),
        ptes_per_group=st.sampled_from([4, 16]),
    )
    def test_sanitizer_clean_at_nondefault_geometry(
        self, plan, tlb_assoc, htab_groups, ptes_per_group
    ):
        spec = dataclasses.replace(M604_185, tlb_assoc=tlb_assoc)
        sim = Simulator(
            spec,
            KernelConfig.optimized(),
            htab_groups=htab_groups,
            htab_ptes_per_group=ptes_per_group,
            sanitize=True,
        )
        model = _Model(None, sim=sim)
        for step in plan:
            if step[0] == "map":
                model.do_map()
            elif step[0] == "unmap":
                model.do_unmap()
                model.check_unmapped_is_unreachable()
            elif step[0] == "touch":
                model.do_touch(step[1], step[2])
            elif step[0] == "flush":
                model.do_flush_mm()
            elif step[0] == "forkexit":
                model.do_fork_exit()
            sim.kernel.idle_task._reclaim_chunk()
        assert sim.sanitizer.violations == 0, sim.sanitizer.reporter
        assert sim.sanitizer.sweep(stable=True) == 0, sim.sanitizer.reporter


# -- SMP shootdown coherence -------------------------------------------------

#: Below the optimized config's 20-page range-flush cutoff so every
#: munmap takes the per-page search path and feeds the shootdown queue.
SMP_ARENA_PAGES = 12


class _SmpModel:
    """Several tasks pinned round-robin over N CPUs, driven from
    arbitrary CPUs so flushes race remote TLB contents."""

    def __init__(self, n_cpus, strategy):
        config = KernelConfig.optimized().with_changes(
            shootdown_strategy=strategy
        )
        self.sim = Simulator(
            M604_185, config, n_cpus=n_cpus, sanitize=True
        )
        self.kernel = self.sim.kernel
        self.machine = self.sim.machine
        self.tasks = [
            self.kernel.spawn(f"t{i}", data_pages=2)
            for i in range(2 * n_cpus)
        ]
        self.arenas = {}
        for task in self.tasks:
            self.run_on(task)
            self.arenas[task.pid] = self.kernel.sys_mmap(
                task, SMP_ARENA_PAGES * PAGE_SIZE
            )

    def run_on(self, task):
        self.machine.set_current_cpu(task.cpu)
        if self.kernel.current_task is not task:
            self.kernel.switch_to(task)

    def do_touch(self, slot, page, write):
        task = self.tasks[slot % len(self.tasks)]
        self.run_on(task)
        ea = self.arenas[task.pid] + page * PAGE_SIZE
        self.kernel.user_access(task, ea, 1, write)

    def do_remap(self, slot):
        task = self.tasks[slot % len(self.tasks)]
        self.run_on(task)
        self.kernel.sys_munmap(
            task, self.arenas[task.pid], SMP_ARENA_PAGES * PAGE_SIZE
        )
        self.arenas[task.pid] = self.kernel.sys_mmap(
            task, SMP_ARENA_PAGES * PAGE_SIZE
        )

    def do_ctxsw(self, cpu):
        cpu %= self.machine.n_cpus
        peers = [t for t in self.tasks if t.cpu == cpu]
        self.machine.set_current_cpu(cpu)
        current = self.kernel.current_task
        for task in peers:
            if task is not current:
                self.kernel.switch_to(task)
                return

    def do_flush_mm(self, acting_cpu, slot):
        # Flushing from a *different* CPU than the one that owns the
        # task is the cross-CPU case the shootdown protocol exists for.
        task = self.tasks[slot % len(self.tasks)]
        self.machine.set_current_cpu(acting_cpu % self.machine.n_cpus)
        self.kernel.flush.flush_mm(task.mm)


smp_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("touch"),
            st.integers(0, 7),
            st.integers(0, SMP_ARENA_PAGES - 1),
            st.booleans(),
        ),
        st.tuples(st.just("remap"), st.integers(0, 7)),
        st.tuples(st.just("ctxsw"), st.integers(0, 3)),
        st.tuples(st.just("flushmm"), st.integers(0, 3),
                  st.integers(0, 7)),
    ),
    min_size=1,
    max_size=25,
)


class TestSmpShootdownCoherence:
    """No interleaving of faults, flushes and context switches across
    CPUs lets any CPU translate through a PTE another CPU invalidated.

    The sanitizer's differential check runs on every translation with
    the shootdown-coherence invariant armed, so a stale remote TLB entry
    that ever *serves* a translation fails immediately; the final stable
    sweep additionally proves no such entry is still latent."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        plan=smp_steps,
        n_cpus=st.sampled_from([2, 3, 4]),
        strategy=st.sampled_from(sorted(ShootdownStrategy,
                                        key=lambda s: s.value)),
    )
    def test_no_interleaving_violates_shootdown_coherence(
        self, plan, n_cpus, strategy
    ):
        model = _SmpModel(n_cpus, strategy)
        for step in plan:
            if step[0] == "touch":
                model.do_touch(step[1], step[2], step[3])
            elif step[0] == "remap":
                model.do_remap(step[1])
            elif step[0] == "ctxsw":
                model.do_ctxsw(step[1])
            elif step[0] == "flushmm":
                model.do_flush_mm(step[1], step[2])
        sanitizer = model.sim.sanitizer
        assert sanitizer.violations == 0, sanitizer.reporter
        assert sanitizer.sweep(stable=True) == 0, sanitizer.reporter

    @pytest.mark.parametrize(
        "strategy", sorted(ShootdownStrategy, key=lambda s: s.value)
    )
    def test_kernel_page_flush_is_eager_broadcast(self, strategy):
        # Kernel translations are live on every CPU the instant the
        # flush returns, so no strategy may defer or skip them.
        config = KernelConfig.optimized().with_changes(
            bat_kernel_map=False, shootdown_strategy=strategy
        )
        sim = Simulator(M604_185, config, n_cpus=2, sanitize=True)
        ea = KERNELBASE + 0x300000
        sim.machine.translate(ea)
        sim.kernel.flush.flush_page(sim.kernel.kernel_mm, ea)
        totals = sim.machine.monitor_totals()
        assert totals.get("ipi_sent", 0) == 1
        assert totals.get("ipi_received", 0) == 1
        assert totals.get("shootdown_deferred", 0) == 0
        assert sim.sanitizer.violations == 0, sim.sanitizer.reporter

    def test_bump_reloads_the_context_a_remote_cpu_runs(self):
        # flush_mm renumbers the mm while CPU 1 runs it: CPU 0 must IPI
        # CPU 1, which pays the delivery and reloads its segment
        # registers with the new VSIDs (ShootdownEngine.context_bumped).
        # The run is traced, so the round's ``ipi`` instant goes through
        # the event registry's check and into the export.
        sim = Simulator(M604_185, KernelConfig.optimized(), n_cpus=2,
                        sanitize=True, profile=True, trace=True)
        kernel, machine = sim.kernel, sim.machine
        task = kernel.spawn("remote", data_pages=2)
        machine.set_current_cpu(1)
        kernel.switch_to(task)
        kernel.user_access(task, 0x10000000, 1, True)
        old_vsids = list(task.mm.user_vsids)
        local, remote = machine.cpus
        shootdown = remote.clock.breakdown().get("shootdown", 0)
        sent = local.monitor.get("ipi_sent")
        received = remote.monitor.get("ipi_received")
        machine.set_current_cpu(0)
        kernel.flush.flush_mm(task.mm)
        assert task.mm.user_vsids != old_vsids
        assert list(remote.segments.snapshot()) == task.mm.segment_vsids()
        assert remote.clock.breakdown().get("shootdown", 0) == (
            shootdown + IPI_DELIVER_CYCLES
        )
        assert local.monitor.get("ipi_sent") == sent + 1
        assert remote.monitor.get("ipi_received") == received + 1
        ipis = [event["args"] for event in sim.obs.tracer.chrome_events()
                if event["name"] == "ipi"]
        assert ipis == [{"targets": [1], "bump": True}]
        assert sum(sim.obs.attribution().values()) == sim.total_cycles
        assert sim.sanitizer.sweep(stable=True) == 0, sim.sanitizer.reporter
        assert sim.sanitizer.violations == 0, sim.sanitizer.reporter


class TestSmpSingleCpuExactness:
    """``n_cpus=1`` is the pre-refactor machine, bit for bit.

    The totals, ledger breakdown and monitor counters below were
    captured on the single-CPU tree immediately before the SMP refactor
    (commit 3fa6c91) for a deterministic three-process mixed workload;
    the refactored code must reproduce every number exactly."""

    GOLDENS = {
        "604-unopt": {
            "cycles": 1562546,
            "breakdown": {
                "context_switch": 127344, "fault": 94500,
                "flush": 50121, "mem": 35464, "palloc": 1024432,
                "sched": 2520, "syscall": 48900, "tlb_reload": 179265,
            },
            "counters": {
                "context_switch": 42, "dcache_miss": 740,
                "dtlb_miss": 258, "flush_range_search": 12,
                "hash_miss_interrupt": 129, "htab_hit": 144,
                "htab_miss": 129, "htab_reload": 129,
                "htab_search": 273, "icache_miss": 85,
                "itlb_miss": 15, "page_fault_minor": 105,
                "syscall": 12,
            },
        },
        "604-opt": {
            "cycles": 1227174,
            "breakdown": {
                "context_switch": 21792, "fault": 27300, "flush": 504,
                "mem": 35190, "palloc": 1025156, "sched": 2520,
                "syscall": 25140, "tlb_reload": 89572,
            },
            "counters": {
                "bat_translation": 837, "context_switch": 42,
                "dcache_miss": 736, "dtlb_miss": 243,
                "flush_range_lazy": 9, "hash_miss_interrupt": 105,
                "htab_hit": 138, "htab_miss": 105, "htab_reload": 105,
                "htab_search": 243, "icache_miss": 85,
                "page_fault_minor": 105, "syscall": 12,
                "vsid_bump": 9,
            },
        },
    }

    @staticmethod
    def _body(rounds, mmap_pages):
        def gen(t):
            addr = yield ("mmap", mmap_pages * PAGE_SIZE, None, None)
            for r in range(rounds):
                yield ("touch", addr + (r % mmap_pages) * PAGE_SIZE,
                       8, True)
                yield ("touch",
                       0x10000000 + (r % 4) * PAGE_SIZE, 4, True)
                if r % 3 == 2:
                    yield ("yield",)
            yield ("munmap", addr, mmap_pages * PAGE_SIZE)
            addr2 = yield ("mmap", mmap_pages * PAGE_SIZE, None, None)
            yield ("touch", addr2, 8, True)
            yield ("exit", 0)
        return gen

    @pytest.mark.parametrize("name,config", [
        ("604-unopt", KernelConfig.unoptimized()),
        ("604-opt", KernelConfig.optimized()),
    ])
    def test_bit_identical_to_pre_refactor_goldens(self, name, config):
        sim = Simulator(M604_185, config, sanitize=True)
        for i in range(3):
            sim.executive.spawn(f"w{i}", self._body(40, 30))
        sim.run()
        golden = self.GOLDENS[name]
        assert sim.machine.clock.total == golden["cycles"]
        assert dict(sim.machine.clock.breakdown()) == golden["breakdown"]
        assert dict(sim.machine.monitor.snapshot()) == golden["counters"]
        assert sim.sanitizer.violations == 0
