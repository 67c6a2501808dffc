"""The kernel footprint's resolved-BAT route against per-visit ``access_page``.

``Kernel.touch_kernel`` charges an operation's footprint through
``MachineModel.access_visits``, which resolves each visit's BAT
translation once per BAT-bank state.  A twin simulator whose footprint
goes through one ``access_page`` per visit — the route it replaced,
kept here as the reference — must stay indistinguishable from it: every
cache level, the monitor, the ledger, and the monitor as a ledger
observer (the sampler's vantage point) sees it at every charge.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.access import AccessKind
from repro.hw.bat import BatRegister
from repro.hw.pte import WIMG_CACHE_INHIBIT
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import USER_DATA_BASE, _KERNEL_VISITS
from repro.kernel.syscall import KERNEL_FOOTPRINT
from repro.params import KERNELBASE, M604_185, PAGE_SIZE
from repro.sim.simulator import Simulator
from tests.test_cache import cache_state

N_CPUS = 2
#: Tasks spawned round-robin, so each CPU is home to two of them.
N_TASKS = 4
DATA_PAGES = 6


def touch_by_access_page(machine):
    """The reference footprint: one ``access_page`` per visit."""
    def touch_kernel(op):
        for ea, lines, write, kind, first_line in _KERNEL_VISITS.get(op, ()):
            machine.access_page(ea, lines, write, kind, first_line)
    return touch_kernel


class Twin:
    """One booted 2-CPU system, logging every CPU's ledger charges."""

    def __init__(self, case, reference):
        self.sim = Simulator(
            M604_185, KernelConfig.optimized(), n_cpus=N_CPUS,
            sanitize=case == "sanitizer", trace=case == "tracer",
        )
        self.kernel = kernel = self.sim.kernel
        self.machine = machine = self.sim.machine
        if reference:
            kernel.touch_kernel = touch_by_access_page(machine)
        #: ``(cpu, total, that CPU's monitor)`` after every charge.
        self.charges = []
        for index, cpu in enumerate(machine.cpus):
            cpu.clock.observer = self._observer(index, cpu)
        self.tasks = [kernel.spawn(f"t{i}", data_pages=DATA_PAGES)
                      for i in range(N_TASKS)]
        for index in range(N_CPUS):
            machine.set_current_cpu(index)
            kernel.switch_to(self.tasks[index])
        machine.set_current_cpu(0)

    def _observer(self, index, cpu):
        def observe(total):
            self.charges.append((index, total, cpu.monitor.snapshot()))
        return observe

    def apply(self, operation):
        kernel, machine = self.kernel, self.machine
        kind, *args = operation
        task = kernel.current_task
        if kind == "op":
            kernel.touch_kernel(args[0])
        elif kind == "user":
            page, lines, write, first_line, instruction = args
            kernel.user_access(
                task, USER_DATA_BASE + page * PAGE_SIZE, lines,
                write and not instruction,
                AccessKind.INSTRUCTION if instruction else AccessKind.DATA,
                first_line,
            )
        elif kind == "flush":
            if args[0] == "page":
                kernel.flush.flush_page(task.mm, USER_DATA_BASE)
            elif args[0] == "mm":
                kernel.flush.flush_mm(task.mm)
            else:
                kernel.flush.flush_everything()
        elif kind == "io":
            if args[0] == "map":
                kernel.sys_ioremap_bat(task, 0, 2 * 1024 * 1024)
            else:
                kernel.sys_exec(task, "fresh", data_pages=DATA_PAGES)
        elif kind == "kernel-bat":
            bats = machine.bats
            if args[0] == "clear":
                bats.clear(0, instruction=True)
                bats.clear(0, instruction=False)
            else:
                bats.map_both(0, BatRegister.mapping(
                    KERNELBASE, 0, machine.ram_bytes,
                    wimg=WIMG_CACHE_INHIBIT if args[0] == "inhibited" else 0,
                ))
        elif kind == "cpu":
            machine.set_current_cpu(args[0])
        else:
            home = [t for t in self.tasks if t.cpu == machine.current_cpu]
            kernel.switch_to(home[args[0]])

    def state(self):
        machine = self.machine
        levels = [
            (cache_state(cpu.icache), cache_state(cpu.dcache))
            for cpu in machine.cpus
        ]
        return (
            levels,
            [cpu.monitor.snapshot() for cpu in machine.cpus],
            [cpu.clock.breakdown() for cpu in machine.cpus],
        )


_operation = st.one_of(
    st.tuples(st.just("op"), st.sampled_from(sorted(KERNEL_FOOTPRINT))),
    st.tuples(st.just("user"), st.integers(0, DATA_PAGES - 1),
              st.integers(1, 16), st.booleans(), st.integers(0, 127),
              st.booleans()),
    st.tuples(st.just("flush"), st.sampled_from(("page", "mm", "all"))),
    st.tuples(st.just("io"), st.sampled_from(("map", "exec"))),
    st.tuples(st.just("kernel-bat"),
              st.sampled_from(("clear", "cacheable", "inhibited"))),
    st.tuples(st.just("cpu"), st.integers(0, N_CPUS - 1)),
    st.tuples(st.just("switch"), st.integers(0, N_TASKS // N_CPUS - 1)),
)


class TestFootprintDifferential:
    @pytest.mark.parametrize("case", ["plain", "sanitizer", "tracer"])
    @settings(max_examples=25, deadline=None)
    @given(operations=st.lists(_operation, min_size=1, max_size=30))
    def test_matches_per_visit_access_page(self, case, operations):
        fast, reference = Twin(case, False), Twin(case, True)
        for operation in operations:
            fast.apply(operation)
            reference.apply(operation)
            assert fast.state() == reference.state(), operation
        assert fast.charges == reference.charges
        if case == "sanitizer":
            for twin in (fast, reference):
                assert twin.sim.sanitizer.violations == 0
            assert (fast.sim.sanitizer.translations_checked
                    == reference.sim.sanitizer.translations_checked)
        if case == "tracer":
            tracers = fast.sim.obs.tracer, reference.sim.obs.tracer
            for column in ("ts", "dur", "tid", "code", "values"):
                got, want = (list(t.column(column)) for t in tracers)
                assert got == want, column
            assert tracers[0].kinds == tracers[1].kinds

    def test_each_visit_counts_one_bat_translation(self):
        twin = Twin("tracer", reference=False)
        monitor, tracer = twin.machine.monitor, twin.sim.obs.tracer
        counted, emitted = monitor["bat_translation"], tracer.emitted
        twin.kernel.touch_kernel("fork")
        visits = len(_KERNEL_VISITS["fork"])
        assert monitor["bat_translation"] - counted == visits
        # The default filter republishes each count as its own instant.
        assert tracer.emitted - emitted == visits
