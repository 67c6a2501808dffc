"""The executive: generator bodies, blocking, waking, and marks."""

import pytest

from repro.errors import KernelPanic, SyscallError
from repro.hw.access import AccessKind
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import USER_DATA_BASE, USER_TEXT_BASE
from repro.kernel.task import TaskState
from repro.params import M604_185, PAGE_SIZE, USER_COMPUTE_PER_LINE_CYCLES
from repro.sim.process import Executive
from repro.sim.simulator import Simulator
from repro.sim.trace import PageVisit


@pytest.fixture
def sim():
    return Simulator(M604_185, KernelConfig.optimized())


class TestBasicActions:
    def test_getpid_result_delivered(self, sim):
        seen = []

        def factory(task):
            def body(t):
                pid = yield ("getpid",)
                seen.append(pid)

            return body(task)

        task = sim.executive.spawn("p", factory)
        sim.run()
        assert seen == [task.pid]

    def test_touch_and_compute(self, sim):
        def factory(task):
            def body(t):
                cycles = yield ("touch", 0x10000000, 4, True)
                assert cycles > 0
                yield ("compute", 1000)

            return body(task)

        sim.executive.spawn("p", factory)
        sim.run()
        assert sim.breakdown()["user_compute"] >= 1000

    def test_mark_records_timestamps(self, sim):
        def factory(task):
            def body(t):
                yield ("mark", "a")
                yield ("compute", 500)
                yield ("mark", "b")

            return body(task)

        sim.executive.spawn("p", factory)
        sim.run()
        deltas = sim.executive.mark_deltas("a", "b")
        assert len(deltas) == 1 and deltas[0] >= 500

    def test_body_exits_implicitly_on_return(self, sim):
        def factory(task):
            def body(t):
                yield ("getpid",)

            return body(task)

        task = sim.executive.spawn("p", factory)
        sim.run()
        assert task.state is TaskState.EXITED

    def test_explicit_exit_code(self, sim):
        def factory(task):
            def body(t):
                yield ("exit", 3)

            return body(task)

        task = sim.executive.spawn("p", factory)
        sim.run()
        assert task.exit_code == 3

    def test_unknown_action_raises(self, sim):
        def factory(task):
            def body(t):
                yield ("frobnicate",)

            return body(task)

        sim.executive.spawn("p", factory)
        with pytest.raises(SyscallError):
            sim.run()

    def test_duplicate_body_rejected(self, sim):
        task = sim.kernel.spawn("p")

        def body(t):
            yield ("getpid",)

        sim.executive.add(task, body(task))
        with pytest.raises(KernelPanic):
            sim.executive.add(task, body(task))


class TestBlockingAndWaking:
    def test_pipe_ping_pong(self, sim):
        kernel = sim.kernel
        ping = kernel.pipes.create().ident
        pong = kernel.pipes.create().ident
        log = []

        def client_factory(task):
            def body(t):
                for index in range(3):
                    yield ("pipe_write", ping, 1, 0x10000000)
                    yield ("pipe_read", pong, 1, 0x10000000)
                    log.append(("client", index))

            return body(task)

        def server_factory(task):
            def body(t):
                for index in range(3):
                    yield ("pipe_read", ping, 1, 0x10000000)
                    yield ("pipe_write", pong, 1, 0x10000000)
                    log.append(("server", index))

            return body(task)

        sim.executive.spawn("client", client_factory)
        sim.executive.spawn("server", server_factory)
        sim.run()
        assert len(log) == 6

    def test_sleep_advances_clock(self, sim):
        def factory(task):
            def body(t):
                before = sim.machine.clock.total
                yield ("sleep", 100000)
                assert sim.machine.clock.total >= before + 100000

            return body(task)

        sim.executive.spawn("sleeper", factory)
        sim.run()

    def test_deadlock_detected(self, sim):
        pipe = sim.kernel.pipes.create().ident

        def factory(task):
            def body(t):
                yield ("pipe_read", pipe, 1, 0x10000000)

            return body(task)

        sim.executive.spawn("stuck", factory)
        with pytest.raises(KernelPanic, match="deadlock"):
            sim.run()

    def test_dispatch_limit_guards_runaway(self, sim):
        def factory(task):
            def body(t):
                while True:
                    yield ("compute", 1)

            return body(task)

        sim.executive.spawn("loop", factory)
        with pytest.raises(KernelPanic, match="dispatch limit"):
            sim.run(max_dispatches=100)

    def test_idle_runs_while_everyone_sleeps(self, sim):
        def factory(task):
            def body(t):
                yield ("sleep", 200000)

            return body(task)

        sim.executive.spawn("sleeper", factory)
        sim.run()
        breakdown = sim.breakdown()
        idle = (
            breakdown.get("idle_reclaim", 0)
            + breakdown.get("idle_clear", 0)
            + breakdown.get("idle_spin", 0)
            + breakdown.get("io_wait", 0)
        )
        assert idle > 0


class TestForkExecWait:
    def test_fork_runs_child_body(self, sim):
        log = []

        def child_factory(child):
            def body(t):
                yield ("compute", 10)
                log.append("child ran")
                yield ("exit", 0)

            return body(child)

        def parent_factory(task):
            def body(t):
                child = yield ("fork", child_factory)
                yield ("waitpid", child)
                log.append("parent resumed")

            return body(task)

        sim.executive.spawn("parent", parent_factory)
        sim.run()
        assert log == ["child ran", "parent resumed"]

    def test_waitpid_on_already_dead_child(self, sim):
        def child_factory(child):
            def body(t):
                yield ("exit", 9)

            return body(child)

        results = []

        def parent_factory(task):
            def body(t):
                child = yield ("fork", child_factory)
                yield ("yield",)  # let the child run and die first
                code = yield ("waitpid", child)
                results.append(code)

            return body(task)

        sim.executive.spawn("parent", parent_factory)
        sim.run()
        assert results == [9]

    def test_exec_action(self, sim):
        def factory(task):
            def body(t):
                yield ("exec", "newimage", {"text_pages": 4})
                assert t.name == "newimage"

            return body(task)

        sim.executive.spawn("p", factory)
        sim.run()

    def test_fork_without_body_factory(self, sim):
        """fork(None): the child exists but never runs (parent reaps it)."""

        def parent_factory(task):
            def body(t):
                child = yield ("fork", None)
                assert child.pid != t.pid
                sim.kernel.sys_exit(child)

            return body(task)

        sim.executive.spawn("parent", parent_factory)
        sim.run()


class TestMemoryActions:
    def test_mmap_munmap_brk_actions(self, sim):
        def factory(task):
            def body(t):
                addr = yield ("mmap", 8 * PAGE_SIZE, None, None)
                yield ("touch", addr, 2, True)
                yield ("munmap", addr, 8 * PAGE_SIZE)
                new_break = yield ("brk", 2)
                assert new_break > 0

            return body(task)

        sim.executive.spawn("p", factory)
        sim.run()

    def test_read_file_sleeps_on_cold_pages(self, sim):
        sim.kernel.fs.create("cold.dat", 4 * PAGE_SIZE)
        waits = []

        def factory(task):
            def body(t):
                before = sim.machine.clock.total
                count = yield ("read_file", "cold.dat", 0, PAGE_SIZE,
                               0x10000000)
                waits.append(sim.machine.clock.total - before)
                assert count == PAGE_SIZE

            return body(task)

        sim.executive.spawn("p", factory, data_pages=8)
        sim.run()
        # The cold read includes the disk wait.
        assert waits[0] > sim.spec.us_to_cycles(50)


#: A work action's visits: data reads and writes, instruction fetches,
#: several lines, staggered first lines, one page visited twice.
WORK_VISITS = [
    PageVisit(USER_DATA_BASE, 3, True, AccessKind.DATA, 5),
    PageVisit(USER_TEXT_BASE + PAGE_SIZE, 2, False,
              AccessKind.INSTRUCTION, 120),
    PageVisit(USER_DATA_BASE + 2 * PAGE_SIZE, 1, False),
    PageVisit(USER_DATA_BASE, 4, False, AccessKind.DATA, 126),
    PageVisit(USER_TEXT_BASE, 1, False, AccessKind.INSTRUCTION),
]


class TestWorkAction:
    """``work`` checks the task once, then visits through the machine."""

    def run_body(self, body):
        sim = Simulator(M604_185, KernelConfig.optimized())
        results = []
        sim.executive.spawn("p", lambda task: body(sim, task, results),
                            text_pages=4, data_pages=4)
        sim.run()
        machine = sim.machine
        return (results, machine.clock.breakdown(),
                machine.monitor.snapshot(), sim.executive.dispatches)

    def test_matches_per_visit_user_access(self):
        def work(sim, task, results):
            results.append((yield ("work", WORK_VISITS)))

        def per_visit(sim, task, results):
            cycles = sum(
                sim.kernel.user_access(task, visit.ea, visit.lines,
                                       visit.write, visit.kind,
                                       visit.first_line)
                for visit in WORK_VISITS
            )
            alu = USER_COMPUTE_PER_LINE_CYCLES * sum(
                visit.lines for visit in WORK_VISITS
            )
            yield ("compute", alu)
            results.append(cycles + alu)

        assert self.run_body(work) == self.run_body(per_visit)

    def test_task_not_current_panics(self, sim):
        kernel = sim.kernel
        first = kernel.spawn("first", data_pages=4)
        second = kernel.spawn("second", data_pages=4)
        kernel.switch_to(first)
        with pytest.raises(KernelPanic, match="while not current"):
            Executive(kernel)._dispatch(second, ("work", WORK_VISITS[:1]))
