"""Process bodies and the executive that runs them.

A simulated process is a Python generator that *yields actions* —
syscalls, memory touches, forks — and receives each action's result at
the next resume.  The executive is the dispatch loop: it picks runnable
tasks off the kernel's scheduler, context-switches to them, executes
their actions, blocks them on pipes and disk waits, and runs the idle
task whenever nothing is runnable (which is exactly when the §7/§9 idle
optimizations get their window).

Action vocabulary (tuples):

=====================  =======================================  =============
action                 semantics                                result
=====================  =======================================  =============
("getpid",)            trivial syscall                          pid
("touch", ea, n, w)    touch n cache lines in the page at ea    cycles
("itouch", ea, n)      instruction-fetch n lines at ea          cycles
("work", visits)       run a list of PageVisits                 cycles
("compute", cycles)    pure CPU burn                            None
("pipe",)              create a pipe                            pipe id
("pipe_write", i,n,b)  write n bytes (blocks when full)         bytes written
("pipe_read", i,n,b)   read n bytes (blocks when empty)         bytes read
("mmap", len, f, a)    map a region                             address
("munmap", a, len)     unmap a region                           None
("brk", pages)         grow the data segment                    new break
("read_file", n,o,l,b) read a file (may sleep on disk)          bytes read
("fork", factory)      fork; child runs factory(child_task)     child Task
("exec", name, kw)     replace the address space                None
("waitpid", task)      block until the child exits              exit code
("exit", code)         terminate                                —
("yield",)             round-robin reschedule                   None
("sleep", cycles)      sleep for a fixed time (think time)      None
("sleep_until", c)     sleep to an absolute deadline cycle      None
("mark", label)        record a timestamp for the workload      None
=====================  =======================================  =============

``sleep_until`` is the open-loop arrival primitive: a dispatcher that
must issue requests on a precomputed schedule sleeps to each absolute
deadline, and when the deadline is already past (the system fell
behind the offered load) it continues immediately instead of shifting
the schedule — the coordinated-omission-free behaviour the service
workload's latency accounting depends on.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Generator, List, Tuple

from repro.errors import KernelPanic, SyscallError
from repro.hw.machine import AccessKind
from repro.kernel.kernel import Kernel
from repro.kernel.task import Task, TaskState
from repro.params import USER_COMPUTE_PER_LINE_CYCLES

Body = Generator[tuple, object, None]
BodyFactory = Callable[[Task], Body]

#: Enum members bound once: the dispatch loop reads them per action.
_INSTRUCTION = AccessKind.INSTRUCTION
_SLEEPING = TaskState.SLEEPING
_EXITED = TaskState.EXITED

#: Safety valve against runaway workloads.
DEFAULT_MAX_DISPATCHES = 5_000_000


class Executive:
    """Runs process bodies over a kernel until everything exits."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._bodies: Dict[Task, Body] = {}
        self._pending: Dict[Task, tuple] = {}
        self._send_value: Dict[Task, object] = {}
        #: ("mark", label) timestamps, in ledger cycles, per label.
        self.marks: Dict[str, List[int]] = defaultdict(list)
        self.dispatches = 0

    # -- workload construction ---------------------------------------------------

    def add(self, task: Task, body: Body) -> None:
        """Register a body for a task and make it runnable."""
        if task in self._bodies:
            raise KernelPanic(f"task {task.pid} already has a body")
        self._bodies[task] = body
        self.kernel.scheduler.enqueue(task)

    def spawn(self, name: str, factory: BodyFactory, **spawn_kwargs) -> Task:
        """Spawn a task and register ``factory(task)`` as its body."""
        task = self.kernel.spawn(name, **spawn_kwargs)
        self.add(task, factory(task))
        return task

    # -- the main loop --------------------------------------------------------------

    def run(self, max_dispatches: int = DEFAULT_MAX_DISPATCHES) -> None:
        """Run until every body has exited.

        SMP is a deterministic round-robin over the CPUs: each outer
        iteration visits CPU 0..N-1 in order and runs that CPU's next
        runnable task for one quantum (until it blocks, yields, or
        exits).  Task placement is fixed at creation, so the interleaving
        — and therefore every per-CPU ledger — is a pure function of the
        workload.  With one CPU the loop is the original single-queue
        executive, charge for charge.
        """
        kernel = self.kernel
        sched = kernel.scheduler
        machine = kernel.machine
        while self._bodies:
            ran = False
            for cpu in range(machine.n_cpus):
                machine.set_current_cpu(cpu)
                task = sched.pick_next()
                if task is None:
                    continue
                ran = True
                kernel.switch_to(task)
                self._run_task(task, max_dispatches)
            if self._bodies and not ran:
                self._idle_until_wakeup()
        # Leave the boot CPU selected so post-run measurement reads the
        # same state it always did.
        machine.set_current_cpu(0)

    def _idle_until_wakeup(self) -> None:
        """Every CPU is idle: run each one's idle window to its next
        timer wakeup (the §7/§9 idle optimizations get their window
        here, on every processor that has one)."""
        kernel = self.kernel
        sched = kernel.scheduler
        machine = kernel.machine
        wakes = [
            sched.next_wakeup(cpu) for cpu in range(machine.n_cpus)
        ]
        if all(wake is None for wake in wakes):
            blocked = sorted(t.pid for t in self._bodies)
            raise KernelPanic(
                f"deadlock: tasks {blocked} blocked with nothing runnable"
            )
        for cpu, wake in enumerate(wakes):
            if wake is None:
                continue
            machine.set_current_cpu(cpu)
            clock = machine.clock
            window = max(wake - clock.total, 1)
            kernel.run_idle(window)
            if clock.total < wake:
                clock.add(wake - clock.total, "io_wait")
            sched.expire_timers(clock.total, cpu)

    # -- per-task execution ------------------------------------------------------------

    def _run_task(self, task: Task, max_dispatches: int) -> None:
        """Run one task until it blocks, yields, or exits."""
        body = self._bodies[task]
        while True:
            self.dispatches += 1
            if self.dispatches > max_dispatches:
                raise KernelPanic(
                    f"dispatch limit {max_dispatches} exceeded — "
                    "runaway workload?"
                )
            action = self._pending.pop(task, None)
            retried = action is not None
            if action is None:
                try:
                    action = body.send(self._send_value.pop(task, None))
                except StopIteration:
                    self._finish(task)
                    return
            status, value = self._dispatch(task, action, retried)
            if status == "done":
                self._send_value[task] = value
                continue
            if status == "yield":
                self._send_value[task] = None
                self.kernel.scheduler.enqueue(task)
                return
            if status == "sleep":
                # value is (wakeup_cycle, result); result is delivered
                # when the task resumes.
                wakeup, result = value
                self._send_value[task] = result
                self.kernel.scheduler.sleep_until(task, wakeup)
                return
            if status == "block":
                # value is the waiter list to join; the action retries
                # when the task is woken.
                task.state = _SLEEPING
                value.append(task)
                self._pending[task] = action
                return
            if status == "exit":
                self._finish(task, code=value)
                return
            raise KernelPanic(f"unknown dispatch status {status!r}")

    def _finish(self, task: Task, code: int = 0) -> None:
        if task.state is not _EXITED:
            self.kernel.sys_exit(task, code)
        self._bodies.pop(task, None)
        self._pending.pop(task, None)
        self._send_value.pop(task, None)

    # -- dispatch ---------------------------------------------------------------------------

    def _dispatch(
        self, task: Task, action: tuple, retried: bool = False
    ) -> Tuple[str, object]:
        kernel = self.kernel
        kind = action[0]
        if kind == "getpid":
            return "done", kernel.sys_getpid(task)
        if kind == "touch":
            _, ea, lines, write = action
            return "done", kernel.user_access(task, ea, lines, write)
        if kind == "itouch":
            _, ea, lines = action
            return "done", kernel.user_access(
                task, ea, lines, False, _INSTRUCTION
            )
        if kind == "work":
            # The check ``Kernel.user_access`` makes per visit, made once
            # per action: no visit switches tasks.  Each visit then goes
            # to the machine positionally.
            kernel.check_current(task)
            machine = kernel.machine
            access_page = machine.access_page
            cycles = 0
            lines = 0
            for visit in action[1]:
                cycles += access_page(
                    visit.ea, visit.lines, visit.write, visit.kind,
                    visit.first_line,
                )
                lines += visit.lines
            alu = lines * USER_COMPUTE_PER_LINE_CYCLES
            machine.clock.add(alu, "user_compute")
            return "done", cycles + alu
        if kind == "compute":
            kernel.machine.clock.add(action[1], "user_compute")
            return "done", None
        if kind == "pipe":
            return "done", kernel.sys_pipe(task)
        if kind == "pipe_write":
            _, ident, nbytes, buffer = action
            written, would_block = kernel.sys_pipe_write(
                task, ident, nbytes, buffer, charge_entry=not retried
            )
            if would_block:
                return "block", kernel.pipes.get(ident).writers_waiting
            return "done", written
        if kind == "pipe_read":
            _, ident, nbytes, buffer = action
            count, would_block = kernel.sys_pipe_read(
                task, ident, nbytes, buffer, charge_entry=not retried
            )
            if would_block:
                return "block", kernel.pipes.get(ident).readers_waiting
            return "done", count
        if kind == "mmap":
            _, length, file, addr = action
            return "done", kernel.sys_mmap(task, length, file=file, addr=addr)
        if kind == "munmap":
            _, addr, length = action
            kernel.sys_munmap(task, addr, length)
            return "done", None
        if kind == "brk":
            return "done", kernel.sys_brk(task, action[1])
        if kind == "read_file":
            _, name, offset, length, buffer = action
            count, wait = kernel.sys_read_file(task, name, offset, length, buffer)
            if wait:
                wakeup = kernel.machine.clock.total + wait
                return "sleep", (wakeup, count)
            return "done", count
        if kind == "fork":
            child = kernel.sys_fork(task)
            factory = action[1]
            if factory is not None:
                self.add(child, factory(child))
            return "done", child
        if kind == "exec":
            _, image, kwargs = action
            kernel.sys_exec(task, image, **(kwargs or {}))
            return "done", None
        if kind == "waitpid":
            child = action[1]
            if child.state is _EXITED:
                return "done", child.exit_code
            waiters = kernel.exit_waiters.setdefault(child.pid, [])
            return "block", waiters
        if kind == "exit":
            code = action[1] if len(action) > 1 else 0
            return "exit", code
        if kind == "yield":
            return "yield", None
        if kind == "sleep":
            wakeup = kernel.machine.clock.total + action[1]
            return "sleep", (wakeup, None)
        if kind == "sleep_until":
            # Absolute deadline on this task's home-CPU clock.  A past
            # deadline runs through immediately — the open-loop contract.
            wakeup = action[1]
            if wakeup <= kernel.machine.clock.total:
                return "done", None
            return "sleep", (wakeup, None)
        if kind == "mark":
            self.marks[action[1]].append(kernel.machine.clock.total)
            return "done", None
        raise SyscallError(str(kind), "unknown action")

    # -- measurement helpers --------------------------------------------------------------------

    def mark_deltas(self, start_label: str, end_label: str) -> List[int]:
        """Pairwise cycle deltas between two mark streams."""
        starts = self.marks.get(start_label, [])
        ends = self.marks.get(end_label, [])
        return [end - start for start, end in zip(starts, ends)]
