"""Run queues and the context-switch path.

The context switch is one of the paper's headline metrics (33% faster
with the §6.1 handlers; 6 µs vs 28 µs optimized-vs-not in Table 3).  Its
cost here is the fixed save/restore path, the 16 segment-register loads
(how an address space is installed on PPC), the kernel-text footprint of
the switch code, and — implicitly — the TLB and cache misses the new
task takes when it resumes, which the machine model charges as they
happen.

SMP: each CPU owns a run queue and a timer heap.  A task's home CPU is
fixed at creation (round-robin placement, no migration), so the set of
tasks a CPU ever runs — and therefore every per-CPU cycle total — is a
pure function of spawn order.  With one CPU this degenerates to the
original single-queue scheduler, charge for charge.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List, Optional, Tuple

from repro.errors import KernelPanic
from repro.kernel.task import Task, TaskState
from repro.params import SCHED_PICK_CYCLES

#: Task states bound once: the run queue reads them per dispatch.
_READY = TaskState.READY
_SLEEPING = TaskState.SLEEPING
_EXITED = TaskState.EXITED


class Scheduler:
    """Per-CPU round-robin run queues plus per-CPU timer queues."""

    def __init__(self, kernel):
        self.kernel = kernel
        n_cpus = kernel.machine.n_cpus
        self._queues: List[deque] = [deque() for _ in range(n_cpus)]
        #: Per-CPU min-heaps of (wakeup_cycle, sequence, task) for timed
        #: sleeps (disk completions).
        self._timers: List[List[Tuple[int, int, Task]]] = [
            [] for _ in range(n_cpus)
        ]
        self._timer_seq = 0
        self._next_cpu = 0

    # -- placement -----------------------------------------------------------

    def assign_cpu(self) -> int:
        """Pick the home CPU for a new task (deterministic round-robin)."""
        cpu = self._next_cpu
        self._next_cpu = (self._next_cpu + 1) % len(self._queues)
        return cpu

    # -- run queue -----------------------------------------------------------

    def enqueue(self, task: Task) -> None:
        if task.state is _EXITED:
            raise KernelPanic(f"enqueue of exited task {task.pid}")
        task.state = _READY
        self._queues[task.cpu].append(task)

    def dequeue(self, task: Task) -> None:
        try:
            self._queues[task.cpu].remove(task)
        except ValueError:
            pass

    def pick_next(self) -> Optional[Task]:
        """Pop the current CPU's next runnable task, charging the cost."""
        self.kernel.machine.clock.add(SCHED_PICK_CYCLES, "sched")
        queue = self._queues[self.kernel.machine.current_cpu]
        while queue:
            task = queue.popleft()
            if task.state is not _EXITED:
                return task
        return None

    def runnable_count(self) -> int:
        return sum(
            1
            for queue in self._queues
            for task in queue
            if task.state is not _EXITED
        )

    # -- timed sleeps (I/O completion) ----------------------------------------

    def sleep_until(self, task: Task, wakeup_cycle: int) -> None:
        task.state = _SLEEPING
        self._timer_seq += 1
        heapq.heappush(
            self._timers[task.cpu], (wakeup_cycle, self._timer_seq, task)
        )
        tracer = self.kernel.machine.tracer
        if tracer is not None:
            tracer.instant("sleep", "sched", task.pid, wakeup_cycle)

    def next_wakeup(self, cpu: Optional[int] = None) -> Optional[int]:
        """Earliest pending deadline on ``cpu`` (default: current CPU)."""
        if cpu is None:
            cpu = self.kernel.machine.current_cpu
        timers = self._timers[cpu]
        while timers and timers[0][2].state is _EXITED:
            heapq.heappop(timers)
        if not timers:
            return None
        return timers[0][0]

    def expire_timers(self, now: int, cpu: Optional[int] = None) -> List[Task]:
        """Wake every sleeper on ``cpu`` whose deadline has passed."""
        if cpu is None:
            cpu = self.kernel.machine.current_cpu
        timers = self._timers[cpu]
        woken = []
        while timers and timers[0][0] <= now:
            _deadline, _seq, task = heapq.heappop(timers)
            if task.state is _SLEEPING:
                self.enqueue(task)
                woken.append(task)
        tracer = self.kernel.machine.tracer
        if tracer is not None:
            for task in woken:
                tracer.instant("wakeup", "sched", task.pid)
        return woken

