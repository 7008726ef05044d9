"""Wait queues — the kernel's blocking/wakeup primitive.

A task blocks by yielding ``Block(waitq)``; any other code path (including
plain Python calls from another task's behaviour) wakes it with
:meth:`WaitQueue.wake_one` / :meth:`WaitQueue.wake_all`.  Woken tasks are
handed back to the scheduler through the task's own ``make_runnable``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.kernel.task import Task


class WaitQueue:
    """FIFO queue of blocked tasks."""

    __slots__ = ("name", "_waiters")

    def __init__(self, name: str = "waitq") -> None:
        self.name = name
        self._waiters: deque[Task] = deque()

    def __len__(self) -> int:
        return len(self._waiters)

    def __contains__(self, task: "Task") -> bool:
        return task in self._waiters

    def add(self, task: "Task") -> None:
        """Enqueue *task*; the engine calls this when a Block op retires."""
        self._waiters.append(task)

    def remove(self, task: "Task") -> None:
        """Drop *task* without waking it (used on task exit)."""
        try:
            self._waiters.remove(task)
        except ValueError:
            pass

    def wake_one(self) -> "Task | None":
        """Wake the longest-waiting task, if any."""
        if not self._waiters:
            return None
        task = self._waiters.popleft()
        task.make_runnable()
        return task

    def wake_all(self) -> list["Task"]:
        """Wake every waiter in FIFO order."""
        woken = list(self._waiters)
        self._waiters.clear()
        for task in woken:
            task.make_runnable()
        return woken

    def __repr__(self) -> str:
        return f"WaitQueue({self.name!r}, waiters={len(self._waiters)})"
