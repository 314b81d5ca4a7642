"""A cap on concurrently running sandbox workloads.

Each :class:`~repro.integration.SandboxRunner` owns one, sized
``ExecutionConfig.resolved_workers()``, and shares it with its local
:class:`~repro.execution.WorkerPool`.  One runner may be driven from several
threads at once: an engine's sandbox threads (one execution group each) and
its dispatch thread (campaigns, dataset validation, RLHF scoring) all run on
the engine's runner.  Each of those calls may fan out to
``resolved_workers()`` children, so without a shared cap their product — not
``max_workers`` — would bound the number of live sandbox processes.  Every
out-of-process sandbox run of a runner holds exactly one slot while it runs:
a subprocess from its start until it exits, and a pool task from its
submission until its future resolves.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator


class SandboxSlots:
    """A counting limit on sandbox runs shared by several threads."""

    def __init__(self, slots: int) -> None:
        """Create ``slots`` free slots (at least one)."""
        self.total = max(1, int(slots))
        self._free = self.total
        self._cond = threading.Condition()

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        with self._cond:
            return self.total - self._free

    def acquire(self, timeout: float | None = None) -> Callable[..., None] | None:
        """Take one slot, waiting up to ``timeout`` seconds (forever on ``None``).

        Returns:
            ``None`` when no slot came free in time; otherwise a function
            that gives the slot back.  Only its first call does, so a pool
            task's slot can be given back both when its future resolves and
            when its batch collects it, whichever happens first.
        """
        with self._cond:
            if not self._cond.wait_for(lambda: self._free > 0, timeout):
                return None
            self._free -= 1
        returned = False

        def release(*_ignored: object) -> None:
            nonlocal returned
            with self._cond:
                if not returned:
                    returned = True
                    self._free += 1
                    self._cond.notify_all()

        return release

    @contextmanager
    def claim(self) -> Iterator[None]:
        """Hold one slot while the block runs."""
        release = self.acquire()
        try:
            yield
        finally:
            release()
