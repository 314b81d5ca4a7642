"""A cap on concurrently running sandbox workloads.

Each :class:`~repro.integration.SandboxRunner` owns one, sized
``ExecutionConfig.resolved_workers()``.  One runner may be driven from
several threads at once: an engine's sandbox threads (one execution group
each) and its dispatch thread (campaigns, dataset validation, RLHF scoring)
all run on the engine's runner.  Each of those calls may fan out to
``resolved_workers()`` children, so without a shared cap their product —
not ``max_workers`` — would bound the number of live sandbox processes.
Every out-of-process sandbox run (a subprocess, or a task on a local pool
worker) holds one slot while it runs.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


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

    @contextmanager
    def claim(self, wanted: int = 1) -> Iterator[int]:
        """Hold between one and ``wanted`` slots while the block runs.

        Blocks until at least one slot is free, then takes as many free
        slots as it may (up to ``wanted``) and yields how many it took; the
        caller runs at most that many sandbox workloads at once.  A claim
        never waits while holding slots, so claims cannot deadlock.
        """
        wanted = max(1, int(wanted))
        with self._cond:
            self._cond.wait_for(lambda: self._free > 0)
            granted = min(wanted, self._free)
            self._free -= granted
        try:
            yield granted
        finally:
            with self._cond:
                self._free += granted
                self._cond.notify_all()
