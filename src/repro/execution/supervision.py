"""One supervision state machine for both sandbox planes.

The local :class:`~repro.execution.WorkerPool` and the distributed
:class:`~repro.distributed.DistributedPool` differ only in how a task reaches
a worker and how a worker's death is observed.  What a death means — which
task it is charged to, when a task is retried or quarantined, and which
payload is finally reported — is decided here, once, by a
:class:`SupervisedBatch`.  The planes are transports: they ``take()`` tasks,
run them, and report each outcome as ``resolve()``, ``vanished()`` or
``died()``.  A batch is not thread-safe; each transport serialises its calls.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..config import ResilienceConfig


class SupervisedBatch:
    """Retry, death-attribution and quarantine bookkeeping of one batch."""

    def __init__(
        self,
        target_name: str,
        module_sources: list[str],
        seed: int,
        iterations: int,
        timeout_seconds: float,
        resilience: ResilienceConfig,
        plane: str,
        tally: Callable[[str], None],
    ) -> None:
        """Build one task dict per source and queue them all.

        ``plane`` (``"pool"`` or ``"distributed"``) names the killed workers
        in the quarantine error.  ``tally`` is called with ``"retries"`` for
        every requeue and with ``"quarantined"`` for every quarantine, so the
        transport keeps its counters.
        """
        chaos = None
        if resilience.chaos.any_faults():
            # Imported on demand: pool workers import this module, and
            # fault-free batches never need the chaos machinery.
            from ..resilience.chaos import chaos_payload

            chaos = chaos_payload(resilience.chaos)
        self.tasks = [
            {
                "task_id": str(index),
                "target": target_name,
                "source": source,
                "seed": seed,
                "iterations": iterations,
                "timeout_seconds": timeout_seconds,
                "chaos": chaos,
                "chaos_key": f"{target_name}:{seed}:{index}",
                "attempt": 0,
            }
            for index, source in enumerate(module_sources)
        ]
        self._config = resilience
        self._plane = plane
        self._tally = tally
        self._results: list[dict[str, Any] | None] = [None] * len(self.tasks)
        self._attempts = [0] * len(self.tasks)
        self._deaths = [0] * len(self.tasks)  # charged only when the task ran alone
        self._suspect = [False] * len(self.tasks)
        self._pending = list(range(len(self.tasks)))  # a heap: taken in index order

    def done(self) -> bool:
        """Whether every task has its payload."""
        return all(payload is not None for payload in self._results)

    def is_suspect(self, index: int) -> bool:
        """Whether the task shared a worker with an unattributed death."""
        return self._suspect[index]

    def unresolved(self, indices: list[int]) -> list[int]:
        """The tasks among ``indices`` that have no payload yet."""
        return [index for index in indices if self._results[index] is None]

    def task(self, index: int) -> dict[str, Any]:
        """The task dict to send to a worker, stamped with its attempt."""
        return {**self.tasks[index], "attempt": self._attempts[index]}

    def take(self, limit: int) -> list[int]:
        """Pop up to ``limit`` pending tasks in index order.

        A suspect always travels alone, so its next death is attributable:
        it ends a group that has already started, and a group that starts
        with it ends there.  Tasks resolved while queued are skipped.
        """
        indices: list[int] = []
        while self._pending and len(indices) < max(1, limit):
            index = heapq.heappop(self._pending)
            if self._results[index] is not None:
                continue
            if self._suspect[index] and indices:
                heapq.heappush(self._pending, index)
                break
            indices.append(index)
            if self._suspect[index]:
                break
        return indices

    def resolve(self, index: int, payload: dict[str, Any]) -> None:
        """Record a task's payload; the first result wins."""
        if self._results[index] is None:
            self._results[index] = payload
            self._suspect[index] = False

    def vanished(self, index: int) -> None:
        """The result was lost without a worker death: requeue, blaming nobody."""
        if self._results[index] is None:
            self._requeue(index, charged=False)

    def died(self, index: int, alone: bool) -> None:
        """The worker running the task died.

        With ``alone`` the task ran on that worker by itself and is charged
        the death; otherwise the killer is unknown and the task becomes a
        suspect.
        """
        if self._results[index] is not None:
            return
        if not alone:
            self._suspect[index] = True
        self._requeue(index, charged=alone)

    def fail_outstanding(self, reason: str) -> None:
        """Fail every task still without a payload, and empty the queue."""
        for index, payload in enumerate(self._results):
            if payload is None:
                self._results[index] = {"status": "error", "error": reason}
        self._pending.clear()

    def payloads(self) -> list[dict[str, Any]]:
        """One payload per task, in submission order."""
        return [
            payload if payload is not None else {"status": "error", "error": "task produced no result"}
            for payload in self._results
        ]

    def _requeue(self, index: int, charged: bool) -> None:
        """Requeue a task whose result vanished, or fail it at its bounds.

        ``quarantine_threshold`` charged deaths quarantine the task, and more
        than ``task_retry_budget`` requeues fail it, so every batch ends.
        """
        config = self._config
        if charged:
            self._deaths[index] += 1
            if self._deaths[index] >= config.quarantine_threshold:
                self._tally("quarantined")
                self._results[index] = {
                    "status": "error",
                    "error": (
                        f"task quarantined after killing {self._deaths[index]} {self._plane} "
                        f"workers (threshold {config.quarantine_threshold})"
                    ),
                    "quarantined": True,
                }
                return
        self._attempts[index] += 1
        if self._attempts[index] > config.task_retry_budget:
            self._results[index] = {
                "status": "error",
                "error": f"worker died and the task's retry budget ({config.task_retry_budget}) is exhausted",
            }
            return
        self._tally("retries")
        heapq.heappush(self._pending, index)
