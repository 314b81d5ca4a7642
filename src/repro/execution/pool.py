"""Persistent sandbox worker pool for fault-injection campaigns.

The per-fault ``subprocess.run`` hot path pays an interpreter start plus a full
``repro`` import for every experiment — two orders of magnitude more than the
workload itself.  :class:`WorkerPool` keeps a small set of forked worker
processes alive across a whole campaign: each worker inherits (or imports) the
library once and then serves many fault executions.

Isolation properties match subprocess mode where it matters:

* every task runs with a hard per-task timeout, enforced *inside* the worker
  with ``SIGALRM`` so pure-Python hangs (infinite loops, deadlocks, sleeps)
  are aborted without killing the worker;
* a parent-side backstop catches workers wedged in ways the alarm cannot
  reach, terminating and transparently rebuilding the pool;
* results are returned in submission order regardless of completion order, so
  campaign reports are deterministic for a given seed.

Every batch starts with a worker liveness check and is supervised by a
:class:`~.supervision.SupervisedBatch`, the state machine the distributed
coordinator drives too: tasks whose worker died are requeued under a bounded
retry budget, and a poison task that repeatedly kills workers is quarantined
instead of recycling the pool forever.  Supervision also absorbs self-chaos
(:mod:`repro.resilience.chaos`): injected worker crashes, stalls, and dropped
results perturb scheduling only, so chaotic campaigns terminate with results
byte-identical to fault-free runs.

Tasks and results cross the process boundary as plain dicts; the integration
layer converts them to :class:`~repro.integration.runner.RunObservation`.
"""

from __future__ import annotations

import io
import os
import signal
import sys
import threading
import time
from contextlib import nullcontext
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, NamedTuple

from ..config import ResilienceConfig
from ..errors import SandboxError
from .slots import SandboxSlots
from .supervision import SupervisedBatch

#: Extra parent-side grace on top of the in-worker alarm before a worker is
#: declared wedged and the pool is rebuilt.
_BACKSTOP_GRACE_SECONDS = 5.0


def worker_cap() -> int:
    """Upper bound on pool sizes derived from the machine's CPU count.

    The cap grows with the core count (2x headroom), but never drops below
    four workers: injected faults are frequently sleep-bound (delays, timeouts
    held under locks), and sleeping workers overlap perfectly even on a single
    core.

    Returns:
        ``max(4, cpu_count * 2)``.
    """
    return max(4, (os.cpu_count() or 1) * 2)


def resolve_workers(requested: int | None, default: int = 4) -> int:
    """Clamp a requested worker count to ``[1, worker_cap()]``.

    Args:
        requested: The caller's worker request, or ``None`` for the default.
        default: Fallback when nothing was requested.

    Returns:
        A worker count that is at least 1 and at most :func:`worker_cap`.
    """
    workers = requested if requested is not None else default
    return max(1, min(int(workers), worker_cap()))


class _TaskTimeout(BaseException):
    """Raised inside a worker when a task exceeds its time budget.

    Derives from :class:`BaseException` so the ``except Exception`` harnesses
    inside :meth:`repro.targets.TargetSystem.execute` (whose whole job is
    catching workload failures) cannot swallow the timeout signal.
    """


def _alarm_handler(_signum, _frame):  # pragma: no cover - runs in worker processes
    raise _TaskTimeout()


def _pool_initializer() -> None:  # pragma: no cover - runs in worker processes
    """Warm the library import once per worker (a no-op under fork)."""
    import repro.targets  # noqa: F401


def _execute_task(task: dict[str, Any]) -> dict[str, Any]:
    """Run one target workload inside a pool worker and report a plain dict.

    What the mutant prints goes to buffers, returned as the payload's
    ``stdout`` and ``stderr``, not to the worker's inherited streams.  A
    timed-out task reports none, as a killed ``subprocess`` run does.
    Must stay importable at module top level so the executor can pickle it.
    """
    from ..targets import get_target

    chaos_drop = False
    chaos = task.get("chaos")
    if chaos is not None:
        from ..resilience.chaos import DROP, apply_worker_chaos

        # May sleep or SIGKILL this worker; "drop" defers until after the
        # workload ran, so a dropped result is genuinely computed then lost.
        chaos_drop = apply_worker_chaos(chaos, str(task.get("chaos_key", "")), int(task.get("attempt", 0))) == DROP

    stdout, stderr = io.StringIO(), io.StringIO()
    streams = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr
    timeout = float(task.get("timeout_seconds") or 0.0)
    use_alarm = timeout > 0 and hasattr(signal, "SIGALRM") and threading.current_thread() is threading.main_thread()
    previous_handler = None
    if use_alarm:
        previous_handler = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        target = get_target(task["target"])
        try:
            result = target.execute(
                source=task["source"],
                iterations=int(task["iterations"]),
                seed=int(task["seed"]),
            )
        finally:
            # Disarm immediately so a task finishing just under the deadline is
            # not misreported as a timeout while its payload is being built.
            if use_alarm:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        if chaos_drop:
            return {"status": "chaos-dropped"}
        payload = {"status": "ok", "result": result.to_dict()}
    except _TaskTimeout:
        return {"status": "timeout"}
    except BaseException as exc:  # noqa: BLE001 - workers must never die on a task
        payload = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
    finally:
        sys.stdout, sys.stderr = streams
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)
    payload["stdout"], payload["stderr"] = stdout.getvalue(), stderr.getvalue()
    return payload


class WorkerPool:
    """A persistent pool of sandbox worker processes serving fault runs.

    The executor is created lazily and rebuilt automatically if a task wedges
    or kills a worker, so one pathological fault cannot poison a campaign.
    Several threads may run batches on one pool at once: their parallel
    rounds share the workers, while a suspected pool killer reruns on a
    private one-worker executor, so a worker death there is attributable to
    its task alone.  With :attr:`slots`, every task holds one slot from its
    submission until its future resolves, and a task rerunning alone holds
    one too, so no more tasks run at once than there are slots.  The
    supervision counters are updated under the pool's lock.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        task_timeout_seconds: float = 10.0,
        resilience: ResilienceConfig | None = None,
        slots: SandboxSlots | None = None,
    ) -> None:
        """Size the pool; no worker processes are spawned until the first batch.

        Args:
            max_workers: Requested worker count, clamped by
                :func:`resolve_workers`.
            task_timeout_seconds: Default per-task time budget, enforced
                inside each worker with ``SIGALRM``.
            resilience: Retry budget, quarantine threshold and chaos;
                defaults to :class:`~repro.config.ResilienceConfig` (chaos
                off).
            slots: The budget the pool's tasks hold slots of; a sandbox
                runner passes the one its subprocess runs share.  A
                standalone pool (``None``) shares its workers with nothing,
                so their number is its only bound: it submits a round's
                tasks at once, and a worker takes its next task without
                waiting for the parent.

        Raises:
            SandboxError: If ``task_timeout_seconds`` is not positive.
        """
        if task_timeout_seconds <= 0:
            raise SandboxError("task_timeout_seconds must be positive")
        self.max_workers = resolve_workers(max_workers)
        self.task_timeout_seconds = float(task_timeout_seconds)
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.slots = slots
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self.tasks_executed = 0
        self.pool_rebuilds = 0
        self.retries = 0
        self.quarantined = 0

    # -- lifecycle ----------------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_pool_initializer,
                )
            return self._executor

    def _recycle(self, executor: ProcessPoolExecutor) -> None:
        """Terminate ``executor``'s workers and force the next submission to
        rebuild.

        A no-op when a concurrent batch already replaced ``executor``: the
        replacement is healthy and may be running that batch's tasks.
        """
        with self._lock:
            if executor is not self._executor:
                return
            self._executor = None
            self.pool_rebuilds += 1
        _dispose(executor)

    def check_liveness(self) -> bool:
        """Proactively verify the pool's workers are alive.

        Called at the start of every batch so a worker that died
        between batches (OOM kill, external signal) is noticed *before* work
        is submitted into a broken executor, not after the first
        :class:`BrokenProcessPool` surfaces.

        Returns:
            ``True`` when the pool is healthy (or not yet started); ``False``
            when dead workers were found and the pool was recycled.
        """
        with self._lock:
            executor = self._executor
        if executor is None:
            return True
        processes = list(getattr(executor, "_processes", {}).values())
        if processes and not all(process.is_alive() for process in processes):
            self._recycle(executor)
            return False
        return True

    def stats(self) -> dict[str, int]:
        """Supervision counters for ``/v1/stats``."""
        with self._lock:
            return {
                "tasks_executed": self.tasks_executed,
                "pool_rebuilds": self.pool_rebuilds,
                "retries": self.retries,
                "quarantined": self.quarantined,
            }

    def shutdown(self) -> None:
        """Dispose of the worker processes (idempotent)."""
        with self._lock:
            executor = self._executor
            self._executor = None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - GC timing dependent
        self.shutdown()

    # -- execution ----------------------------------------------------------------

    def run_batch(
        self,
        target_name: str,
        module_sources: list[str],
        seed: int = 0,
        iterations: int = 25,
        timeout_seconds: float | None = None,
    ) -> list[dict[str, Any]]:
        """Execute every source against ``target_name``, preserving input order.

        Args:
            target_name: Registry name of the target system to drive.
            module_sources: Module sources, one task each; the batch holds
                every task's payload at once, so callers bound batch sizes
                (see ``ExecutionConfig.batch_size``).
            seed: Workload seed shared by every task.
            iterations: Workload iterations per task.
            timeout_seconds: Per-task override of the pool's default budget.

        Returns:
            One payload dict per source, in submission order:
            ``{"status": "ok", "result": ...}``, ``{"status": "timeout"}``,
            or ``{"status": "error", "error": ...}``.  A task that wedges or
            kills its worker only fails itself; siblings are requeued on a
            rebuilt pool.
        """
        timeout = float(timeout_seconds if timeout_seconds is not None else self.task_timeout_seconds)
        batch = SupervisedBatch(
            target_name, module_sources, seed, iterations, timeout,
            self.resilience, plane="pool", tally=self._tally,
        )
        backstop = timeout + _BACKSTOP_GRACE_SECONDS
        self.check_liveness()
        # Rounds: every task that may share a worker runs in parallel on the
        # shared executor, then each suspect reruns alone on a private one.
        while not batch.done():
            shared: list[int] = []
            alone: list[int] = []
            while indices := batch.take(len(module_sources)):
                if batch.is_suspect(indices[0]):
                    alone.extend(indices)
                else:
                    shared.extend(indices)

            if shared:
                executor = self._ensure_executor()
                running: list[_Running] = []
                wedged: set[int] = set()
                for index in shared:
                    release = self._take_slot(executor, running, wedged)
                    future = _submit(executor, batch.task(index))
                    future.add_done_callback(release)
                    running.append(_Running(index, future, release, time.monotonic() + backstop))
                for task in running:
                    # A parallel round cannot tell killer from victim: every
                    # task on a dead executor becomes a suspect and reruns alone.
                    if task.index in wedged:
                        payload = {"status": "timeout"}
                    else:
                        payload = self._collect(task.future, backstop, executor)
                    task.release()
                    _report(batch, task.index, payload, alone=False)

            for index in alone:
                # This task alone held its private executor, so a death there
                # is attributable to it.
                with self.slots.claim() if self.slots is not None else nullcontext():
                    payload = _run_alone(batch.task(index), backstop)
                _report(batch, index, payload, alone=True)

        with self._lock:
            self.tasks_executed += len(module_sources)
        return batch.payloads()

    def _tally(self, counter: str) -> None:
        """Count one requeue or quarantine; concurrent batches share the counters."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def _take_slot(
        self, executor: ProcessPoolExecutor, running: list["_Running"], wedged: set[int]
    ) -> Callable[..., None]:
        """Wait for a slot for the next task of a round; returns its release
        (which does nothing for a standalone pool).

        The round's running tasks hold slots, and each started when it got
        one, so the wait keeps their backstop: a task still running past its
        deadline has wedged its worker, so, as :meth:`_collect` would on
        reaching it, ``executor`` is recycled, the task's slot given back and
        its index added to ``wedged``, to be reported as timed out.
        """
        if self.slots is None:
            return _hold_nothing
        while True:
            now = time.monotonic()
            pending = [task for task in running if not task.future.done()]
            for task in pending:
                if task.deadline <= now:
                    self._recycle(executor)
                    task.release()
                    wedged.add(task.index)
            deadlines = [task.deadline for task in pending if task.deadline > now]
            release = self.slots.acquire(timeout=min(deadlines) - now if deadlines else None)
            if release is not None:
                return release

    def _collect(self, future, backstop: float, executor: ProcessPoolExecutor) -> dict[str, Any]:
        """Resolve one future that ran on ``executor`` into a status payload."""
        try:
            return future.result(timeout=backstop)
        except FutureTimeoutError:
            self._recycle(executor)  # outstanding futures fail over to requeue rounds
            return {"status": "timeout"}
        except (BrokenProcessPool, CancelledError):
            self._recycle(executor)
            return {"status": "worker-died"}
        except Exception as exc:  # noqa: BLE001 - submission/pickling failures
            return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def _hold_nothing(*_ignored: object) -> None:
    """The release of a standalone pool's task, which holds no slot."""


class _Running(NamedTuple):
    """A task submitted to the shared executor, holding one slot."""

    index: int
    future: "Future[dict[str, Any]]"
    release: Callable[..., None]  # returns the slot; only the first call does
    deadline: float  # monotonic backstop: past it, the worker is wedged


def _report(batch: SupervisedBatch, index: int, payload: dict[str, Any], alone: bool) -> None:
    """Report one collected payload to the batch as a supervision event."""
    status = payload["status"]
    if status == "worker-died":
        batch.died(index, alone=alone)
    elif status == "chaos-dropped":
        batch.vanished(index)
    else:
        batch.resolve(index, payload)


def _submit(executor: ProcessPoolExecutor, task: dict[str, Any]) -> "Future[dict[str, Any]]":
    """Submit one task; if a concurrent batch already broke or recycled
    ``executor``, return a cancelled future so the task is requeued like the
    victim of a worker death."""
    try:
        return executor.submit(_execute_task, task)
    except RuntimeError:  # BrokenProcessPool, or submit after shutdown
        cancelled: "Future[dict[str, Any]]" = Future()
        cancelled.cancel()
        return cancelled


def _run_alone(task: dict[str, Any], backstop: float) -> dict[str, Any]:
    """Run one suspected pool killer on a private one-worker executor.

    Concurrent batches may break the shared executor at any time; a worker
    death on the private one can only be this task's, so it is reported as
    ``{"status": "worker-died"}`` for the caller to attribute.
    """
    executor = ProcessPoolExecutor(max_workers=1, initializer=_pool_initializer)
    try:
        return executor.submit(_execute_task, task).result(timeout=backstop)
    except FutureTimeoutError:
        return {"status": "timeout"}
    except (BrokenProcessPool, CancelledError):
        return {"status": "worker-died"}
    except Exception as exc:  # noqa: BLE001 - submission/pickling failures
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
    finally:
        _dispose(executor)


def _dispose(executor: ProcessPoolExecutor) -> None:
    """Terminate ``executor``'s workers, wedged or not, without waiting."""
    for process in list(getattr(executor, "_processes", {}).values()):
        process.terminate()
    executor.shutdown(wait=False, cancel_futures=True)
