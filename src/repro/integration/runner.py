"""Sandboxed execution of target workloads against (mutated) module sources.

Four execution modes are provided:

* ``subprocess`` (default for one-off campaigns) — the workload runs in a
  separate, site-free Python process with a hard timeout, so injected hangs,
  deadlocks, and infinite loops are observed as timeouts rather than wedging
  the harness;
* ``pool`` — the workload runs on a persistent sandbox worker from
  :class:`repro.execution.WorkerPool`; workers import the library once and
  serve many runs, eliminating the per-fault interpreter start + import cost
  while keeping per-task timeouts;
* ``inprocess`` — the workload runs in the current interpreter, which is much
  faster and is what unit tests and quick examples use for faults that cannot
  hang;
* ``distributed`` — the workload runs on remote sandbox workers leased over
  TCP by a :class:`repro.distributed.DistributedPool`; on one box the pool
  auto-spawns a localhost fleet, and extra workers on other machines may dial
  in with ``python -m repro worker --connect HOST:PORT`` at any time.
  Results are byte-identical to ``pool`` mode (see docs/DISTRIBUTED.md).

Batches submitted through :meth:`SandboxRunner.run_batch` execute concurrently
(threads driving subprocesses, or pool workers) and always return observations
in submission order, so campaign reports stay deterministic for a given seed.
Submissions are additionally chunked by :attr:`ExecutionConfig.batch_size`, so
arbitrarily large campaigns keep at most ``batch_size`` task payloads in
flight at any moment; see ``docs/EXECUTION.md`` for how to tune the chunk size
against memory.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..config import ExecutionConfig, IntegrationConfig, ResilienceConfig
from ..errors import SandboxError
from ..execution import SandboxSlots, WorkerPool
from ..targets import TargetRunResult, get_target

#: The directory holding this ``repro`` package: the sandbox child imports
#: the server's own copy from it, whatever its environment says.
_PACKAGE_ROOT = str(Path(__file__).resolve().parents[2])

#: The ``subprocess`` sandbox child, run as ``python -S -c _DRIVER``.  ``-S``
#: skips ``site`` (site-packages, ``.pth`` files, ``sitecustomize``), which
#: the workload never needs.  The result goes to a file, not to stdout, so
#: whatever the mutant prints cannot corrupt it.
_DRIVER = """
import sys

package_root, target_name, module_path, iterations, seed, result_path = sys.argv[1:]
sys.path.insert(0, package_root)

import json

from repro.targets import get_target

with open(module_path, "r") as handle:
    source = handle.read()
result = get_target(target_name).execute(source=source, iterations=int(iterations), seed=int(seed))
with open(result_path, "w") as handle:
    json.dump(result.to_dict(), handle)
"""

_MODES = ("subprocess", "inprocess", "pool", "distributed")


@dataclass
class RunObservation:
    """What the runner observed: the run result plus harness-level signals."""

    result: TargetRunResult | None
    timed_out: bool = False
    harness_error: str | None = None
    stdout: str = ""
    stderr: str = ""

    @property
    def completed(self) -> bool:
        return self.result is not None and self.result.completed


class SandboxRunner:
    """Runs target workloads against module sources with timeout protection.

    One runner may serve many callers and targets at once (an engine shares
    one across all of its targets, campaigns and dataset validation): pool
    workers look the target up per task, and :attr:`slots` caps how many
    sandbox workloads run at once, whichever thread submitted them.
    """

    def __init__(
        self,
        config: IntegrationConfig | None = None,
        execution: ExecutionConfig | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        """Configure the runner; pools and scratch space are created lazily.

        Args:
            config: Timeout, iterations and output capture of each run.
            execution: Worker count and chunk size of batches.
            resilience: Supervision / chaos behaviour of the pool modes.
        """
        self._config = config or IntegrationConfig()
        self._execution = execution or ExecutionConfig()
        self._resilience = resilience or ResilienceConfig()
        #: ``ExecutionConfig.resolved_workers()`` slots; every subprocess run
        #: and local pool task holds one while it runs.
        self.slots = SandboxSlots(self._execution.resolved_workers())
        # Lazily-created pools by mode: a WorkerPool under "pool", a
        # repro.distributed.DistributedPool under "distributed".
        self._pools: dict[str, Any] = {}
        self._scratch: tempfile.TemporaryDirectory | None = None
        self._task_ids = itertools.count()
        self._lock = threading.Lock()

    @property
    def config(self) -> IntegrationConfig:
        return self._config

    @property
    def execution(self) -> ExecutionConfig:
        return self._execution

    @property
    def resilience(self) -> ResilienceConfig:
        return self._resilience

    def pool_stats(self) -> dict[str, int] | None:
        """Supervision counters of the lazily-created pool (``None`` before use)."""
        return self._stats("pool")

    def distributed_stats(self) -> dict[str, int] | None:
        """Counters of the lazily-created distributed pool (``None`` before use)."""
        return self._stats("distributed")

    def _stats(self, mode: str) -> dict[str, int] | None:
        with self._lock:
            pool = self._pools.get(mode)
        return pool.stats() if pool is not None else None

    def close(self) -> None:
        """Release the worker pools and the scratch directory (idempotent)."""
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
            scratch, self._scratch = self._scratch, None
        for pool in pools:
            pool.shutdown()
        if scratch is not None:
            scratch.cleanup()

    def __enter__(self) -> "SandboxRunner":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def run(
        self,
        target_name: str,
        module_source: str,
        seed: int = 0,
        iterations: int | None = None,
        mode: str = "subprocess",
    ) -> RunObservation:
        """Execute the target's workload against one module source.

        Args:
            target_name: Registry name of the target system to drive.
            module_source: Python source of the (possibly mutated) module.
            seed: Workload seed; the same seed reproduces the same run.
            iterations: Workload iterations; defaults to
                ``IntegrationConfig.workload_iterations``.
            mode: One of ``"inprocess"``, ``"subprocess"``, ``"pool"``, or
                ``"distributed"``.

        Returns:
            A :class:`RunObservation` with the run result or the harness-level
            signal (timeout, crash, unparseable output) that replaced it.

        Raises:
            SandboxError: If ``mode`` is not a known execution mode.
        """
        if mode not in _MODES:
            raise SandboxError(f"unknown runner mode {mode!r}; use one of {_MODES}")
        iterations = iterations or self._config.workload_iterations
        return self._dispatch_chunk(target_name, [module_source], seed, iterations, mode)[0]

    def run_batch(
        self,
        target_name: str,
        module_sources: list[str],
        seed: int = 0,
        iterations: int | None = None,
        mode: str = "subprocess",
        batch_size: int | None = None,
        timeout_seconds: float | None = None,
    ) -> list[RunObservation]:
        """Execute many module sources concurrently, preserving input order.

        Every run uses the same ``seed``, matching what a serial loop over
        :meth:`run` would do, so batched campaigns reproduce serial outcomes.
        Sources are submitted in consecutive chunks of at most ``batch_size``,
        so the number of in-flight task payloads — and therefore peak memory —
        is bounded no matter how large the campaign is.

        Args:
            target_name: Registry name of the target system to drive.
            module_sources: Module sources, one sandbox run each.
            seed: Workload seed shared by every run in the batch.
            iterations: Workload iterations; defaults to
                ``IntegrationConfig.workload_iterations``.
            mode: One of ``"inprocess"``, ``"subprocess"``, ``"pool"``, or
                ``"distributed"``.
            batch_size: Chunk size for submissions; defaults to
                ``ExecutionConfig.batch_size``.
            timeout_seconds: Per-call override of
                ``IntegrationConfig.test_timeout_seconds`` — used to clamp
                sandbox budgets to a request's remaining deadline.  Only the
                timeout-protected modes honour it (``inprocess`` has no
                timeout by design).

        Returns:
            One :class:`RunObservation` per source, in submission order.

        Raises:
            SandboxError: If ``mode`` is unknown or ``batch_size`` is not
                positive.
        """
        iterations = iterations or self._config.workload_iterations
        if not module_sources:
            return []
        if mode not in _MODES:
            raise SandboxError(f"unknown runner mode {mode!r}; use one of {_MODES}")
        chunk_size = self._execution.batch_size if batch_size is None else int(batch_size)
        if chunk_size <= 0:
            raise SandboxError("batch_size must be positive")
        observations: list[RunObservation] = []
        for start in range(0, len(module_sources), chunk_size):
            observations.extend(
                self._dispatch_chunk(
                    target_name,
                    module_sources[start : start + chunk_size],
                    seed,
                    iterations,
                    mode,
                    timeout_seconds,
                )
            )
        return observations

    def _dispatch_chunk(
        self,
        target_name: str,
        module_sources: list[str],
        seed: int,
        iterations: int,
        mode: str,
        timeout_seconds: float | None = None,
    ) -> list[RunObservation]:
        """Run one submission chunk through the requested execution mode."""
        if mode == "inprocess":
            # In-interpreter runs are GIL-bound; threads would only add noise.
            return [
                self._run_inprocess(target_name, source, seed, iterations)
                for source in module_sources
            ]
        if mode == "subprocess":
            workers = self.slots.total
            if workers <= 1 or len(module_sources) == 1:
                return [
                    self._run_subprocess(target_name, source, seed, iterations, timeout_seconds)
                    for source in module_sources
                ]
            with ThreadPoolExecutor(max_workers=workers) as executor:
                return list(
                    executor.map(
                        lambda source: self._run_subprocess(
                            target_name, source, seed, iterations, timeout_seconds
                        ),
                        module_sources,
                    )
                )
        return self._run_pooled(mode, target_name, module_sources, seed, iterations, timeout_seconds)

    # -- modes --------------------------------------------------------------------

    def _run_inprocess(
        self, target_name: str, module_source: str, seed: int, iterations: int
    ) -> RunObservation:
        target = get_target(target_name)
        result = target.execute(source=module_source, iterations=iterations, seed=seed)
        return RunObservation(result=result)

    def _run_subprocess(
        self,
        target_name: str,
        module_source: str,
        seed: int,
        iterations: int,
        timeout_seconds: float | None = None,
    ) -> RunObservation:
        module_path = self._scratch_file()
        result_path = module_path.with_suffix(".json")
        module_path.write_text(module_source)
        command = [
            sys.executable,
            "-S",
            "-c",
            _DRIVER,
            _PACKAGE_ROOT,
            target_name,
            str(module_path),
            str(iterations),
            str(seed),
            str(result_path),
        ]
        try:
            with self.slots.claim(1):
                completed = subprocess.run(
                    command,
                    capture_output=self._config.capture_output,
                    timeout=timeout_seconds if timeout_seconds is not None else self._config.test_timeout_seconds,
                    text=True,
                    check=False,
                )
            stdout = completed.stdout or ""
            stderr = completed.stderr or ""
            if completed.returncode != 0:
                return RunObservation(
                    result=None,
                    harness_error=f"workload process exited with status {completed.returncode}",
                    stdout=stdout,
                    stderr=stderr,
                )
            try:
                payload = json.loads(result_path.read_text())
            except (OSError, ValueError) as exc:
                return RunObservation(
                    result=None,
                    harness_error=f"could not parse workload output: {exc}",
                    stdout=stdout,
                    stderr=stderr,
                )
        except subprocess.TimeoutExpired as exc:
            return RunObservation(
                result=None,
                timed_out=True,
                stdout=(exc.stdout or "") if isinstance(exc.stdout, str) else "",
                stderr=(exc.stderr or "") if isinstance(exc.stderr, str) else "",
            )
        finally:
            module_path.unlink(missing_ok=True)
            result_path.unlink(missing_ok=True)
        return RunObservation(result=self._result_from_payload(payload), stdout=stdout, stderr=stderr)

    def _run_pooled(
        self,
        mode: str,
        target_name: str,
        module_sources: list[str],
        seed: int,
        iterations: int,
        timeout_seconds: float | None = None,
    ) -> list[RunObservation]:
        """Run the sources on this runner's ``"pool"`` or ``"distributed"`` pool."""
        pool = self._ensure_pool(mode)
        if timeout_seconds is None:
            timeout_seconds = self._config.test_timeout_seconds
        if mode == "distributed":
            # Only local pool workers hold sandbox slots (see SandboxSlots).
            payloads = pool.run_batch(
                target_name, module_sources, seed=seed, iterations=iterations, timeout_seconds=timeout_seconds
            )
            return [self._observation_from_pool(payload) for payload in payloads]
        payloads = []
        with self.slots.claim(min(len(module_sources), pool.max_workers)) as granted:
            # Granted fewer slots than the pool has workers (other callers
            # hold the rest): feed it chunks of that size, so no more tasks
            # run at once than were granted.
            step = len(module_sources) if granted >= pool.max_workers else granted
            for start in range(0, len(module_sources), step):
                payloads.extend(
                    pool.run_batch(
                        target_name,
                        module_sources[start : start + step],
                        seed=seed,
                        iterations=iterations,
                        timeout_seconds=timeout_seconds,
                    )
                )
        return [self._observation_from_pool(payload) for payload in payloads]

    # -- helpers ------------------------------------------------------------------

    def _ensure_pool(self, mode: str) -> Any:
        """The runner's pool for ``mode`` (``"pool"`` or ``"distributed"``)."""
        with self._lock:
            pool = self._pools.get(mode)
            if pool is None:
                pool = self._pools[mode] = self._new_pool(mode)
        return pool

    def _new_pool(self, mode: str) -> Any:
        workers = self.slots.total
        if mode == "distributed":
            from ..distributed import DistributedPool

            return DistributedPool(
                max_workers=workers,
                task_timeout_seconds=self._config.test_timeout_seconds,
                resilience=self._resilience,
                distributed=self._execution.distributed,
            )
        return WorkerPool(
            max_workers=workers,
            task_timeout_seconds=self._config.test_timeout_seconds,
            resilience=self._resilience,
        )

    def _scratch_file(self) -> Path:
        """A unique module path inside the runner's persistent scratch directory.

        One temporary directory is created per runner and reused across runs
        (and threads); each task gets a distinct file name so concurrent
        subprocess runs never collide.
        """
        with self._lock:
            if self._scratch is None:
                self._scratch = tempfile.TemporaryDirectory(prefix="nfi-run-")
            task_id = next(self._task_ids)
        return Path(self._scratch.name) / f"module_under_test_{task_id}.py"

    @staticmethod
    def _result_from_payload(payload: dict[str, Any]) -> TargetRunResult:
        return TargetRunResult(
            target=payload["target"],
            completed=payload["completed"],
            duration_seconds=payload["duration_seconds"],
            metrics=payload.get("metrics", {}),
            violations=payload.get("violations", []),
            error_type=payload.get("error_type"),
            error_message=payload.get("error_message"),
            detected_errors=payload.get("detected_errors", 0),
        )

    def _observation_from_pool(self, payload: dict[str, Any]) -> RunObservation:
        status = payload.get("status")
        if status == "ok":
            return RunObservation(result=self._result_from_payload(payload["result"]))
        if status == "timeout":
            return RunObservation(result=None, timed_out=True)
        return RunObservation(
            result=None,
            harness_error=str(payload.get("error") or "worker produced no result"),
        )
