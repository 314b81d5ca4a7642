"""Fault-injection experiments: integrate, execute, observe, classify.

An :class:`ExperimentRunner` owns a target baseline, a sandbox runner, and a
failure classifier, and turns individual faults (generated or operator-applied)
into :class:`~repro.types.InjectionOutcome` records.  This is the "Automated
Integration and Testing Tool" of Section III-B.4 as an executable component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..config import ExecutionConfig, IntegrationConfig
from ..errors import ExperimentError, IntegrationError
from ..injection.operators import AppliedFault
from ..targets import TargetRunResult, TargetSystem, get_target
from ..types import FailureMode, GeneratedFault, InjectionOutcome
from .integrator import FaultIntegrator, IntegratedFault
from .monitors import Classification, FailureClassifier
from .runner import RunObservation, SandboxRunner
from .workspace import WorkspaceManager

#: Faults with these templates/operators can legitimately hang; they are never
#: executed in-process regardless of the requested default.  Pool and
#: distributed workers enforce per-task timeouts, so both are hang-safe as-is.
_HANG_PRONE_MARKERS = ("infinite_loop", "deadlock")

_HANG_SAFE_MODES = ("pool", "distributed")


def _effective_mode(mode: str, hint: str | None) -> str:
    if mode not in _HANG_SAFE_MODES and any(
        marker in (hint or "") for marker in _HANG_PRONE_MARKERS
    ):
        return "subprocess"
    return mode


@dataclass
class ExperimentRecord:
    """One executed experiment with every intermediate artefact retained."""

    outcome: InjectionOutcome
    integrated: IntegratedFault | None = None
    classification: Classification | None = None
    stdout: str = ""
    stderr: str = ""


@dataclass
class ExperimentBatch:
    """A collection of experiment records for one target."""

    target_name: str
    records: list[ExperimentRecord] = field(default_factory=list)

    @property
    def outcomes(self) -> list[InjectionOutcome]:
        return [record.outcome for record in self.records]

    def __len__(self) -> int:
        return len(self.records)


class ExperimentRunner:
    """Runs fault-injection experiments against one target system.

    ``runner`` is the :class:`SandboxRunner` to execute on (an engine shares
    one across every target); without one, the experiment runner builds its
    own from ``config`` and ``execution``.  Either way :attr:`execution` is
    the execution config of the runner in use.
    """

    def __init__(
        self,
        target: TargetSystem | str,
        config: IntegrationConfig | None = None,
        runner: SandboxRunner | None = None,
        classifier: FailureClassifier | None = None,
        workspaces: WorkspaceManager | None = None,
        seed: int = 0,
        execution: ExecutionConfig | None = None,
    ) -> None:
        self.target = get_target(target) if isinstance(target, str) else target
        self.config = config or IntegrationConfig()
        self._owns_runner = runner is None
        self._runner = runner or SandboxRunner(self.config, execution=execution)
        self.execution = self._runner.execution
        self._classifier = classifier or FailureClassifier()
        self._integrator = FaultIntegrator(workspaces)
        self._seed = seed
        self._baseline: TargetRunResult | None = None

    def close(self) -> None:
        """Release the sandbox runner if this experiment runner created it.

        Idempotent; borrowed runners (passed into ``__init__``) are left to
        their owner.  Use the runner as a context manager for scoped cleanup.
        """
        if self._owns_runner:
            self._runner.close()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    @property
    def baseline(self) -> TargetRunResult:
        """The pristine target's golden run (computed lazily and cached)."""
        if self._baseline is None:
            self._baseline = self.target.baseline(
                iterations=self.config.workload_iterations, seed=self._seed
            )
        return self._baseline

    # -- single experiments -------------------------------------------------------

    def run_generated(self, fault: GeneratedFault, mode: str = "subprocess") -> ExperimentRecord:
        """Integrate and execute an LLM-generated fault."""
        try:
            integrated = self._integrator.integrate_generated(self.target, fault)
        except IntegrationError as exc:
            return self._integration_failure(fault.fault_id, str(exc))
        return self._execute(fault.fault_id, integrated, mode, hint=fault.actions.get("template", ""))

    def run_applied(self, applied: AppliedFault, mode: str = "subprocess") -> ExperimentRecord:
        """Integrate and execute a fault produced by the injection substrate."""
        try:
            integrated = self._integrator.integrate_applied(self.target, applied)
        except IntegrationError as exc:
            identifier = f"{applied.operator}@{applied.point.qualified_function}"
            return self._integration_failure(identifier, str(exc))
        return self._execute(integrated.fault_id, integrated, mode, hint=applied.operator)

    # -- batches -------------------------------------------------------------------

    def run_many(
        self,
        faults: Sequence[GeneratedFault | AppliedFault],
        mode: str = "subprocess",
        batch_size: int | None = None,
        timeout_seconds: float | None = None,
    ) -> ExperimentBatch:
        """Integrate and execute many faults, running independent experiments concurrently.

        Faults may mix LLM-generated and operator-applied kinds.  The campaign
        is processed in consecutive chunks of at most ``batch_size`` faults
        (default: ``ExecutionConfig.batch_size``): each chunk is integrated,
        grouped by effective execution mode, and submitted as one sandbox
        batch before the next chunk is touched, so arbitrarily large
        campaigns hold at most one chunk of integrated module sources and
        in-flight results in memory.  Records come back in input order and,
        run for run, match what a serial loop over :meth:`run_generated` /
        :meth:`run_applied` produces for the same seed.

        Args:
            faults: Generated and/or operator-applied faults to execute.
            mode: Requested execution mode; hang-prone faults are promoted
                from ``inprocess`` to ``subprocess`` automatically.
            batch_size: Chunk size for the integrate-and-execute pipeline;
                defaults to ``ExecutionConfig.batch_size``.
            timeout_seconds: Per-call sandbox timeout override, used to clamp
                execution budgets to a request's remaining deadline.

        Returns:
            An :class:`ExperimentBatch` with one record per input fault.

        Raises:
            ExperimentError: If ``batch_size`` is not positive.
        """
        faults = list(faults)
        chunk_size = self.execution.batch_size if batch_size is None else int(batch_size)
        if chunk_size <= 0:
            raise ExperimentError("batch_size must be positive")
        batch = ExperimentBatch(target_name=self.target.name)
        for start in range(0, len(faults), chunk_size):
            batch.records.extend(
                self._run_chunk(faults[start : start + chunk_size], mode, chunk_size, timeout_seconds)
            )
        return batch

    def _run_chunk(
        self,
        faults: list[GeneratedFault | AppliedFault],
        mode: str,
        chunk_size: int,
        timeout_seconds: float | None = None,
    ) -> list[ExperimentRecord]:
        """Integrate and execute one chunk of faults, preserving input order."""
        records: list[ExperimentRecord | None] = [None] * len(faults)
        pending: list[tuple[int, str, IntegratedFault, str]] = []
        for index, fault in enumerate(faults):
            if isinstance(fault, AppliedFault):
                hint = fault.operator
                try:
                    integrated = self._integrator.integrate_applied(self.target, fault)
                except IntegrationError as exc:
                    identifier = f"{fault.operator}@{fault.point.qualified_function}"
                    records[index] = self._integration_failure(identifier, str(exc))
                    continue
                fault_id = integrated.fault_id
            else:
                hint = fault.actions.get("template", "")
                try:
                    integrated = self._integrator.integrate_generated(self.target, fault)
                except IntegrationError as exc:
                    records[index] = self._integration_failure(fault.fault_id, str(exc))
                    continue
                fault_id = fault.fault_id
            pending.append((index, fault_id, integrated, _effective_mode(mode, hint)))

        baseline = self.baseline if pending else None
        by_mode: dict[str, list[tuple[int, str, IntegratedFault]]] = {}
        for index, fault_id, integrated, effective_mode in pending:
            by_mode.setdefault(effective_mode, []).append((index, fault_id, integrated))
        for effective_mode, group in by_mode.items():
            observations = self._runner.run_batch(
                self.target.name,
                [integrated.module_source for _, _, integrated in group],
                seed=self._seed,
                iterations=self.config.workload_iterations,
                mode=effective_mode,
                batch_size=chunk_size,
                timeout_seconds=timeout_seconds,
            )
            for (index, fault_id, integrated), observation in zip(group, observations):
                records[index] = self._record_from_observation(
                    fault_id, integrated, observation, effective_mode, baseline
                )

        return [record for record in records if record is not None]

    def run_batch_applied(
        self, faults: Iterable[AppliedFault], mode: str = "subprocess"
    ) -> ExperimentBatch:
        return self.run_many(list(faults), mode=mode)

    # -- internals ----------------------------------------------------------------

    def _execute(
        self, fault_id: str, integrated: IntegratedFault, mode: str, hint: str = ""
    ) -> ExperimentRecord:
        effective_mode = _effective_mode(mode, hint)
        observation = self._runner.run(
            self.target.name,
            integrated.module_source,
            seed=self._seed,
            iterations=self.config.workload_iterations,
            mode=effective_mode,
        )
        return self._record_from_observation(fault_id, integrated, observation, effective_mode, self.baseline)

    def _record_from_observation(
        self,
        fault_id: str,
        integrated: IntegratedFault,
        observation: RunObservation,
        effective_mode: str,
        baseline: TargetRunResult | None = None,
    ) -> ExperimentRecord:
        baseline = baseline if baseline is not None else self.baseline
        classification = self._classifier.classify(observation, baseline)
        result = observation.result
        outcome = InjectionOutcome(
            fault_id=fault_id,
            activated=classification.activated,
            failure_mode=classification.failure_mode,
            tests_run=self.config.workload_iterations,
            tests_failed=(result.detected_errors - baseline.detected_errors) if result else 0,
            duration_seconds=result.duration_seconds if result else self.config.test_timeout_seconds,
            error_message=result.error_message if result else classification.reason,
            details={
                "reason": classification.reason,
                "target": self.target.name,
                "changed_lines": integrated.patch.changed_line_count,
                "mode": effective_mode,
            },
        )
        return ExperimentRecord(
            outcome=outcome,
            integrated=integrated,
            classification=classification,
            stdout=observation.stdout,
            stderr=observation.stderr,
        )

    def _integration_failure(self, fault_id: str, message: str) -> ExperimentRecord:
        """Record a fault that could not even be integrated (counts as no failure)."""
        outcome = InjectionOutcome(
            fault_id=fault_id,
            activated=False,
            failure_mode=FailureMode.NO_FAILURE,
            error_message=f"integration failed: {message}",
            details={"integration_failed": True, "target": self.target.name},
        )
        return ExperimentRecord(outcome=outcome)


def verify_target_health(target: TargetSystem | str, iterations: int = 25, seed: int = 0) -> TargetRunResult:
    """Convenience health check used by examples before launching campaigns."""
    target = get_target(target) if isinstance(target, str) else target
    result = target.baseline(iterations=iterations, seed=seed)
    if not result.completed:
        raise ExperimentError(f"target {target.name!r} failed its health check")
    return result
