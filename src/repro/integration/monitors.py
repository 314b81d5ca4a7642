"""Failure-mode classification of injection experiments.

The classifier compares the observation collected while running an injected
module against the golden (pristine) baseline run of the same target and maps
the difference onto the :class:`~repro.types.FailureMode` taxonomy:

* the workload process hit its timeout                        → ``HANG``
* the workload raised an unexpected exception                 → ``CRASH``
* invariant checks failed but the workload finished           → ``SILENT_DATA_CORRUPTION``
* the application reported more errors than the baseline      → ``ERROR_DETECTED``
* the run was substantially slower than the baseline          → ``DEGRADED``
* otherwise                                                   → ``NO_FAILURE``
"""

from __future__ import annotations

from dataclasses import dataclass

from ..targets import TargetRunResult
from ..types import FailureMode
from .runner import RunObservation


@dataclass
class ClassificationThresholds:
    """Tunable thresholds used by the failure classifier."""

    error_margin: int = 1
    slowdown_factor: float = 3.0
    #: clear of the 0.2 s that short injected delays often add up to, so jitter cannot decide them
    slowdown_floor_seconds: float = 0.15

    def __post_init__(self) -> None:
        self.error_margin = max(0, int(self.error_margin))
        self.slowdown_factor = max(1.0, float(self.slowdown_factor))


@dataclass
class Classification:
    """The failure mode plus the evidence supporting it."""

    failure_mode: FailureMode
    activated: bool
    reason: str

    def to_dict(self) -> dict:
        return {
            "failure_mode": self.failure_mode.value,
            "activated": self.activated,
            "reason": self.reason,
        }


class FailureClassifier:
    """Maps run observations onto system-level failure modes."""

    def __init__(self, thresholds: ClassificationThresholds | None = None) -> None:
        self._thresholds = thresholds or ClassificationThresholds()

    def classify(self, observation: RunObservation, baseline: TargetRunResult) -> Classification:
        """Classify one faulty run against the pristine baseline."""
        if observation.timed_out:
            return Classification(
                failure_mode=FailureMode.HANG,
                activated=True,
                reason="workload exceeded its timeout",
            )
        if observation.harness_error is not None:
            return Classification(
                failure_mode=FailureMode.CRASH,
                activated=True,
                reason=f"workload process failed: {observation.harness_error}",
            )
        result = observation.result
        if result is None:
            return Classification(
                failure_mode=FailureMode.CRASH,
                activated=True,
                reason="no result was produced by the workload",
            )
        if not result.completed:
            return Classification(
                failure_mode=FailureMode.CRASH,
                activated=True,
                reason=f"unhandled {result.error_type}: {result.error_message}",
            )
        if result.violations:
            return Classification(
                failure_mode=FailureMode.SILENT_DATA_CORRUPTION,
                activated=True,
                reason="; ".join(result.violations[:3]),
            )
        extra_errors = result.detected_errors - baseline.detected_errors
        if extra_errors > self._thresholds.error_margin:
            return Classification(
                failure_mode=FailureMode.ERROR_DETECTED,
                activated=True,
                reason=f"{extra_errors} additional errors were detected and handled by the application",
            )
        slowdown_limit = max(
            baseline.duration_seconds * self._thresholds.slowdown_factor,
            baseline.duration_seconds + self._thresholds.slowdown_floor_seconds,
        )
        if result.duration_seconds > slowdown_limit:
            return Classification(
                failure_mode=FailureMode.DEGRADED,
                activated=True,
                reason=(
                    f"run took {result.duration_seconds:.3f}s versus a baseline of "
                    f"{baseline.duration_seconds:.3f}s"
                ),
            )
        activated = extra_errors > 0 or self._metrics_changed(result, baseline)
        return Classification(
            failure_mode=FailureMode.NO_FAILURE,
            activated=activated,
            reason="workload completed with baseline-equivalent behaviour"
            if not activated
            else "behaviour deviated from the baseline but no failure was observed",
        )

    @staticmethod
    def _metrics_changed(result: TargetRunResult, baseline: TargetRunResult) -> bool:
        """Coarse activation signal: any shared scalar workload metric differs."""
        for key, value in baseline.metrics.items():
            if isinstance(value, (int, float)) and key in result.metrics:
                other = result.metrics[key]
                if isinstance(other, (int, float)) and abs(other - value) > 1e-9:
                    return True
        return False
