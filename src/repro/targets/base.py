"""Target-system abstraction: the applications faults are injected into.

A :class:`TargetSystem` bundles

* the Python source of a small but realistic application module;
* a *workload* that drives the application's public API;
* *invariant checks* that detect silent data corruption after the workload.

The automated integration and testing tool (Section III-B.4) loads the
(possibly mutated) module source, runs the workload, and classifies the
observed behaviour into failure modes; the invariant checks are what
distinguish silent corruption from a clean run.

Subclasses implement :meth:`TargetSystem._build_source` (plus the workload and
invariant hooks); the public :meth:`TargetSystem.build_source` is a concrete
memoizing wrapper, so campaigns that integrate N faults against one target
reuse a single source string instead of rebuilding it per fault.
"""

from __future__ import annotations

import time
import types
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from ..errors import TargetError
from ..rng import WorkloadRNG


@dataclass
class TargetRunResult:
    """Outcome of executing a target's workload against one module version."""

    target: str
    completed: bool
    duration_seconds: float
    metrics: dict[str, Any] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    error_type: str | None = None
    error_message: str | None = None
    detected_errors: int = 0

    @property
    def crashed(self) -> bool:
        return not self.completed and self.error_type is not None

    @property
    def corrupted(self) -> bool:
        return self.completed and bool(self.violations)

    def to_dict(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "completed": self.completed,
            "duration_seconds": self.duration_seconds,
            "metrics": dict(self.metrics),
            "violations": list(self.violations),
            "error_type": self.error_type,
            "error_message": self.error_message,
            "detected_errors": self.detected_errors,
        }


class TargetSystem(ABC):
    """Base class for the applications used as fault-injection targets."""

    #: unique, registry-friendly identifier
    name: str = "abstract"
    #: one-line description used in documentation and reports
    description: str = ""

    def build_source(self) -> str:
        """Return the pristine Python source of the target module (memoized).

        This method is concrete, not abstract: subclasses override
        :meth:`_build_source`, and this wrapper memoizes the result.  Source
        construction is a pure derivation, so it runs once per target
        instance; campaigns that integrate N faults against one target reuse
        the same string instead of rebuilding it per fault.

        Returns:
            The target module's source code, identical on every call.
        """
        cached = getattr(self, "_cached_source", None)
        if cached is None:
            cached = self._build_source()
            self._cached_source = cached
        return cached

    @abstractmethod
    def _build_source(self) -> str:
        """Construct the pristine Python source of the target module.

        Called at most once per instance via :meth:`build_source`; keep it
        pure (no per-call randomness) so the memoized source is stable.
        """

    @abstractmethod
    def run_workload(self, module: types.ModuleType, iterations: int, rng: WorkloadRNG) -> dict[str, Any]:
        """Exercise the module's public API and return workload metrics.

        Implementations must catch *expected* application errors (invalid
        input, declined transactions, ...) and count them under the
        ``"detected_errors"`` key; unexpected exceptions should propagate so
        the harness can classify the run as a crash.  ``rng`` offers only
        ``randint`` and ``choice``, which keeps the sandbox free of numpy.
        """

    @abstractmethod
    def check_invariants(self, module: types.ModuleType, metrics: dict[str, Any]) -> list[str]:
        """Return human-readable descriptions of violated invariants."""

    # -- concrete helpers ---------------------------------------------------------

    def load_module(self, source: str | None = None) -> types.ModuleType:
        """Execute ``source`` (or the pristine source) in a fresh module object."""
        source = source if source is not None else self.build_source()
        module = types.ModuleType(f"target_{self.name}")
        try:
            exec(compile(source, filename=f"<target:{self.name}>", mode="exec"), module.__dict__)
        except Exception as exc:
            raise TargetError(f"target {self.name!r} source failed to load: {exc}") from exc
        return module

    def functions(self) -> list[str]:
        """Names of the public functions the pristine target defines."""
        module = self.load_module()
        return sorted(
            name
            for name, value in vars(module).items()
            if callable(value) and not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
        )

    def execute(
        self,
        source: str | None = None,
        iterations: int = 25,
        seed: int = 0,
    ) -> TargetRunResult:
        """Load, drive, and check one version of the target module."""
        rng = WorkloadRNG(seed, namespace=f"workload/{self.name}")
        started = time.perf_counter()
        try:
            module = self.load_module(source)
        except TargetError as exc:
            return TargetRunResult(
                target=self.name,
                completed=False,
                duration_seconds=time.perf_counter() - started,
                error_type="LoadError",
                error_message=str(exc),
            )
        try:
            metrics = self.run_workload(module, iterations, rng)
        except Exception as exc:  # noqa: BLE001 - the whole point is observing failures
            return TargetRunResult(
                target=self.name,
                completed=False,
                duration_seconds=time.perf_counter() - started,
                error_type=type(exc).__name__,
                error_message=str(exc),
            )
        duration = time.perf_counter() - started
        violations = self.check_invariants(module, metrics)
        return TargetRunResult(
            target=self.name,
            completed=True,
            duration_seconds=duration,
            metrics=metrics,
            violations=violations,
            detected_errors=int(metrics.get("detected_errors", 0)),
        )

    def baseline(self, iterations: int = 25, seed: int = 0) -> TargetRunResult:
        """Run the pristine target; raises if the golden run itself misbehaves."""
        result = self.execute(iterations=iterations, seed=seed)
        if not result.completed:
            raise TargetError(
                f"pristine target {self.name!r} crashed during its baseline run: {result.error_message}"
            )
        if result.violations:
            raise TargetError(
                f"pristine target {self.name!r} violates its own invariants: {result.violations}"
            )
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TargetSystem {self.name!r}>"
