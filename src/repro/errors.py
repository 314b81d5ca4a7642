"""Exception hierarchy for the neural fault injection library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class at the pipeline boundary.  Subsystem-specific
errors carry enough context (subsystem, offending artefact) to be actionable
in reports without needing a traceback.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SpecificationError(ReproError):
    """A natural-language fault description could not be turned into a spec."""

    def __init__(self, message: str, description: str | None = None) -> None:
        super().__init__(message)
        self.description = description


class CodeAnalysisError(ReproError):
    """The supplied target code could not be parsed or analysed."""

    def __init__(self, message: str, source_path: str | None = None) -> None:
        super().__init__(message)
        self.source_path = source_path


class GenerationError(ReproError):
    """The model failed to produce a valid faulty code snippet."""


class GrammarError(GenerationError):
    """A grammar action sequence could not be rendered into code."""


class ModelError(ReproError):
    """A neural model was used with inconsistent dimensions or state."""


class CheckpointError(ModelError):
    """A model checkpoint could not be saved or restored."""


class FeedbackError(ReproError):
    """Tester feedback was malformed or referenced an unknown candidate."""


class RewardModelError(ReproError):
    """The reward model was queried before training or with bad features."""


class InjectionError(ReproError):
    """A fault operator could not be applied to the target code."""

    def __init__(self, message: str, operator: str | None = None) -> None:
        super().__init__(message)
        self.operator = operator


class NoInjectionPointError(InjectionError):
    """No suitable location exists in the target code for the requested fault."""


class IntegrationError(ReproError):
    """Generated faulty code could not be integrated into the codebase."""


class SandboxError(ReproError):
    """The sandboxed workspace or test execution environment failed."""


class ExperimentError(ReproError):
    """A fault-injection experiment could not be executed or observed."""


class DatasetError(ReproError):
    """Dataset generation, serialisation, or splitting failed."""


class TargetError(ReproError):
    """A target system misbehaved outside of an injected fault."""


class RequestError(ReproError):
    """A typed service request failed validation at construction time."""


class EngineClosedError(ReproError):
    """A request was submitted to a :class:`FaultInjectionEngine` after close()."""


class DeadlineExceededError(ReproError):
    """A request's ``deadline_seconds`` budget elapsed before it completed.

    Surfaces as a structured ``ErrorInfo(kind="timeout")`` envelope and as
    HTTP 504 at the serving front-end.
    """


class RequestCancelledError(ReproError):
    """A queued request was cancelled via :meth:`ResponseHandle.cancel`."""


class CircuitOpenError(ReproError):
    """A circuit breaker is open: the protected dependency is failing fast.

    Carries the breaker key so clients and logs can tell which (target,
    mode) execution plane tripped.  Surfaces as ``ErrorInfo(kind=
    "unavailable")`` / HTTP 503 with a ``Retry-After`` hint.
    """

    def __init__(self, message: str, key: str | None = None) -> None:
        super().__init__(message)
        self.key = key


class AdmissionError(ReproError):
    """The serving front-end shed a request because the queue is saturated.

    Surfaces as ``ErrorInfo(kind="overloaded")`` / HTTP 429 with a
    ``Retry-After`` hint; the request never reached the engine.
    """
