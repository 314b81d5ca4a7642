"""Core datatypes shared across every subsystem.

The pipeline of the paper (Fig. 1) passes a small number of artefacts between
stages:

* the tester's *fault definition* — natural language plus target code
  (:class:`FaultDescription`, :class:`CodeContext`);
* the structured *fault specification* produced by the NLP engine
  (:class:`FaultSpec`, :class:`Entity`, :class:`TriggerSpec`);
* the *generated fault* produced by the LLM (:class:`GeneratedFault`,
  :class:`Patch`);
* tester *feedback* consumed by the RLHF mechanism (:class:`Feedback`);
* the *injection outcome* observed by the automated integration and testing
  tool (:class:`InjectionOutcome`, :class:`FailureMode`).

Keeping these in one module avoids circular imports between subsystems and
gives downstream users a single, documented vocabulary.
"""

from __future__ import annotations

import difflib
import hashlib
import json
from dataclasses import dataclass, field, asdict
from enum import Enum
from typing import Any, Mapping, Sequence


class FaultType(str, Enum):
    """Taxonomy of software fault types the system can describe and inject.

    The taxonomy merges the fault classes named in the paper (race conditions,
    memory leaks, buffer overflow analogues, logic errors, timeouts) with the
    classic G-SWFIT / ODC operator families used by programmable SFI tools.
    """

    EXCEPTION = "exception"
    TIMEOUT = "timeout"
    DELAY = "delay"
    RACE_CONDITION = "race_condition"
    DEADLOCK = "deadlock"
    MEMORY_LEAK = "memory_leak"
    RESOURCE_LEAK = "resource_leak"
    OFF_BY_ONE = "off_by_one"
    WRONG_VALUE = "wrong_value"
    WRONG_CONDITION = "wrong_condition"
    MISSING_CALL = "missing_call"
    MISSING_CHECK = "missing_check"
    MISSING_RETURN = "missing_return"
    WRONG_RETURN = "wrong_return"
    SWALLOWED_EXCEPTION = "swallowed_exception"
    INFINITE_LOOP = "infinite_loop"
    DATA_CORRUPTION = "data_corruption"
    NETWORK_FAILURE = "network_failure"
    DISK_FAILURE = "disk_failure"
    UNKNOWN = "unknown"

    @classmethod
    def concrete(cls) -> list["FaultType"]:
        """All fault types except the UNKNOWN placeholder."""
        return [member for member in cls if member is not cls.UNKNOWN]


class FailureMode(str, Enum):
    """Observed system-level failure mode after activating an injected fault."""

    NO_FAILURE = "no_failure"
    CRASH = "crash"
    HANG = "hang"
    SILENT_DATA_CORRUPTION = "silent_data_corruption"
    ERROR_DETECTED = "error_detected"
    DEGRADED = "degraded"

    @property
    def is_failure(self) -> bool:
        """Whether the mode represents an externally visible failure."""
        return self is not FailureMode.NO_FAILURE


class TriggerKind(str, Enum):
    """When an injected fault activates."""

    ALWAYS = "always"
    CONDITIONAL = "conditional"
    PROBABILISTIC = "probabilistic"
    ON_NTH_CALL = "on_nth_call"


class HandlingStyle(str, Enum):
    """How the generated fault interacts with error handling, per feedback."""

    UNHANDLED = "unhandled"
    LOGGED_ONLY = "logged_only"
    RETRY = "retry"
    RERAISE = "reraise"
    FALLBACK = "fallback"


class PlacementStyle(str, Enum):
    """Where in the target function the fault is placed."""

    BODY_START = "body_start"
    BEFORE_RETURN = "before_return"
    WRAP_BODY = "wrap_body"
    INSIDE_LOOP = "inside_loop"


class EntityLabel(str, Enum):
    """Named-entity labels used by the fault-domain NER."""

    FAULT_KEYWORD = "fault_keyword"
    COMPONENT = "component"
    FUNCTION = "function"
    RESOURCE = "resource"
    CONDITION = "condition"
    ACTION = "action"
    QUANTITY = "quantity"
    EXCEPTION_NAME = "exception_name"


@dataclass(frozen=True)
class Entity:
    """A named entity recognised in the tester's natural-language description."""

    text: str
    label: EntityLabel
    start: int
    end: int

    def to_dict(self) -> dict[str, Any]:
        return {"text": self.text, "label": self.label.value, "start": self.start, "end": self.end}


@dataclass(frozen=True)
class TriggerSpec:
    """Activation condition of a fault.

    ``condition`` holds the raw condition text for CONDITIONAL triggers,
    ``probability`` the activation probability for PROBABILISTIC triggers and
    ``nth_call`` the 1-based call index for ON_NTH_CALL triggers.
    """

    kind: TriggerKind = TriggerKind.ALWAYS
    condition: str | None = None
    probability: float | None = None
    nth_call: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind.value,
            "condition": self.condition,
            "probability": self.probability,
            "nth_call": self.nth_call,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TriggerSpec":
        return cls(
            kind=TriggerKind(data.get("kind", TriggerKind.ALWAYS.value)),
            condition=data.get("condition"),
            probability=data.get("probability"),
            nth_call=data.get("nth_call"),
        )


@dataclass(frozen=True)
class TargetLocation:
    """Where in the codebase the fault should be introduced."""

    module: str | None = None
    function: str | None = None
    class_name: str | None = None
    line: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "module": self.module,
            "function": self.function,
            "class_name": self.class_name,
            "line": self.line,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TargetLocation":
        return cls(
            module=data.get("module"),
            function=data.get("function"),
            class_name=data.get("class_name"),
            line=data.get("line"),
        )


@dataclass
class FaultDescription:
    """The tester's raw fault definition: natural language plus optional code."""

    text: str
    code: str | None = None
    source_path: str | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "text": self.text,
            "code": self.code,
            "source_path": self.source_path,
            "metadata": dict(self.metadata),
        }


@dataclass
class FunctionInfo:
    """Summary of a function discovered by the code analyser."""

    name: str
    lineno: int
    end_lineno: int
    args: list[str] = field(default_factory=list)
    calls: list[str] = field(default_factory=list)
    raises: list[str] = field(default_factory=list)
    has_try: bool = False
    has_loop: bool = False
    has_return: bool = False
    docstring: str | None = None
    class_name: str | None = None

    @property
    def qualified_name(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.name}"
        return self.name

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class CodeContext:
    """Analysed view of the target code supplied alongside the NL description."""

    source: str
    path: str | None = None
    module_name: str | None = None
    functions: list[FunctionInfo] = field(default_factory=list)
    imports: list[str] = field(default_factory=list)
    selected_function: str | None = None

    def function(self, name: str) -> FunctionInfo | None:
        """Return the function matching ``name`` (bare or qualified), if any."""
        for info in self.functions:
            if info.name == name or info.qualified_name == name:
                return info
        return None

    @property
    def selected(self) -> FunctionInfo | None:
        if self.selected_function is None:
            return None
        return self.function(self.selected_function)

    def to_dict(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "path": self.path,
            "module_name": self.module_name,
            "functions": [f.to_dict() for f in self.functions],
            "imports": list(self.imports),
            "selected_function": self.selected_function,
        }


@dataclass
class FaultSpec:
    """Structured fault specification produced by the NLP engine.

    This is the "detailed fault specification" of Section III: the dissected
    and restructured form of the tester's description that the generation model
    consumes.
    """

    fault_type: FaultType = FaultType.UNKNOWN
    target: TargetLocation = field(default_factory=TargetLocation)
    trigger: TriggerSpec = field(default_factory=TriggerSpec)
    handling: HandlingStyle = HandlingStyle.UNHANDLED
    entities: list[Entity] = field(default_factory=list)
    parameters: dict[str, Any] = field(default_factory=dict)
    directives: dict[str, Any] = field(default_factory=dict)
    description: str = ""
    confidence: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "fault_type": self.fault_type.value,
            "target": self.target.to_dict(),
            "trigger": self.trigger.to_dict(),
            "handling": self.handling.value,
            "entities": [e.to_dict() for e in self.entities],
            "parameters": dict(self.parameters),
            "directives": dict(self.directives),
            "description": self.description,
            "confidence": self.confidence,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        entities = [
            Entity(
                text=e["text"],
                label=EntityLabel(e["label"]),
                start=int(e["start"]),
                end=int(e["end"]),
            )
            for e in data.get("entities", [])
        ]
        return cls(
            fault_type=FaultType(data.get("fault_type", FaultType.UNKNOWN.value)),
            target=TargetLocation.from_dict(data.get("target", {})),
            trigger=TriggerSpec.from_dict(data.get("trigger", {})),
            handling=HandlingStyle(data.get("handling", HandlingStyle.UNHANDLED.value)),
            entities=entities,
            parameters=dict(data.get("parameters", {})),
            directives=dict(data.get("directives", {})),
            description=data.get("description", ""),
            confidence=float(data.get("confidence", 0.0)),
        )


@dataclass
class Patch:
    """A source-level change produced by integrating a generated fault."""

    original: str
    mutated: str
    target_path: str | None = None
    function: str | None = None
    lineno: int | None = None
    operator: str | None = None

    @property
    def diff(self) -> str:
        """Unified diff between the original and mutated source.

        ``mutated`` is in normal form (``ast.unparse`` output), so the diff
        starts from the original's cached normal form: it shows the lines the
        fault changed, not the quotes, comments and blank lines that
        normalisation rewrote.  An original that does not parse is diffed as
        it is.
        """
        from .errors import CodeAnalysisError
        from .injection.ast_utils import normalised_source  # repro.injection imports this module

        try:
            original = normalised_source(self.original)
        except CodeAnalysisError:
            original = self.original
        original_name = self.target_path or "original"
        return "".join(
            difflib.unified_diff(
                original.splitlines(keepends=True),
                self.mutated.splitlines(keepends=True),
                fromfile=original_name,
                tofile=f"{original_name} (faulty)",
            )
        )

    @property
    def changed_line_count(self) -> int:
        """Number of added or removed lines in the diff."""
        count = 0
        for line in self.diff.splitlines():
            if line.startswith(("+", "-")) and not line.startswith(("+++", "---")):
                count += 1
        return count

    def to_dict(self) -> dict[str, Any]:
        return {
            "original": self.original,
            "mutated": self.mutated,
            "target_path": self.target_path,
            "function": self.function,
            "lineno": self.lineno,
            "operator": self.operator,
        }


@dataclass
class GeneratedFault:
    """A faulty code snippet produced by the generation model."""

    fault_id: str
    spec: FaultSpec
    code: str
    patch: Patch | None = None
    actions: dict[str, str] = field(default_factory=dict)
    logprob: float = 0.0
    iteration: int = 0
    model_version: str = "untrained"
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def is_integrated(self) -> bool:
        """Whether the fault has already been rendered into a concrete patch."""
        return self.patch is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "fault_id": self.fault_id,
            "spec": self.spec.to_dict(),
            "code": self.code,
            "patch": self.patch.to_dict() if self.patch else None,
            "actions": dict(self.actions),
            "logprob": self.logprob,
            "iteration": self.iteration,
            "model_version": self.model_version,
            "metadata": dict(self.metadata),
        }


@dataclass
class Feedback:
    """Tester feedback on a generated fault, as consumed by the RLHF loop."""

    fault_id: str
    rating: float
    critique: str = ""
    directives: dict[str, Any] = field(default_factory=dict)
    accept: bool = False
    preferred_over: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "fault_id": self.fault_id,
            "rating": self.rating,
            "critique": self.critique,
            "directives": dict(self.directives),
            "accept": self.accept,
            "preferred_over": self.preferred_over,
        }


@dataclass
class InjectionOutcome:
    """Result of integrating a fault and running the target's test workload."""

    fault_id: str
    activated: bool
    failure_mode: FailureMode
    tests_run: int = 0
    tests_failed: int = 0
    duration_seconds: float = 0.0
    error_message: str | None = None
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def exposed_failure(self) -> bool:
        return self.failure_mode.is_failure

    def to_dict(self) -> dict[str, Any]:
        return {
            "fault_id": self.fault_id,
            "activated": self.activated,
            "failure_mode": self.failure_mode.value,
            "tests_run": self.tests_run,
            "tests_failed": self.tests_failed,
            "duration_seconds": self.duration_seconds,
            "error_message": self.error_message,
            "details": dict(self.details),
        }


def stable_fault_id(description: str, code: str | None, salt: str = "") -> str:
    """Derive a deterministic fault identifier from the tester's inputs.

    Deterministic ids make experiment runs reproducible and let feedback
    records reference candidates across process boundaries.
    """
    digest = hashlib.sha256()
    digest.update(description.encode("utf-8"))
    if code:
        digest.update(code.encode("utf-8"))
    if salt:
        digest.update(salt.encode("utf-8"))
    return "fault-" + digest.hexdigest()[:16]


def to_json(obj: Any) -> str:
    """Serialise any library dataclass (with ``to_dict``) to compact JSON."""
    if hasattr(obj, "to_dict"):
        obj = obj.to_dict()
    return json.dumps(obj, sort_keys=True)


def summarise_outcomes(outcomes: Sequence[InjectionOutcome]) -> dict[str, Any]:
    """Aggregate a list of injection outcomes into campaign-level statistics."""
    total = len(outcomes)
    by_mode: dict[str, int] = {mode.value: 0 for mode in FailureMode}
    activated = 0
    for outcome in outcomes:
        by_mode[outcome.failure_mode.value] += 1
        if outcome.activated:
            activated += 1
    failures = sum(1 for o in outcomes if o.exposed_failure)
    return {
        "total": total,
        "activated": activated,
        "activation_rate": activated / total if total else 0.0,
        "failures": failures,
        "failure_rate": failures / total if total else 0.0,
        "by_failure_mode": by_mode,
    }
