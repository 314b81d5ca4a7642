"""Fault-load specification DSL.

A *fault load* is the programmable description of which faults to inject into
which parts of a system — the core abstraction of ProFIPy-style tools.  Each
:class:`FaultLoadEntry` names an operator, a function pattern it applies to,
optional operator parameters, and how many injection points to use.  Fault
loads serialise to and from plain dictionaries so campaigns can be stored next
to experiment results.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ..errors import ConfigurationError
from .operators import InjectionPoint, get_operator


@dataclass
class FaultLoadEntry:
    """One programmable fault: operator + target pattern + parameters."""

    operator: str
    function_pattern: str = "*"
    parameters: dict[str, Any] = field(default_factory=dict)
    max_points: int = 1
    label: str | None = None

    def __post_init__(self) -> None:
        # Resolves eagerly so misspelled operator names fail at definition time.
        get_operator(self.operator)
        if self.max_points <= 0:
            raise ConfigurationError("max_points must be positive")

    def matches(self, point: InjectionPoint) -> bool:
        """Whether an injection point falls under this entry's function pattern."""
        return fnmatch.fnmatch(point.qualified_function, self.function_pattern) or fnmatch.fnmatch(
            point.function, self.function_pattern
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "operator": self.operator,
            "function_pattern": self.function_pattern,
            "parameters": dict(self.parameters),
            "max_points": self.max_points,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultLoadEntry":
        return cls(
            operator=data["operator"],
            function_pattern=data.get("function_pattern", "*"),
            parameters=dict(data.get("parameters", {})),
            max_points=int(data.get("max_points", 1)),
            label=data.get("label"),
        )


@dataclass
class FaultLoad:
    """An ordered collection of fault-load entries."""

    entries: list[FaultLoadEntry] = field(default_factory=list)
    name: str = "faultload"

    def add(
        self,
        operator: str,
        function_pattern: str = "*",
        parameters: Mapping[str, Any] | None = None,
        max_points: int = 1,
        label: str | None = None,
    ) -> "FaultLoad":
        """Append an entry and return ``self`` for fluent chaining."""
        self.entries.append(
            FaultLoadEntry(
                operator=operator,
                function_pattern=function_pattern,
                parameters=dict(parameters or {}),
                max_points=max_points,
                label=label,
            )
        )
        return self

    def __iter__(self) -> Iterator[FaultLoadEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def operators(self) -> list[str]:
        """Distinct operator names used by the fault load."""
        seen: list[str] = []
        for entry in self.entries:
            if entry.operator not in seen:
                seen.append(entry.operator)
        return seen

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "entries": [entry.to_dict() for entry in self.entries]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultLoad":
        return cls(
            name=data.get("name", "faultload"),
            entries=[FaultLoadEntry.from_dict(entry) for entry in data.get("entries", [])],
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultLoad":
        return cls.from_dict(json.loads(text))
