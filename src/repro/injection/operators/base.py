"""Fault operator framework.

A :class:`FaultOperator` knows how to (1) enumerate the locations in a piece of
Python code where it can be applied (:meth:`find_points`), (2) apply itself at
one such location to produce mutated source (:meth:`apply`), and (3) describe
the injected fault in natural language (:meth:`describe`).  The third ability
is what lets the injection engine double as the *dataset generator* of
Section IV-1: every injected fault yields an (NL description, original code,
faulty code) training triple.

Points are found on the raw source, so their ``lineno`` is the raw line.
Applying one mutates a private parse of the target function only (see
:func:`~repro.injection.ast_utils.edit_function`): the operator changes that
node and may add a top-level import or helper, and the mutated module is the
source's normal form with the function spliced in.  Operators find their node
by ``node_index``, which the normal form keeps.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from ...errors import InjectionError, NoInjectionPointError
from ...execution.cache import get_cache
from ...rng import SeededRNG
from ...types import FaultType, Patch
from .. import ast_utils

#: Points per (operator, source); 30 operators scan each source, hence the bound.
POINTS_CACHE = get_cache("injection-points", max_entries=1024)


@dataclass(frozen=True)
class InjectionPoint:
    """A concrete location where an operator can inject a fault."""

    operator: str
    function: str
    lineno: int
    node_index: int
    detail: str = ""
    class_name: str | None = None

    @property
    def qualified_function(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.function}"
        return self.function

    def to_dict(self) -> dict[str, Any]:
        return {
            "operator": self.operator,
            "function": self.function,
            "lineno": self.lineno,
            "node_index": self.node_index,
            "detail": self.detail,
            "class_name": self.class_name,
        }


@dataclass
class AppliedFault:
    """The result of applying a fault operator: a patch plus its description."""

    operator: str
    fault_type: FaultType
    point: InjectionPoint
    patch: Patch
    description: str
    #: how ``patch.mutated`` was built; not serialised
    edit: ast_utils.FunctionEdit = field(repr=False, compare=False)
    parameters: dict[str, Any] = field(default_factory=dict)

    @property
    def function_source(self) -> str:
        """The faulty function's text: ``function_source(patch.mutated, point.function)``."""
        return self.edit.function_source()

    def to_dict(self) -> dict[str, Any]:
        return {
            "operator": self.operator,
            "fault_type": self.fault_type.value,
            "point": self.point.to_dict(),
            "patch": self.patch.to_dict(),
            "description": self.description,
            "parameters": dict(self.parameters),
        }


class FaultOperator(ABC):
    """Base class for AST-level software fault operators."""

    #: unique operator identifier, e.g. ``"negate_condition"``
    name: str = "abstract"
    #: the fault-type category the operator realises
    fault_type: FaultType = FaultType.UNKNOWN
    #: one-line human summary used in documentation and reports
    summary: str = ""

    def find_points(self, source: str) -> list[InjectionPoint]:
        """Enumerate every location in ``source`` where the operator applies.

        Scans are memoized per (operator, source); each call gets a fresh list.
        """
        key = POINTS_CACHE.key_for(self.name, source)
        return list(POINTS_CACHE.get_or_compute(key, lambda: self._scan(source)))

    def _scan(self, source: str) -> tuple[InjectionPoint, ...]:
        tree = ast_utils.parse_module(source, mutable=False)
        return tuple(
            point
            for function, class_name in ast_utils.iter_functions(tree)
            for point in self._find_in_function(function, class_name)
        )

    @abstractmethod
    def _find_in_function(
        self, function: ast_utils.FunctionNode, class_name: str | None
    ) -> list[InjectionPoint]:
        """Enumerate injection points inside a single function."""

    @abstractmethod
    def _mutate(
        self,
        tree: ast.Module,
        function: ast_utils.FunctionNode,
        point: InjectionPoint,
        rng: SeededRNG,
        parameters: dict[str, Any],
    ) -> None:
        """Mutate ``function`` (part of ``tree``) in place at ``point``."""

    def describe(self, point: InjectionPoint, parameters: dict[str, Any]) -> str:
        """Natural-language description of the fault injected at ``point``."""
        summary = self.summary or self.name.replace("_", " ")
        return f"Introduce a {summary} in the {point.qualified_function} function."

    def apply(
        self,
        source: str,
        point: InjectionPoint,
        rng: SeededRNG | None = None,
        parameters: dict[str, Any] | None = None,
        target_path: str | None = None,
    ) -> AppliedFault:
        """Apply the operator at ``point`` and return the resulting fault."""
        if point.operator != self.name:
            raise InjectionError(
                f"point was produced by operator {point.operator!r}", operator=self.name
            )
        rng = rng or SeededRNG(0, namespace=self.name)
        parameters = dict(parameters or {})
        edit = ast_utils.edit_function(
            source,
            point.function,
            point.class_name,
            lambda tree, function: self._mutate(tree, function, point, rng, parameters),
            path=target_path,
        )
        if edit is None:
            raise NoInjectionPointError(
                f"function {point.qualified_function!r} not present in source", operator=self.name
            )
        mutated = edit.module
        if mutated == source or mutated == ast_utils.normalised_source(source):
            raise InjectionError(
                f"operator {self.name} produced no change at {point.qualified_function}:{point.lineno}",
                operator=self.name,
            )
        patch = Patch(
            original=source,
            mutated=mutated,
            target_path=target_path,
            function=point.qualified_function,
            lineno=point.lineno,
            operator=self.name,
        )
        return AppliedFault(
            operator=self.name,
            fault_type=self.fault_type,
            point=point,
            patch=patch,
            description=self.describe(point, parameters),
            edit=edit,
            parameters=parameters,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} fault_type={self.fault_type.value!r}>"
