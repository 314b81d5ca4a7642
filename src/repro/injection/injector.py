"""Programmable fault injector facade (the ProFIPy substitute of Section IV-1).

Given target source code and a :class:`~repro.injection.faultload.FaultLoad`,
the injector enumerates matching injection points, applies the requested
operators, and returns :class:`AppliedFault` records containing the patch, the
operator parameters, and a natural-language description of the injected fault.
Those records are both the unit of execution for injection campaigns and the
training triples for the LLM's supervised fine-tuning dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..errors import NoInjectionPointError
from ..rng import SeededRNG
from ..types import FaultType
from .faultload import FaultLoad
from .locator import InjectionPointLocator
from .operators import AppliedFault, FaultOperator, InjectionPoint, all_operators, get_operator


@dataclass
class InjectionPlan:
    """The concrete set of (operator, point, parameters) tuples to execute."""

    items: list[tuple[str, InjectionPoint, dict[str, Any]]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)


class ProgrammableInjector:
    """Applies programmable fault loads to Python source code."""

    def __init__(
        self,
        operators: Iterable[FaultOperator] | None = None,
        rng: SeededRNG | None = None,
    ) -> None:
        self._operators = list(operators) if operators is not None else all_operators()
        self._locator = InjectionPointLocator(self._operators)
        self._rng = rng or SeededRNG(0, namespace="injector")

    @property
    def locator(self) -> InjectionPointLocator:
        return self._locator

    def plan(self, source: str, faultload: FaultLoad) -> InjectionPlan:
        """Resolve a fault load against concrete injection points in ``source``."""
        plan = InjectionPlan()
        for entry in faultload:
            operator = get_operator(entry.operator)
            matching = [point for point in operator.find_points(source) if entry.matches(point)]
            for point in matching[: entry.max_points]:
                plan.items.append((entry.operator, point, dict(entry.parameters)))
        return plan

    def execute(self, source: str, plan: InjectionPlan, target_path: str | None = None) -> list[AppliedFault]:
        """Apply every planned fault independently against the pristine source."""
        applied: list[AppliedFault] = []
        for operator_name, point, parameters in plan.items:
            operator = get_operator(operator_name)
            applied.append(
                operator.apply(
                    source,
                    point,
                    rng=self._rng.fork(f"{operator_name}:{point.lineno}"),
                    parameters=parameters,
                    target_path=target_path,
                )
            )
        return applied

    def inject(self, source: str, faultload: FaultLoad, target_path: str | None = None) -> list[AppliedFault]:
        """Plan and execute a fault load in one call."""
        return self.execute(source, self.plan(source, faultload), target_path=target_path)

    def inject_fault_type(
        self,
        source: str,
        fault_type: FaultType,
        function_name: str | None = None,
        parameters: dict[str, Any] | None = None,
        target_path: str | None = None,
    ) -> AppliedFault:
        """Inject a single fault of a given type at the first applicable point.

        This is the entry point used by the generation grammar when a fault
        specification names a fault type and a target function but leaves the
        concrete mutation to the tool.
        """
        report = self._locator.scan_for_fault_type(source, fault_type)
        points = report.points
        if function_name:
            points = [
                point
                for point in points
                if point.function == function_name or point.qualified_function == function_name
            ]
        if not points:
            raise NoInjectionPointError(
                f"no injection point for fault type {fault_type.value!r}"
                + (f" in function {function_name!r}" if function_name else "")
            )
        point = points[0]
        operator = get_operator(point.operator)
        return operator.apply(
            source,
            point,
            rng=self._rng.fork(f"{fault_type.value}:{point.lineno}"),
            parameters=parameters,
            target_path=target_path,
        )
