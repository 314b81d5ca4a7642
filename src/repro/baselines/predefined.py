"""The conventional baseline: fault injection from a predefined fault model.

This is the approach the paper argues against in Section II: a fixed library
of fault operators (a G-SWFIT-style fault model) applied wherever the code
happens to offer a matching location.  The tester cannot express *scenarios*
("a timeout in the payment step that is retried twice and then gives up") —
only pick operators and locations — which is exactly the coverage and
customisation gap the comparative benchmark quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import InjectionError
from ..injection import InjectionPointLocator
from ..injection.operators import AppliedFault, get_operator
from ..rng import SeededRNG
from ..types import FaultSpec, FaultType, HandlingStyle, TriggerKind

#: The classic predefined fault model: the operator families reported by
#: field studies of representative software faults (missing constructs, wrong
#: values, wrong conditions), without scenario-level faults such as timeouts of
#: specific dependencies, intermittent triggers, or tailored handling.
PREDEFINED_FAULT_MODEL: tuple[str, ...] = (
    "remove_if_guard",
    "negate_condition",
    "remove_call",
    "wrong_argument",
    "wrong_value_assignment",
    "remove_assignment",
    "wrong_return_value",
    "remove_return",
    "off_by_one",
    "swallow_exception",
)

#: Fault types the predefined model can express (derived from its operators).
PREDEFINED_FAULT_TYPES: frozenset[FaultType] = frozenset(
    get_operator(name).fault_type for name in PREDEFINED_FAULT_MODEL
)


@dataclass
class BaselineCampaignPlan:
    """The faults a baseline technique selected for one target."""

    technique: str
    faults: list[AppliedFault] = field(default_factory=list)
    configuration_actions: int = 0

    def __len__(self) -> int:
        return len(self.faults)


class PredefinedModelInjector:
    """Applies the predefined fault model exhaustively (or up to a budget)."""

    technique_name = "predefined-model"

    def __init__(self, rng: SeededRNG | None = None) -> None:
        self._rng = rng or SeededRNG(53, namespace="predefined")
        self._operators = [get_operator(name) for name in PREDEFINED_FAULT_MODEL]
        self._locator = InjectionPointLocator(self._operators)

    def plan(self, source: str, budget: int | None = None) -> BaselineCampaignPlan:
        """Select up to ``budget`` faults by sweeping the predefined operators."""
        plan = BaselineCampaignPlan(technique=self.technique_name)
        points = self._locator.scan(source).points
        points = self._rng.shuffle(points)
        for point in points:
            if budget is not None and len(plan.faults) >= budget:
                break
            operator = get_operator(point.operator)
            try:
                applied = operator.apply(source, point, rng=self._rng.fork(f"{point.operator}:{point.lineno}"))
            except Exception:
                continue
            plan.faults.append(applied)
            # Each fault requires the tester to pick an operator and a location:
            # two configuration actions in the effort model.
            plan.configuration_actions += 2
        return plan

    def can_express(self, spec: FaultSpec) -> bool:
        """Whether the predefined model can realise the *scenario* a spec asks for.

        The predefined model only supports always-on, unhandled structural
        faults drawn from its operator list; scenario-level requirements
        (probabilistic or call-count triggers, retry/fallback handling,
        timeout/network/leak semantics) are outside the model.
        """
        if spec.fault_type not in PREDEFINED_FAULT_TYPES:
            return False
        if spec.trigger.kind is not TriggerKind.ALWAYS:
            return False
        if spec.handling is not HandlingStyle.UNHANDLED:
            return False
        if spec.directives.get("wants_retry") or spec.directives.get("wants_fallback"):
            return False
        return True


class RandomInjector:
    """Uninformed baseline: random operator at a random location."""

    technique_name = "random"

    def __init__(self, rng: SeededRNG | None = None) -> None:
        self._rng = rng or SeededRNG(59, namespace="random-baseline")
        self._mutant_rng = self._rng.fork("injector")
        self._locator = InjectionPointLocator()

    def plan(self, source: str, budget: int = 20) -> BaselineCampaignPlan:
        """Apply points in a seeded random order until ``budget`` of them apply.

        Whenever every point applies, this equals shuffling one mutant per
        point and keeping the first ``budget``; a point that raises
        :class:`InjectionError` is skipped for the next one in the order.
        """
        plan = BaselineCampaignPlan(technique=self.technique_name)
        points = self._locator.scan(source).points
        for index in self._rng.generator.permutation(len(points)).tolist():
            if len(plan.faults) >= budget:
                break
            point, rng = points[index], self._mutant_rng.fork(f"mutant:{index}")
            try:
                plan.faults.append(get_operator(point.operator).apply(source, point, rng=rng))
            except InjectionError:
                continue
        plan.configuration_actions = len(plan.faults)
        return plan

    def can_express(self, spec: FaultSpec) -> bool:
        """Random injection targets nothing in particular; it never *expresses* a scenario."""
        return False
