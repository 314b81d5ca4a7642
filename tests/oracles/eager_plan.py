"""The eager random plan: the reference for :meth:`RandomInjector.plan`.

Production applies injection points in a seeded random order and stops once
``budget`` of them apply.  This module keeps the plan that shortcut must
reproduce: build one mutant per injection point, shuffle the mutants with the
same seeded generator, and keep the first ``budget``.  The two agree whenever
every point applies; when a point raises :class:`InjectionError`, the eager
plan shuffles one mutant fewer, so its selection differs from the lazy one.
"""

from __future__ import annotations

from repro.baselines import BaselineCampaignPlan
from repro.errors import InjectionError
from repro.injection import InjectionPointLocator, get_operator
from repro.injection.operators import AppliedFault
from repro.rng import SeededRNG


def exhaustive_mutants(source: str, rng: SeededRNG, max_mutants: int | None = None) -> list[AppliedFault]:
    """One mutant per discoverable injection point, skipping points that fail."""
    mutants: list[AppliedFault] = []
    for index, point in enumerate(InjectionPointLocator().scan(source).points):
        if max_mutants is not None and len(mutants) >= max_mutants:
            break
        try:
            mutants.append(get_operator(point.operator).apply(source, point, rng=rng.fork(f"mutant:{index}")))
        except InjectionError:
            continue
    return mutants


def eager_random_plan(source: str, budget: int = 20) -> BaselineCampaignPlan:
    """The random baseline's plan built from every mutant of ``source``."""
    rng = SeededRNG(59, namespace="random-baseline")
    mutants = rng.shuffle(exhaustive_mutants(source, rng.fork("injector")))
    faults = mutants[:budget]
    return BaselineCampaignPlan(technique="random", faults=faults, configuration_actions=len(faults))
