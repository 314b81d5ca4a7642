"""Injection campaigns and the neural-vs-conventional comparison.

:class:`CampaignOrchestrator` drives a whole list of tester scenarios against a
target system with the neural pipeline, and runs the conventional baselines
against the same target, producing the coverage / effectiveness / efficiency
comparison the paper promises as future validation (Section V).

Fault *generation* runs as one batched forward pass per technique
(:meth:`~repro.api.FaultInjectionEngine.generate_faults`); fault *execution* —
the expensive sandbox runs — is submitted as one batch per technique through
:meth:`~repro.integration.ExperimentRunner.run_many` on the engine's
per-target runner, so independent experiments run concurrently while reports
keep the deterministic, seed-stable ordering of the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..api.engine import FaultInjectionEngine
from ..baselines import ManualEffortModel, PredefinedModelInjector, RandomInjector
from ..baselines.predefined import PREDEFINED_FAULT_TYPES
from ..eval import (
    CoverageReport,
    EffectivenessReport,
    baseline_coverage,
    compare_effort,
    effectiveness,
    neural_coverage,
)
from ..integration import CampaignReport
from ..targets import TargetSystem, get_target
from ..types import CodeContext, FaultSpec
from .pipeline import NeuralFaultInjector

#: One scenario processed by the NLP engine: (spec, code context).
DefinedScenario = tuple[FaultSpec, CodeContext | None]


@dataclass
class TechniqueResult:
    """Everything measured for one technique on one target."""

    technique: str
    coverage: CoverageReport
    effectiveness: EffectivenessReport
    campaign: CampaignReport
    effort_minutes: float
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "technique": self.technique,
            "coverage": self.coverage.to_dict(),
            "effectiveness": self.effectiveness.to_dict(),
            "campaign": self.campaign.summary(),
            "effort_minutes": round(self.effort_minutes, 2),
            "extra": dict(self.extra),
        }


@dataclass
class ComparisonResult:
    """Side-by-side comparison of the neural technique and the baselines."""

    target: str
    techniques: dict[str, TechniqueResult] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"target": self.target, "techniques": {name: result.to_dict() for name, result in self.techniques.items()}}

    def summary_rows(self) -> list[dict[str, Any]]:
        """Flat rows (one per technique) for table rendering in benchmarks."""
        rows = []
        for name, result in self.techniques.items():
            rows.append(
                {
                    "technique": name,
                    "scenario_coverage": round(result.coverage.scenario_coverage, 3),
                    "fault_type_coverage": round(result.coverage.fault_type_coverage, 3),
                    "failure_exposure_rate": round(result.effectiveness.failure_exposure_rate, 3),
                    "distinct_failure_modes": result.effectiveness.distinct_failure_modes,
                    "effort_minutes": round(result.effort_minutes, 1),
                    "faults_executed": result.effectiveness.total,
                }
            )
        return rows


class CampaignOrchestrator:
    """Runs neural and baseline campaigns over one target system.

    A thin adapter over :class:`~repro.api.FaultInjectionEngine`: it accepts
    either an engine or the legacy :class:`NeuralFaultInjector` façade (whose
    engine it unwraps), and drives campaigns through the engine's shared
    stack — NLP caches, batched generation, and the per-target runner on
    the engine's one sandbox runner, which the baselines share too.
    :class:`~repro.api.CampaignRequest` submitted to an engine routes here.
    """

    def __init__(
        self,
        pipeline: NeuralFaultInjector | FaultInjectionEngine,
        target: TargetSystem | str,
        mode: str | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.target = get_target(target) if isinstance(target, str) else target
        self.mode = mode if mode is not None else pipeline.config.execution.default_mode
        self._effort_model = ManualEffortModel()

    @property
    def engine(self) -> FaultInjectionEngine:
        """The engine whose shared stack the campaign drives."""
        if isinstance(self.pipeline, NeuralFaultInjector):
            return self.pipeline.engine
        return self.pipeline

    # -- scenario definition ------------------------------------------------------------

    def define_scenarios(self, scenarios: Sequence[str]) -> list[DefinedScenario]:
        """Run every scenario through fault definition + NLP processing once.

        :meth:`compare` extracts the specs a single time and shares them with
        all three techniques instead of re-processing the scenario list per
        technique.
        """
        source = self.target.build_source()
        return [self.pipeline.define_fault(scenario, code=source) for scenario in scenarios]

    # -- neural -----------------------------------------------------------------------

    def run_neural(
        self,
        scenarios: list[str],
        feedback_rounds: float = 1.0,
        defined: list[DefinedScenario] | None = None,
    ) -> TechniqueResult:
        """Run every scenario through the neural pipeline and test the results."""
        runner = self.pipeline._runner_for(self.target)
        defined = defined if defined is not None else self.define_scenarios(scenarios)
        prompts = [self.pipeline.build_prompt(spec, context) for spec, context in defined]
        candidates = self.pipeline.generate_faults(prompts)
        specs: list[FaultSpec] = [spec for spec, _context in defined]
        templates = [candidate.decisions.template for candidate in candidates]
        faults = [candidate.fault for candidate in candidates]
        batch = runner.run_many(faults, mode=self.mode)
        campaign = CampaignReport(name=f"neural-{self.target.name}")
        campaign.add_batch(batch)
        coverage = neural_coverage(specs, templates)
        effect = effectiveness(campaign.outcomes, technique="neural")
        effort = self._effort_model.neural(len(scenarios), feedback_rounds_per_scenario=feedback_rounds)
        return TechniqueResult(
            technique="neural",
            coverage=coverage,
            effectiveness=effect,
            campaign=campaign,
            effort_minutes=effort.minutes,
            extra={"specs": [spec.fault_type.value for spec in specs]},
        )

    # -- baselines ----------------------------------------------------------------------

    def run_predefined(
        self,
        scenarios: list[str],
        budget: int | None = None,
        defined: list[DefinedScenario] | None = None,
    ) -> TechniqueResult:
        """Run the conventional predefined-fault-model baseline."""
        injector = PredefinedModelInjector()
        source = self.target.build_source()
        defined = defined if defined is not None else self.define_scenarios(scenarios)
        specs = [spec for spec, _context in defined]
        plan = injector.plan(source, budget=budget or len(scenarios) * 2)
        batch = self.pipeline._runner_for(self.target).run_many(plan.faults, mode=self.mode)
        campaign = CampaignReport(name=f"predefined-{self.target.name}")
        campaign.add_batch(batch)
        coverage = baseline_coverage(specs, injector.can_express, PREDEFINED_FAULT_TYPES, technique="predefined-model")
        effect = effectiveness(campaign.outcomes, technique="predefined-model")
        expressible = coverage.scenario_coverage
        effort = self._effort_model.conventional(len(scenarios), expressible_fraction=expressible)
        return TechniqueResult(
            technique="predefined-model",
            coverage=coverage,
            effectiveness=effect,
            campaign=campaign,
            effort_minutes=effort.minutes,
            extra={"planned_faults": len(plan.faults)},
        )

    def run_random(
        self,
        scenarios: list[str],
        budget: int | None = None,
        defined: list[DefinedScenario] | None = None,
    ) -> TechniqueResult:
        """Run the uninformed random-mutation baseline."""
        injector = RandomInjector()
        source = self.target.build_source()
        defined = defined if defined is not None else self.define_scenarios(scenarios)
        specs = [spec for spec, _context in defined]
        plan = injector.plan(source, budget=budget or len(scenarios) * 2)
        batch = self.pipeline._runner_for(self.target).run_many(plan.faults, mode=self.mode)
        campaign = CampaignReport(name=f"random-{self.target.name}")
        campaign.add_batch(batch)
        coverage = baseline_coverage(specs, injector.can_express, set(), technique="random")
        coverage.covered_fault_types = {fault.fault_type for fault in plan.faults}
        effect = effectiveness(campaign.outcomes, technique="random")
        effort = self._effort_model.conventional(len(scenarios), expressible_fraction=0.0)
        return TechniqueResult(
            technique="random",
            coverage=coverage,
            effectiveness=effect,
            campaign=campaign,
            effort_minutes=effort.minutes,
            extra={"planned_faults": len(plan.faults)},
        )

    # -- comparison ---------------------------------------------------------------------

    def compare(self, scenarios: list[str], budget: int | None = None) -> ComparisonResult:
        """Run all three techniques on the same scenarios and target.

        The scenario list is processed by the NLP engine exactly once and the
        resulting specs are shared across the techniques.
        """
        defined = self.define_scenarios(scenarios)
        result = ComparisonResult(target=self.target.name)
        result.techniques["neural"] = self.run_neural(scenarios, defined=defined)
        result.techniques["predefined-model"] = self.run_predefined(scenarios, budget=budget, defined=defined)
        result.techniques["random"] = self.run_random(scenarios, budget=budget, defined=defined)
        return result

    def efficiency_comparison(self, scenarios: list[str], defined: list[DefinedScenario] | None = None) -> dict[str, Any]:
        """Manual-effort comparison matching the paper's efficiency claim."""
        injector = PredefinedModelInjector()
        defined = defined if defined is not None else self.define_scenarios(scenarios)
        specs = [spec for spec, _context in defined]
        expressible = sum(1 for spec in specs if injector.can_express(spec)) / len(specs) if specs else 0.0
        return compare_effort(len(scenarios), expressible_fraction=expressible).to_dict()
