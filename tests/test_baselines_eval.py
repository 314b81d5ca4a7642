"""Tests for the baseline techniques and the evaluation metrics."""

from __future__ import annotations

import pytest

from repro.baselines import (
    EffortAssumptions,
    ManualEffortModel,
    PREDEFINED_FAULT_MODEL,
    PredefinedModelInjector,
    RandomInjector,
)
from repro.errors import InjectionError
from repro.eval import (
    AlignmentSeries,
    TimingCollector,
    alignment_score,
    baseline_coverage,
    bootstrap_confidence_interval,
    compare_effort,
    decision_accuracy,
    edit_similarity,
    effectiveness,
    mean,
    neural_coverage,
    relative_change,
    stddev,
    syntactic_validity,
    token_bleu,
    token_jaccard,
)
from repro.injection import FaultOperator, InjectionPointLocator, get_operator
from repro.llm import reference_decisions
from repro.rng import SeededRNG
from repro.targets import get_target, target_names
from repro.types import FailureMode, FaultType, InjectionOutcome

from oracles.eager_plan import eager_random_plan, exhaustive_mutants


class TestPredefinedModelInjector:
    def test_plan_uses_only_model_operators(self, sample_module):
        plan = PredefinedModelInjector().plan(sample_module, budget=10)
        assert plan.faults
        assert all(fault.operator in PREDEFINED_FAULT_MODEL for fault in plan.faults)
        assert plan.configuration_actions == 2 * len(plan.faults)

    def test_can_express_structural_always_on_faults(self, extractor, sample_module):
        injector = PredefinedModelInjector()
        spec = extractor.extract_from_text(
            "negate the branch condition in the validate function", sample_module
        )
        assert injector.can_express(spec)

    @pytest.mark.parametrize(
        "text",
        [
            "simulate a timeout in the payment call",
            "introduce a race condition between two workers",
            "make the call fail 30% of the time",
            "a timeout occurs and a retry mechanism recovers it",
            "introduce a memory leak in the cache",
        ],
    )
    def test_cannot_express_scenario_faults(self, extractor, text):
        assert not PredefinedModelInjector().can_express(extractor.extract_from_text(text))

    def test_random_injector_expresses_nothing(self, extractor, sample_module):
        injector = RandomInjector()
        spec = extractor.extract_from_text("negate the condition in validate", sample_module)
        assert not injector.can_express(spec)
        plan = injector.plan(sample_module, budget=5)
        assert len(plan.faults) == 5


class TestRandomInjector:
    """The lazy random plan against the eager oracle (``tests/oracles/eager_plan.py``)."""

    @pytest.mark.parametrize("target", target_names())
    def test_lazy_plan_equals_the_eager_oracle(self, target):
        source = get_target(target).build_source()
        eager = eager_random_plan(source, budget=20)
        for budget in (1, 4, 6, 16, 20):
            lazy = RandomInjector().plan(source, budget=budget)
            assert [f.to_dict() for f in lazy.faults] == [f.to_dict() for f in eager.faults[:budget]]
            assert lazy.configuration_actions == budget

    def test_a_point_that_fails_to_apply_is_skipped(self, monkeypatch):
        # The one case where lazy and eager differ: the eager plan shuffles
        # one mutant fewer per failing point, the lazy plan takes the next point.
        source = get_target("bank").build_source()
        points = InjectionPointLocator().scan(source).points
        order = SeededRNG(59, namespace="random-baseline").generator.permutation(len(points))
        broken = get_operator(points[order[0]].operator)

        def refuse(*_args, **_kwargs):
            raise InjectionError("refused", operator=broken.name)

        # Patch the class: undoing an instance patch would leave a bound
        # method behind on the registry's singleton.
        monkeypatch.setattr(type(broken), "apply", refuse)
        plan = RandomInjector().plan(source, budget=6)
        expected = [points[i] for i in order if points[i].operator != broken.name][:6]
        assert [fault.point for fault in plan.faults] == expected
        assert plan.configuration_actions == 6

    def test_plan_builds_only_the_mutants_it_keeps(self, monkeypatch):
        calls = []
        apply = FaultOperator.apply

        def counting(self, *args, **kwargs):
            calls.append(self.name)
            return apply(self, *args, **kwargs)

        monkeypatch.setattr(FaultOperator, "apply", counting)
        plan = RandomInjector().plan(get_target("bank").build_source(), budget=6)
        assert len(plan.faults) == len(calls) == 6

    def test_exhaustive_mutants_all_differ_from_original(self, sample_module):
        mutants = exhaustive_mutants(sample_module, SeededRNG(0, namespace="injector"), max_mutants=25)
        assert len(mutants) == 25
        assert all(mutant.patch.mutated != sample_module for mutant in mutants)

    def test_exhaustive_mutants_respects_budget(self, sample_module):
        rng = SeededRNG(0, namespace="injector")
        assert len(exhaustive_mutants(sample_module, rng, max_mutants=5)) == 5


class TestManualEffortModel:
    def test_neural_effort_scales_with_scenarios(self):
        model = ManualEffortModel()
        assert model.neural(10).minutes > model.neural(5).minutes

    def test_conventional_effort_grows_when_less_expressible(self):
        model = ManualEffortModel()
        mostly = model.conventional(10, expressible_fraction=0.9)
        barely = model.conventional(10, expressible_fraction=0.1)
        assert barely.minutes > mostly.minutes

    def test_neural_is_faster_under_default_assumptions(self):
        comparison = compare_effort(scenarios=12, expressible_fraction=0.3)
        assert comparison.speedup > 1.0
        assert comparison.to_dict()["neural"]["scenarios_per_hour"] > comparison.to_dict()["conventional"][
            "scenarios_per_hour"
        ]

    def test_custom_assumptions_respected(self):
        assumptions = EffortAssumptions(write_description_minutes=0.0, review_candidate_minutes=0.0,
                                        feedback_round_minutes=0.0)
        estimate = ManualEffortModel(assumptions).neural(5, feedback_rounds_per_scenario=0.0)
        assert estimate.minutes == 0.0
        assert estimate.scenarios_per_hour == 0.0

    def test_speedup_handles_zero_neural_effort(self):
        model = ManualEffortModel(EffortAssumptions(write_description_minutes=0.0,
                                                    review_candidate_minutes=0.0,
                                                    feedback_round_minutes=0.0))
        neural = model.neural(3, feedback_rounds_per_scenario=0.0)
        conventional = model.conventional(3, expressible_fraction=0.5)
        assert model.speedup(neural, conventional) == float("inf")


class TestCodeMetrics:
    def test_edit_similarity_bounds(self):
        assert edit_similarity("abc", "abc") == 1.0
        assert edit_similarity("", "") == 1.0
        assert 0.0 <= edit_similarity("abc", "xyz") < 1.0

    def test_token_jaccard(self):
        assert token_jaccard("return a + b", "return a + b") == 1.0
        assert token_jaccard("return a", "yield b") < 0.5

    def test_token_bleu_orders_similarity(self):
        reference = "def f(x):\n    return x + 1\n"
        close = "def f(x):\n    return x + 2\n"
        far = "class Something:\n    pass\n"
        assert token_bleu(close, reference) > token_bleu(far, reference)
        assert token_bleu(reference, reference) == pytest.approx(1.0)

    def test_token_bleu_empty(self):
        assert token_bleu("", "return 1") == 0.0

    def test_decision_accuracy(self):
        expected = {"template": "timeout", "handling": "retry"}
        assert decision_accuracy({"template": "timeout", "handling": "retry"}, expected) == 1.0
        assert decision_accuracy({"template": "timeout", "handling": "unhandled"}, expected) == 0.5
        assert decision_accuracy({}, {}) == 0.0

    def test_syntactic_validity(self):
        assert syntactic_validity("def f():\n    return 1\n")
        assert not syntactic_validity("def f(:\n")


class TestCoverageAndEffectiveness:
    def specs(self, extractor):
        texts = [
            "simulate a timeout in the gateway",
            "introduce a race condition in the scheduler",
            "negate the validation condition in the parser",
        ]
        return [extractor.extract_from_text(text) for text in texts]

    def test_neural_coverage_counts_matches(self, extractor):
        specs = self.specs(extractor)
        templates = [spec.fault_type.value for spec in specs]
        report = neural_coverage(specs, templates)
        assert report.scenario_coverage == 1.0
        assert report.requested_type_coverage == 1.0

    def test_neural_coverage_with_mismatch(self, extractor):
        specs = self.specs(extractor)
        templates = ["exception"] * len(specs)
        report = neural_coverage(specs, templates)
        assert report.scenario_coverage < 1.0

    def test_baseline_coverage_uses_predicate(self, extractor):
        specs = self.specs(extractor)
        report = baseline_coverage(specs, lambda spec: False, [FaultType.WRONG_CONDITION], "x")
        assert report.scenario_coverage == 0.0
        assert report.fault_type_coverage > 0.0

    def test_effectiveness_report(self):
        outcomes = [
            InjectionOutcome(fault_id="a", activated=True, failure_mode=FailureMode.CRASH),
            InjectionOutcome(fault_id="b", activated=True, failure_mode=FailureMode.SILENT_DATA_CORRUPTION),
            InjectionOutcome(fault_id="c", activated=False, failure_mode=FailureMode.NO_FAILURE),
            InjectionOutcome(fault_id="d", activated=True, failure_mode=FailureMode.ERROR_DETECTED),
        ]
        report = effectiveness(outcomes, technique="unit")
        assert report.total == 4
        assert report.failure_exposure_rate == pytest.approx(0.75)
        assert report.distinct_failure_modes == 3
        assert report.to_dict()["technique"] == "unit"


class TestAlignmentAndStatistics:
    def test_alignment_score_perfect_match(self, sample_prompt):
        reference = reference_decisions(sample_prompt.spec)
        assert alignment_score(reference, reference) == 1.0

    def test_alignment_series_tracks_improvement(self):
        series = AlignmentSeries()
        for value in (0.2, 0.4, 0.4, 0.7):
            series.add(value)
        assert series.improvement == pytest.approx(0.5)
        assert series.monotone_fraction == 1.0
        series.add(0.6)
        assert series.monotone_fraction < 1.0

    def test_timing_collector_aggregates(self):
        collector = TimingCollector()
        with collector.stage("nlp"):
            pass
        with collector.stage("nlp"):
            pass
        with collector.stage("generation"):
            pass
        stages = collector.by_stage()
        assert set(stages) == {"nlp", "generation"}
        assert collector.total_seconds() >= 0.0

    def test_statistics_helpers(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0
        assert stddev([5.0]) == 0.0
        assert stddev([1.0, 3.0]) > 0.0
        assert relative_change(2.0, 3.0) == pytest.approx(0.5)
        assert relative_change(0.0, 3.0) == 0.0

    def test_bootstrap_interval_contains_mean(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        low, high = bootstrap_confidence_interval(values, resamples=200)
        assert low <= mean(values) <= high
        assert bootstrap_confidence_interval([2.0]) == (2.0, 2.0)
        assert bootstrap_confidence_interval([]) == (0.0, 0.0)
