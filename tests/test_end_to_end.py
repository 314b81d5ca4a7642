"""Cross-module integration tests exercising the whole library together."""

from __future__ import annotations

import ast

import pytest

from repro.core import RefinementSession
from repro.integration import ExperimentRunner
from repro.config import IntegrationConfig
from repro.rlhf import tester_pool as make_tester_pool  # aliased: pytest collects `test*` names
from repro.targets import all_targets, get_target
from repro.types import FailureMode, FaultType


class TestDescriptionsToOutcomes:
    """NL description -> spec -> generation -> integration -> failure mode."""

    @pytest.mark.parametrize(
        "description,target_name,expected_modes",
        [
            (
                "Simulate a timeout in process_transaction causing an unhandled exception",
                "ecommerce",
                {FailureMode.CRASH, FailureMode.ERROR_DETECTED},
            ),
            (
                "Silently corrupt the total computed by compute_total without raising any error",
                "ecommerce",
                {FailureMode.SILENT_DATA_CORRUPTION},
            ),
            (
                "Make the withdraw function fail with a network failure",
                "bank",
                {FailureMode.CRASH, FailureMode.ERROR_DETECTED},
            ),
            (
                "Add a delay of 30 milliseconds to the put function",
                "kvstore",
                {FailureMode.DEGRADED, FailureMode.NO_FAILURE},
            ),
        ],
    )
    def test_generated_fault_produces_expected_failure_mode(
        self, prepared_pipeline, description, target_name, expected_modes
    ):
        target = get_target(target_name)
        fault = prepared_pipeline.inject(description, code=target.build_source())
        record = prepared_pipeline.integrate_and_test(fault, target, mode="inprocess")
        assert record.outcome.failure_mode in expected_modes

    def test_every_target_accepts_a_generated_timeout_fault(self, prepared_pipeline):
        for target in all_targets():
            functions = target.functions()
            description = f"Simulate a timeout in the {functions[0]} function causing an unhandled exception"
            fault = prepared_pipeline.inject(description, code=target.build_source())
            ast.parse(fault.code)
            assert fault.spec.fault_type is FaultType.TIMEOUT
            record = prepared_pipeline.integrate_and_test(fault, target, mode="inprocess")
            assert record.outcome.activated or record.outcome.failure_mode is FailureMode.NO_FAILURE


class TestFeedbackLoopEndToEnd:
    def test_retry_feedback_changes_failure_mode(self, prepared_pipeline):
        """The paper's claim in action: feedback changes the tested behaviour.

        The unhandled timeout crashes the workload; after the tester asks for a
        retry mechanism, the injected fault recovers and the crash disappears.
        """
        target = get_target("ecommerce")
        runner = ExperimentRunner(target, config=IntegrationConfig(workload_iterations=15))
        session = RefinementSession(
            prepared_pipeline,
            "Simulate a timeout in process_transaction causing an unhandled exception",
            code=target.build_source(),
        )
        first = session.propose()
        crash = runner.run_generated(first.fault, mode="inprocess")
        assert crash.outcome.failure_mode is FailureMode.CRASH

        second = session.give_feedback("introduce a retry mechanism instead of just logging the error")
        recovered = runner.run_generated(second.fault, mode="inprocess")
        assert recovered.outcome.failure_mode is not FailureMode.CRASH

    def test_simulated_testers_drive_distinct_outcomes(self, prepared_pipeline):
        target = get_target("ecommerce")
        description = "Simulate a timeout in process_transaction causing an unhandled exception"
        handlings = set()
        for tester in make_tester_pool()[:2]:
            session = RefinementSession(prepared_pipeline, description, code=target.build_source())
            final = session.auto_refine(tester, max_iterations=3)
            handlings.add(final.decisions.handling)
        assert len(handlings) >= 1  # both sessions converge to a concrete handling


class TestDatasetToModelEndToEnd:
    def test_prepared_policy_beats_untrained_policy_on_heldout_specs(
        self, prepared_pipeline, fast_pipeline_config
    ):
        from repro import NeuralFaultInjector
        from repro.llm import FaultGenerator, reference_decisions
        from repro.config import ModelConfig
        from repro.eval import decision_accuracy

        untrained = FaultGenerator(ModelConfig(constrain_to_spec=False))
        texts = [
            "make validate_cart silently swallow errors",
            "introduce an off-by-one error in the loop of compute_total",
            "make apply_discount return a wrong value",
        ]
        source = get_target("ecommerce").build_source()
        trained_policy = prepared_pipeline.generator
        trained_constrain = trained_policy.config.constrain_to_spec
        trained_policy.config.constrain_to_spec = False
        try:
            trained_score = 0.0
            untrained_score = 0.0
            for text in texts:
                spec, context = prepared_pipeline.define_fault(text, code=source)
                prompt = prepared_pipeline.build_prompt(spec, context)
                expected = reference_decisions(spec).to_dict()
                trained_score += decision_accuracy(
                    trained_policy.generate_batch([prompt])[0].decisions.to_dict(), expected
                )
                untrained_score += decision_accuracy(
                    untrained.generate_batch([prompt])[0].decisions.to_dict(), expected
                )
        finally:
            trained_policy.config.constrain_to_spec = trained_constrain
        assert trained_score >= untrained_score
