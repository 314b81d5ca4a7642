"""Tests for simulated testers, policy optimisation, and the RLHF trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig, RLHFConfig
from repro.llm import FaultGenerator, reference_decisions
from repro.rlhf import (
    DEFAULT_PROFILES,
    PolicyOptimizer,
    PreferenceProfile,
    RLHFTrainer,
    RewardedSample,
    SimulatedTester,
    spec_with_feedback,
)
from repro.rlhf import tester_pool as make_tester_pool  # aliased: pytest collects `test*` names
from repro.types import HandlingStyle, TriggerKind

from oracles import per_sample


@pytest.fixture()
def prompts(extractor, analyzer, prompt_builder, sample_module):
    texts = [
        "simulate a timeout in process_transaction causing an unhandled exception",
        "introduce a race condition in process_transaction under concurrent checkouts",
        "make compute_total silently corrupt the computed total",
    ]
    built = []
    for text in texts:
        spec = extractor.extract_from_text(text, sample_module)
        context = analyzer.analyze(sample_module)
        analyzer.select_function(context, text, hint=spec.target.function)
        built.append(prompt_builder.build(spec, context))
    return built


class TestSimulatedTester:
    def test_expectation_respects_profile(self, sample_prompt):
        tester = SimulatedTester(profile=PreferenceProfile(name="r", preferred_handling=HandlingStyle.RETRY))
        expected = tester.expectation(sample_prompt.spec)
        assert expected.handling == "retry"

    def test_perfect_candidate_gets_top_rating(self, fault_generator, sample_prompt):
        tester = SimulatedTester()
        expected = tester.expectation(sample_prompt.spec)
        candidate = per_sample.render_decisions(fault_generator, sample_prompt, expected)
        assert tester.rate(sample_prompt.spec, candidate) == pytest.approx(5.0)
        review = tester.review(sample_prompt.spec, candidate)
        assert review.accept
        assert review.critique == ""

    def test_mismatch_produces_actionable_critique(self, fault_generator, sample_prompt):
        tester = SimulatedTester(profile=PreferenceProfile(name="r", preferred_handling=HandlingStyle.RETRY))
        wrong = per_sample.render_decisions(
            fault_generator, sample_prompt, reference_decisions(sample_prompt.spec)
        )
        review = tester.review(sample_prompt.spec, wrong)
        assert not review.accept
        assert "retry" in review.critique

    def test_template_mismatch_mentioned_first(self, fault_generator, sample_prompt):
        tester = SimulatedTester()
        from repro.llm import DecisionVector

        wrong = per_sample.render_decisions(
            fault_generator,
            sample_prompt,
            DecisionVector(template="memory_leak", trigger="always", handling="unhandled",
                           placement="body_start", severity="medium"),
        )
        critique = tester.critique(sample_prompt.spec, wrong)
        assert "timeout" in critique

    def test_rank_orders_by_rating(self, fault_generator, sample_prompt):
        tester = SimulatedTester()
        candidates = fault_generator.candidates_batch([sample_prompt], count=4)[0]
        ranked = tester.rank(sample_prompt.spec, candidates)
        ratings = [tester.rate(sample_prompt.spec, candidate) for candidate in ranked]
        assert ratings == sorted(ratings, reverse=True)

    def test_tester_pool_has_default_profiles(self):
        pool = make_tester_pool()
        assert len(pool) == len(DEFAULT_PROFILES)
        assert {tester.profile.name for tester in pool} == {profile.name for profile in DEFAULT_PROFILES}

    def test_spec_with_feedback_updates_handling(self, sample_prompt):
        updated = spec_with_feedback(sample_prompt.spec, {"handling": "retry", "wants_retry": True})
        assert updated.handling is HandlingStyle.RETRY
        assert updated.directives["wants_retry"]
        # the original spec is not mutated
        assert sample_prompt.spec.handling is HandlingStyle.UNHANDLED


class TestPolicyOptimizer:
    def test_update_moves_policy_towards_rewarded_decisions(self, sample_prompt):
        generator = FaultGenerator(ModelConfig(constrain_to_spec=False))
        optimizer = PolicyOptimizer(generator.policy, generator.encoder, RLHFConfig(policy_learning_rate=0.3))
        good = reference_decisions(sample_prompt.spec)
        features = generator.encoder.encode_batch([sample_prompt])
        before = generator.policy.log_probabilities_batch(features, [good])[0]
        for _ in range(10):
            candidates = generator.candidates_batch([sample_prompt], count=4, temperature=1.5)[0]
            samples = [
                RewardedSample(
                    prompt=sample_prompt,
                    decisions=candidate.decisions,
                    reward=1.0 if candidate.decisions.template == good.template else -1.0,
                )
                for candidate in candidates
            ]
            optimizer.update(samples)
        after = generator.policy.log_probabilities_batch(features, [good])[0]
        assert after > before

    def test_empty_update_is_noop(self, fault_generator):
        optimizer = PolicyOptimizer(fault_generator.policy, fault_generator.encoder)
        stats = optimizer.update([])
        assert stats.samples == 0

    def test_kl_is_zero_on_first_update_against_fresh_reference(self, fault_generator, sample_prompt):
        optimizer = PolicyOptimizer(fault_generator.policy, fault_generator.encoder)
        candidate = fault_generator.generate_batch([sample_prompt])[0]
        stats = optimizer.update(
            [RewardedSample(prompt=sample_prompt, decisions=candidate.decisions, reward=1.0)]
        )
        assert stats.mean_kl == pytest.approx(0.0, abs=1e-9)
        assert optimizer.history[-1] is stats

    def test_reset_reference(self, fault_generator, sample_prompt):
        optimizer = PolicyOptimizer(fault_generator.policy, fault_generator.encoder)
        candidate = fault_generator.generate_batch([sample_prompt])[0]
        sample = RewardedSample(prompt=sample_prompt, decisions=candidate.decisions, reward=1.0)
        optimizer.update([sample])
        optimizer.reset_reference()
        reference = optimizer.reference
        assert reference is not fault_generator.policy
        for key, value in fault_generator.policy.state_dict().items():
            assert np.array_equal(reference.state_dict()[key], value), key
        # The next update measures its KL against the refrozen reference.
        assert optimizer.update([sample]).mean_kl == pytest.approx(0.0, abs=1e-9)


class TestRLHFTrainer:
    def test_requires_at_least_one_tester(self, fault_generator):
        with pytest.raises(ValueError):
            RLHFTrainer(fault_generator, testers=[])

    def test_run_produces_history_and_preferences(self, prompts):
        generator = FaultGenerator(ModelConfig(constrain_to_spec=False))
        trainer = RLHFTrainer(
            generator,
            make_tester_pool(),
            config=RLHFConfig(iterations=2, candidates_per_iteration=3),
        )
        report = trainer.run(prompts)
        assert len(report.iterations) == 2
        assert report.preference_pairs > 0
        assert all(0.0 <= stats.alignment <= 1.0 for stats in report.iterations)
        assert all(0.0 <= stats.reward_model_accuracy <= 1.0 for stats in report.iterations)

    def test_alignment_improves_or_holds_over_training(self, prompts):
        generator = FaultGenerator(ModelConfig(constrain_to_spec=False))
        trainer = RLHFTrainer(
            generator,
            [SimulatedTester()],
            config=RLHFConfig(iterations=3, candidates_per_iteration=4, policy_learning_rate=0.15),
        )
        initial = trainer.alignment(prompts)
        report = trainer.run(prompts)
        assert report.final_alignment >= initial - 0.05

    def test_alignment_of_empty_prompt_list_is_zero(self, fault_generator):
        trainer = RLHFTrainer(fault_generator, make_tester_pool(), config=RLHFConfig(iterations=1))
        assert trainer.alignment([]) == 0.0
