"""Tests for the policy network and decoding strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ModelError
from repro.llm import (
    DECISION_SLOTS,
    DecisionAutomaton,
    Decoder,
    FeatureEncoder,
    PolicyNetwork,
    reference_decisions,
)
from repro.rng import SeededRNG

from oracles import per_sample

#: Decoder unit tests decode unconstrained prompts.
FREE = DecisionAutomaton.from_constraints({})


@pytest.fixture()
def encoded_prompt(sample_prompt):
    """A one-row ``(1, feature_dim)`` feature batch."""
    return FeatureEncoder().encode(sample_prompt)[None, :]


@pytest.fixture()
def policy():
    return PolicyNetwork(ModelConfig())


def log_probability(policy, features, decisions) -> float:
    return float(policy.log_probabilities_batch(features, [decisions])[0])


def step(policy, features, decisions, scale=1.0, learning_rate=None):
    """One batched gradient step on ``scale * -log p(decisions)``."""
    forward = policy.forward_batch(features)
    gradients = policy.backward_batch(forward, [decisions], scales=[scale])
    policy.apply_gradients(gradients, learning_rate=learning_rate)


class TestPolicyNetwork:
    def test_forward_produces_normalised_distributions(self, policy, encoded_prompt):
        result = policy.forward_batch(encoded_prompt)
        for slot, values in DECISION_SLOTS.items():
            probs = result.probabilities[slot]
            assert probs.shape == (1, len(values))
            assert np.all(probs >= 0)
            assert np.isclose(probs.sum(), 1.0)

    def test_wrong_feature_shape_rejected(self, policy):
        with pytest.raises(ModelError):
            policy.forward_batch(np.zeros(3))
        with pytest.raises(ModelError):
            policy.forward_batch(np.zeros((1, 3)))

    def test_log_probability_matches_per_sample_forward(self, policy, encoded_prompt, sample_prompt):
        decisions = reference_decisions(sample_prompt.spec)
        forward = per_sample.forward(policy, encoded_prompt[0])
        assert log_probability(policy, encoded_prompt, decisions) == pytest.approx(
            forward.log_probability(decisions), abs=1e-9
        )

    def test_supervised_updates_increase_target_likelihood(self, policy, encoded_prompt, sample_prompt):
        target = reference_decisions(sample_prompt.spec)
        before = log_probability(policy, encoded_prompt, target)
        for _ in range(20):
            step(policy, encoded_prompt, target, learning_rate=0.2)
        after = log_probability(policy, encoded_prompt, target)
        assert after > before

    def test_policy_gradient_scale_sign_controls_direction(self, policy, encoded_prompt, sample_prompt):
        target = reference_decisions(sample_prompt.spec)
        before = log_probability(policy, encoded_prompt, target)
        # Negative scale == negative advantage: the decisions should become LESS likely.
        for _ in range(10):
            step(policy, encoded_prompt, target, scale=-1.0, learning_rate=0.2)
        after = log_probability(policy, encoded_prompt, target)
        assert after < before

    def test_clone_is_independent(self, policy, encoded_prompt, sample_prompt):
        clone = policy.clone()
        target = reference_decisions(sample_prompt.spec)
        for _ in range(10):
            step(policy, encoded_prompt, target)
        assert log_probability(clone, encoded_prompt, target) != pytest.approx(
            log_probability(policy, encoded_prompt, target)
        )

    def test_state_round_trip(self, policy, encoded_prompt, sample_prompt):
        target = reference_decisions(sample_prompt.spec)
        other = PolicyNetwork(ModelConfig())
        other.load_state(policy.state_dict())
        assert log_probability(other, encoded_prompt, target) == pytest.approx(
            log_probability(policy, encoded_prompt, target)
        )

    def test_load_state_dimension_mismatch(self, policy):
        other = PolicyNetwork(ModelConfig(hidden_dim=16))
        with pytest.raises(ModelError):
            policy.load_state(other.state_dict())

    def test_version_increments_on_update(self, policy, encoded_prompt, sample_prompt):
        target = reference_decisions(sample_prompt.spec)
        version = policy.version
        step(policy, encoded_prompt, target)
        assert policy.version == version + 1


class TestDecoder:
    def make_distributions(self, policy, encoded_prompt):
        forward = policy.forward_batch(encoded_prompt)
        return {slot: probs[0] for slot, probs in forward.probabilities.items()}

    def test_greedy_picks_argmax(self, policy, encoded_prompt):
        distributions = self.make_distributions(policy, encoded_prompt)
        result = Decoder().greedy(distributions, FREE)
        for slot, values in DECISION_SLOTS.items():
            expected = values[int(np.argmax(distributions[slot]))]
            assert result.decisions.to_dict()[slot] == expected

    def test_greedy_is_deterministic(self, policy, encoded_prompt):
        distributions = self.make_distributions(policy, encoded_prompt)
        assert Decoder().greedy(distributions, FREE).decisions == Decoder().greedy(distributions, FREE).decisions

    def test_sampling_respects_one_hot_distributions(self, policy, encoded_prompt):
        distributions = {
            slot: np.eye(len(values))[0] for slot, values in DECISION_SLOTS.items()
        }
        result = Decoder(rng=SeededRNG(5)).sample(distributions, automaton=FREE)
        for slot, values in DECISION_SLOTS.items():
            assert result.decisions.to_dict()[slot] == values[0]

    def test_top_k_one_equals_greedy(self, policy, encoded_prompt):
        distributions = self.make_distributions(policy, encoded_prompt)
        sampled = Decoder(rng=SeededRNG(7)).sample(distributions, top_k=1, automaton=FREE)
        assert sampled.decisions == Decoder().greedy(distributions, FREE).decisions

    def test_top_p_truncation_excludes_tail(self, policy, encoded_prompt):
        decoder = Decoder(rng=SeededRNG(11))
        distributions = {slot: probs for slot, probs in self.make_distributions(policy, encoded_prompt).items()}
        for _ in range(20):
            result = decoder.sample(distributions, top_p=0.5, automaton=FREE)
            for slot, probs in distributions.items():
                chosen = result.decisions.to_dict()[slot]
                chosen_probability = probs[DECISION_SLOTS[slot].index(chosen)]
                assert chosen_probability >= np.min(probs)

    def test_logprob_uses_untruncated_distribution(self, policy, encoded_prompt):
        distributions = self.make_distributions(policy, encoded_prompt)
        result = Decoder(rng=SeededRNG(13)).sample(distributions, top_k=1, automaton=FREE)
        manual = sum(
            float(np.log(distributions[slot][DECISION_SLOTS[slot].index(value)] + 1e-12))
            for slot, value in result.decisions.to_dict().items()
        )
        assert result.logprob == pytest.approx(manual)

    def test_diverse_candidates_unique_and_counted(self, policy, encoded_prompt):
        distributions = self.make_distributions(policy, encoded_prompt)
        candidates = Decoder(rng=SeededRNG(17)).diverse_candidates(distributions, count=4, automaton=FREE)
        assert len(candidates) == 4
        assert candidates[0].strategy == "greedy"
        keys = {tuple(sorted(c.decisions.to_dict().items())) for c in candidates[:3]}
        assert len(keys) >= 2

    def test_invalid_temperature_rejected(self, policy, encoded_prompt):
        from repro.errors import GenerationError

        distributions = self.make_distributions(policy, encoded_prompt)
        with pytest.raises(GenerationError):
            Decoder().sample(distributions, temperature=0.0, automaton=FREE)
