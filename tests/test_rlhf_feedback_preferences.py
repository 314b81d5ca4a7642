"""Tests for feedback parsing, preference data, and the reward model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RLHFConfig
from repro.errors import FeedbackError, RewardModelError
from repro.llm import FaultGenerator
from repro.rlhf import (
    CandidateFeaturizer,
    FeedbackParser,
    PreferenceDataset,
    PreferencePair,
    RewardModel,
    merge_directives,
)
from repro.rng import SeededRNG


class TestFeedbackParser:
    def setup_method(self):
        self.parser = FeedbackParser()

    def test_running_example_feedback(self):
        directives = self.parser.directives_from_text(
            "introduce a retry mechanism instead of just logging the error"
        )
        assert directives["handling"] == "retry"
        assert directives["wants_retry"] is True
        assert directives["replaces_previous_behaviour"] is True

    def test_fallback_feedback(self):
        directives = self.parser.directives_from_text("fall back to a default value instead of failing")
        assert directives["handling"] == "fallback"

    def test_unhandled_feedback(self):
        directives = self.parser.directives_from_text("leave the exception unhandled")
        assert directives["handling"] == "unhandled"

    def test_fault_type_change_requested(self):
        directives = self.parser.directives_from_text("this should be a memory leak, not a crash")
        assert directives["fault_type"] == "memory_leak"

    def test_trigger_change_requested(self):
        directives = self.parser.directives_from_text("make the fault intermittent, only sometimes")
        assert directives["trigger"] == "probabilistic"
        always = self.parser.directives_from_text("make the fault happen every time")
        assert always["trigger"] == "always"

    def test_severity_directives(self):
        assert self.parser.directives_from_text("make the failure more severe")["severity"] == "high"
        assert self.parser.directives_from_text("use a smaller delay please")["severity"] == "low"

    def test_empty_critique_yields_no_directives(self):
        assert self.parser.directives_from_text("") == {}

    def test_parse_builds_feedback_record(self):
        feedback = self.parser.parse("fault-1", "add a retry mechanism", rating=3.5)
        assert feedback.fault_id == "fault-1"
        assert feedback.rating == 3.5
        assert feedback.directives["wants_retry"]
        assert not feedback.accept

    def test_parse_default_ratings(self):
        assert self.parser.parse("f", "", accept=True).rating == 5.0
        assert self.parser.parse("f", "add retries").rating == 3.0
        assert self.parser.parse("f", "no recognisable directive words here at all").rating == 2.0

    def test_parse_rejects_out_of_range_rating(self):
        with pytest.raises(FeedbackError):
            self.parser.parse("f", "fine", rating=9.0)

    def test_merge_directives_later_wins(self):
        merged = merge_directives({"handling": "retry", "severity": "low"}, {"severity": "high"})
        assert merged == {"handling": "retry", "severity": "high"}


class TestPreferenceDataset:
    def test_add_comparison_and_iterate(self):
        dataset = PreferenceDataset()
        dataset.add_comparison(np.ones(4), np.zeros(4), chosen_id="a", rejected_id="b")
        assert len(dataset) == 1
        assert dataset.feature_dimension == 4

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(RewardModelError):
            PreferencePair(chosen_features=np.ones(3), rejected_features=np.ones(4))

    def test_mixed_dimensions_rejected(self):
        dataset = PreferenceDataset()
        dataset.add_comparison(np.ones(4), np.zeros(4))
        with pytest.raises(RewardModelError):
            dataset.add_comparison(np.ones(5), np.zeros(5))

    def test_ranking_expansion(self):
        dataset = PreferenceDataset()
        ranked = [("a", np.array([3.0, 0.0])), ("b", np.array([2.0, 0.0])), ("c", np.array([1.0, 0.0]))]
        added = dataset.add_ranking(ranked, margins=[3.0, 2.0, 1.0])
        assert added == 3
        assert len(dataset) == 3

    def test_empty_dataset_dimension_raises(self):
        with pytest.raises(RewardModelError):
            PreferenceDataset().feature_dimension


class TestRewardModel:
    def make_dataset(self, dimension=6, pairs=40, seed=3):
        rng = SeededRNG(seed)
        true_weights = np.linspace(1.0, -1.0, dimension)
        dataset = PreferenceDataset()
        for _ in range(pairs):
            first = np.array(rng.normal(size=dimension))
            second = np.array(rng.normal(size=dimension))
            if true_weights @ first >= true_weights @ second:
                dataset.add_comparison(first, second)
            else:
                dataset.add_comparison(second, first)
        return dataset

    def test_fit_learns_to_order_pairs(self):
        dataset = self.make_dataset()
        model = RewardModel(dimension=6, config=RLHFConfig(reward_epochs=80, reward_learning_rate=0.5))
        report = model.fit(dataset)
        assert model.trained
        assert report.pairwise_accuracy >= 0.85
        assert report.losses[-1] < report.losses[0]

    def test_score_shape_validation(self):
        model = RewardModel(dimension=4)
        with pytest.raises(RewardModelError):
            model.score(np.ones(5))

    def test_preference_probability_is_symmetric(self):
        model = RewardModel(dimension=3)
        model.weights = np.array([1.0, 0.0, 0.0])
        better = np.array([2.0, 0.0, 0.0])
        worse = np.array([0.0, 0.0, 0.0])
        p = model.preference_probability(better, worse)
        assert p > 0.5
        assert model.preference_probability(worse, better) == pytest.approx(1.0 - p)

    def test_dimension_mismatch_on_fit(self):
        model = RewardModel(dimension=3)
        with pytest.raises(RewardModelError):
            model.fit(self.make_dataset(dimension=5, pairs=4))

    def test_state_round_trip(self):
        dataset = self.make_dataset(pairs=10)
        model = RewardModel(dimension=6)
        model.fit(dataset)
        clone = RewardModel(dimension=6)
        clone.load_state(model.state_dict())
        probe = np.ones(6)
        assert clone.score(probe) == pytest.approx(model.score(probe))


class TestCandidateFeaturizer:
    def test_dimension_and_decision_encoding(self, fault_generator, sample_prompt):
        featurizer = CandidateFeaturizer(fault_generator.encoder)
        candidate = fault_generator.generate_batch([sample_prompt])[0]
        features = featurizer.featurize(sample_prompt, candidate)
        assert features.shape == (featurizer.dimension,)
        # Exactly one decision per slot is one-hot encoded.
        decision_block = features[fault_generator.encoder.dimension : -6]
        assert decision_block.sum() == pytest.approx(5.0)

    def test_different_candidates_have_different_features(self, fault_generator, sample_prompt):
        featurizer = CandidateFeaturizer(fault_generator.encoder)
        candidates = fault_generator.candidates_batch([sample_prompt], count=3)[0]
        encoded = [featurizer.featurize(sample_prompt, candidate) for candidate in candidates]
        assert not np.allclose(encoded[0], encoded[1]) or not np.allclose(encoded[0], encoded[2])
