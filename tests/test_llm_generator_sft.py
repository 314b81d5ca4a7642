"""Tests for the fault generator facade, SFT training, and checkpoints."""

from __future__ import annotations

import ast
import json

import pytest

from repro.config import ModelConfig, SFTConfig
from repro.errors import CheckpointError
from repro.llm import (
    DecisionVector,
    FaultGenerator,
    SFTExample,
    SFTTrainer,
    load_checkpoint,
    reference_decisions,
    save_checkpoint,
)
from repro.llm.compiled_grammar import feedback_forced_slots, spec_constraint

from oracles import per_sample


def generate(generator, prompt):
    return generator.generate_batch([prompt])[0]


def fine_tune_step(generator, prompt, target):
    """One supervised SGD step towards ``target`` through the SFT trainer."""
    SFTTrainer(generator, SFTConfig(epochs=1, shuffle=False)).train(
        [SFTExample(prompt=prompt, target=target)]
    )


class TestFaultGenerator:
    def test_generate_produces_valid_fault(self, fault_generator, sample_prompt):
        candidate = generate(fault_generator, sample_prompt)
        ast.parse(candidate.fault.code)
        assert candidate.fault.fault_id.startswith("fault-")
        assert candidate.fault.actions == candidate.decisions.to_dict()
        assert candidate.fault.patch is not None

    def test_generation_is_deterministic_for_greedy(self, fault_generator, sample_prompt):
        first = generate(fault_generator, sample_prompt)
        second = generate(fault_generator, sample_prompt)
        assert first.fault.code == second.fault.code
        assert first.fault.fault_id == second.fault.fault_id

    def test_spec_constraint_pins_template(self, sample_prompt):
        constrained = FaultGenerator(ModelConfig(constrain_to_spec=True))
        candidate = generate(constrained, sample_prompt)
        assert candidate.decisions.template == sample_prompt.spec.fault_type.value

    def test_spec_constraint_can_be_disabled(self, sample_prompt):
        assert spec_constraint(sample_prompt, ModelConfig(constrain_to_spec=False)) == {}

    def test_candidates_are_diverse(self, fault_generator, sample_prompt):
        candidates = fault_generator.candidates_batch([sample_prompt], count=4)[0]
        assert len(candidates) == 4
        ids = {candidate.fault.fault_id for candidate in candidates}
        assert len(ids) == 4

    def test_forced_slots_from_feedback(self, fault_generator, sample_prompt, prompt_builder):
        refined = prompt_builder.refine(sample_prompt, {"wants_retry": True})
        assert feedback_forced_slots(refined) == {"handling": "retry"}
        candidate = generate(fault_generator, refined)
        assert candidate.decisions.handling == "retry"

    def test_forced_slots_explicit_values(self, fault_generator, sample_prompt, prompt_builder):
        refined = prompt_builder.refine(
            sample_prompt, {"handling": "fallback", "trigger": "probabilistic", "severity": "high"}
        )
        forced = feedback_forced_slots(refined)
        assert forced == {"handling": "fallback", "trigger": "probabilistic", "severity": "high"}

    def test_render_decisions_honours_explicit_vector(self, fault_generator, sample_prompt):
        decisions = DecisionVector(
            template="memory_leak", trigger="always", handling="unhandled",
            placement="body_start", severity="low",
        )
        candidate = per_sample.render_decisions(fault_generator, sample_prompt, decisions)
        assert candidate.decisions == decisions
        assert "_injected_leak" in candidate.fault.code

    def test_logprob_is_finite(self, fault_generator, sample_prompt):
        decisions = reference_decisions(sample_prompt.spec)
        features = fault_generator.encoder.encode_batch([sample_prompt])
        assert fault_generator.policy.log_probabilities_batch(features, [decisions])[0] < 0.0

    def test_model_version_tracks_training(self, fault_generator, sample_prompt):
        assert fault_generator.model_version == "policy-v0"
        fine_tune_step(fault_generator, sample_prompt, reference_decisions(sample_prompt.spec))
        assert fault_generator.model_version == "policy-v1"

    def test_no_patch_without_code_context(self, fault_generator, extractor, prompt_builder):
        spec = extractor.extract_from_text("simulate a timeout in the payment gateway")
        prompt = prompt_builder.build(spec, None)
        candidate = generate(fault_generator, prompt)
        assert candidate.fault.patch is None


class TestSFT:
    def build_examples(self, extractor, analyzer, prompt_builder, sample_module):
        texts = [
            "simulate a timeout in process_transaction",
            "introduce a race condition in process_transaction",
            "make compute_total silently corrupt its result",
            "introduce a memory leak in charge",
            "make validate silently swallow errors",
            "add a delay of 2 seconds to send_receipt",
        ]
        examples = []
        for text in texts:
            spec = extractor.extract_from_text(text, sample_module)
            context = analyzer.analyze(sample_module)
            analyzer.select_function(context, text, hint=spec.target.function)
            prompt = prompt_builder.build(spec, context)
            examples.append(SFTExample(prompt=prompt, target=reference_decisions(spec)))
        return examples

    def test_training_reduces_loss(self, extractor, analyzer, prompt_builder, sample_module):
        examples = self.build_examples(extractor, analyzer, prompt_builder, sample_module)
        generator = FaultGenerator(ModelConfig(constrain_to_spec=False))
        trainer = SFTTrainer(generator, SFTConfig(epochs=10, batch_size=4))
        report = trainer.train(examples)
        assert report.examples == len(examples)
        assert report.improved
        assert report.final_loss < report.initial_loss

    def test_training_improves_heldout_slot_accuracy(self, extractor, analyzer, prompt_builder, sample_module):
        examples = self.build_examples(extractor, analyzer, prompt_builder, sample_module)
        generator = FaultGenerator(ModelConfig(constrain_to_spec=False))
        trainer = SFTTrainer(generator, SFTConfig(epochs=12, batch_size=4))
        before = trainer.evaluate(examples)
        trainer.train(examples)
        after = trainer.evaluate(examples)
        assert after["slot_accuracy"] >= before["slot_accuracy"]
        assert after["nll"] < before["nll"]

    def test_empty_dataset_is_a_noop(self, fault_generator):
        trainer = SFTTrainer(fault_generator, SFTConfig(epochs=2))
        report = trainer.train([])
        assert report.examples == 0
        assert report.epoch_losses == []
        metrics = trainer.evaluate([])
        assert metrics["exact_match"] == 0.0


class TestCheckpoints:
    def test_round_trip(self, tmp_path, fault_generator, sample_prompt):
        decisions = reference_decisions(sample_prompt.spec)
        fine_tune_step(fault_generator, sample_prompt, decisions)
        save_checkpoint(fault_generator.policy, tmp_path, name="unit")
        restored = load_checkpoint(tmp_path, name="unit")
        features = fault_generator.encoder.encode_batch([sample_prompt])
        assert restored.log_probabilities_batch(features, [decisions])[0] == pytest.approx(
            fault_generator.policy.log_probabilities_batch(features, [decisions])[0]
        )
        assert restored.version == fault_generator.policy.version

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path, name="missing")

    def test_retired_config_fields_are_ignored(self, tmp_path, fault_generator):
        save_checkpoint(fault_generator.policy, tmp_path, name="older")
        meta_path = tmp_path / "older.json"
        metadata = json.loads(meta_path.read_text())
        metadata["config"]["compiled_decode"] = True  # a field earlier releases wrote
        meta_path.write_text(json.dumps(metadata))
        restored = load_checkpoint(tmp_path, name="older")
        assert restored.config == fault_generator.policy.config

    def test_corrupt_metadata_raises(self, tmp_path, fault_generator):
        save_checkpoint(fault_generator.policy, tmp_path, name="broken")
        (tmp_path / "broken.json").write_text("not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path, name="broken")
