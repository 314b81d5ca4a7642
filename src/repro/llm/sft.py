"""Supervised fine-tuning (SFT) of the fault-generation policy.

Section IV-1 of the paper proposes generating the fine-tuning dataset with a
programmable SFI tool: every injected fault yields a (natural-language
description, original code, faulty code) triple.  Here the triples arrive as
(:class:`GenerationPrompt`, :class:`DecisionVector`) pairs — the prompt built
from the description and code, the decision vector recovered from the injected
fault — and the trainer minimises the joint cross-entropy over decision slots.

Training runs one batched forward/backward pair per minibatch; evaluation runs
one batched forward pass and decodes each row greedily.  The per-example
forward and backward passes the trainer is checked against to 1e-9 live in
``tests/oracles/per_sample.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SFTConfig
from ..rng import SeededRNG
from ..nlp.prompt_builder import GenerationPrompt
from .compiled_grammar import DecisionAutomaton
from .decisions import DecisionVector
from .generator import FaultGenerator


@dataclass
class SFTExample:
    """One supervised training example."""

    prompt: GenerationPrompt
    target: DecisionVector


@dataclass
class SFTReport:
    """Training curve and summary statistics of an SFT run."""

    epoch_losses: list[float] = field(default_factory=list)
    examples: int = 0
    epochs: int = 0

    @property
    def initial_loss(self) -> float:
        return self.epoch_losses[0] if self.epoch_losses else float("nan")

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")

    @property
    def improved(self) -> bool:
        return bool(self.epoch_losses) and self.final_loss < self.initial_loss

    def to_dict(self) -> dict:
        return {
            "epoch_losses": list(self.epoch_losses),
            "examples": self.examples,
            "epochs": self.epochs,
            "initial_loss": self.initial_loss,
            "final_loss": self.final_loss,
        }


class SFTTrainer:
    """Mini-batch SGD trainer for the generation policy.

    Every minibatch is processed as one matrix: one batched forward pass
    computes all per-slot distributions, one batched backward pass accumulates
    the whole minibatch's gradients, and one SGD step applies them.  The
    shuffle stream and update schedule are identical to per-sample training —
    the minibatch boundaries, learning rate, and gradient averaging match the
    per-example loop to floating-point noise, which the tests check against
    the per-sample oracle.
    """

    def __init__(self, generator: FaultGenerator, config: SFTConfig | None = None) -> None:
        self._generator = generator
        self._config = config or SFTConfig()
        self._rng = SeededRNG(self._config.seed, namespace="sft")

    def train(self, examples: list[SFTExample]) -> SFTReport:
        """Train for the configured number of epochs; returns the loss curve."""
        report = SFTReport(examples=len(examples), epochs=self._config.epochs)
        if not examples:
            return report
        policy = self._generator.policy
        encoder = self._generator.encoder
        features_matrix = encoder.encode_batch([example.prompt for example in examples])
        targets = [example.target for example in examples]
        count = len(examples)
        batch_size = self._config.batch_size
        for _epoch in range(self._config.epochs):
            ordering = self._rng.shuffle(list(range(count))) if self._config.shuffle else list(range(count))
            epoch_loss = 0.0
            for start in range(0, count, batch_size):
                chunk = ordering[start : start + batch_size]
                forward = policy.forward_batch(features_matrix[chunk])
                chunk_targets = [targets[index] for index in chunk]
                epoch_loss += float(np.sum(-forward.log_probabilities(chunk_targets)))
                gradients = policy.backward_batch(forward, chunk_targets)
                policy.apply_gradients(gradients, learning_rate=self._config.learning_rate)
            report.epoch_losses.append(epoch_loss / count)
        return report

    def evaluate(self, examples: list[SFTExample]) -> dict[str, float]:
        """Held-out evaluation: mean NLL and exact / per-slot decision accuracy."""
        if not examples:
            return {"nll": float("nan"), "exact_match": 0.0, "slot_accuracy": 0.0}
        policy = self._generator.policy
        decoder = self._generator.decoder
        encoder = self._generator.encoder
        features_matrix = encoder.encode_batch([example.prompt for example in examples])
        targets = [example.target for example in examples]
        forward = policy.forward_batch(features_matrix)
        total_nll = float(np.sum(-forward.log_probabilities(targets)))
        unconstrained = DecisionAutomaton.from_constraints({})
        exact = 0
        slot_hits = 0
        slot_total = 0
        for row, target in enumerate(targets):
            decoded = decoder.greedy(
                {slot: matrix[row] for slot, matrix in forward.probabilities.items()}, unconstrained
            )
            target_map = target.to_dict()
            decoded_map = decoded.decisions.to_dict()
            if decoded_map == target_map:
                exact += 1
            for slot, value in target_map.items():
                slot_total += 1
                if decoded_map[slot] == value:
                    slot_hits += 1
        count = len(examples)
        return {
            "nll": total_nll / count,
            "exact_match": exact / count,
            "slot_accuracy": slot_hits / slot_total if slot_total else 0.0,
        }
