"""The per-sample model path: the reference the batched code is pinned against.

Production runs the policy over ``(B, feature_dim)`` matrices
(``PolicyNetwork.forward_batch`` / ``backward_batch``) and generates through
one seam: ``FaultGenerator.generate_batch`` runs one ``prompt_distributions``
forward, then decodes each row, in input order, through ``decode_prompt``.
This module keeps the one-example path those batched operations must
reproduce to 1e-9: a matrix-vector forward with a shift-by-max softmax, the
analytic backward pass with ``np.outer`` rank-1 updates, gradient
accumulation, and one-prompt ``generate`` / ``candidates`` /
``render_decisions`` loops over that forward.  Sampled loops draw from the
generator's shared decoder prompt by prompt, the order sampled
``generate_batch`` follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import ModelError
from repro.llm import (
    DECISION_SLOTS,
    BatchForwardResult,
    DecisionVector,
    DecodingResult,
    FaultGenerator,
    GenerationCandidate,
    Gradients,
    PolicyNetwork,
)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    exponents = np.exp(shifted)
    return exponents / np.sum(exponents)


@dataclass
class ForwardResult:
    """Outputs of a forward pass: hidden activations and per-slot distributions."""

    features: np.ndarray
    hidden: np.ndarray
    probabilities: dict[str, np.ndarray] = field(default_factory=dict)

    def log_probability(self, decisions: DecisionVector) -> float:
        """Joint log-probability of a complete decision assignment."""
        indices = decisions.to_indices()
        total = 0.0
        for slot, probs in self.probabilities.items():
            total += float(np.log(probs[indices[slot]] + 1e-12))
        return total


def forward(policy: PolicyNetwork, features: np.ndarray) -> ForwardResult:
    """Compute per-slot probability distributions for one feature vector."""
    if features.shape != (policy.config.feature_dim,):
        raise ModelError(
            f"expected feature vector of shape ({policy.config.feature_dim},), got {features.shape}"
        )
    hidden = np.tanh(policy.w1 @ features + policy.b1)
    probabilities = {
        slot: _softmax(policy.heads_w[slot] @ hidden + policy.heads_b[slot]) for slot in DECISION_SLOTS
    }
    return ForwardResult(features=features, hidden=hidden, probabilities=probabilities)


def log_probability(policy: PolicyNetwork, features: np.ndarray, decisions: DecisionVector) -> float:
    """Joint log-probability of ``decisions`` given ``features``."""
    return forward(policy, features).log_probability(decisions)


def backward(
    policy: PolicyNetwork,
    result: ForwardResult,
    decisions: DecisionVector,
    scale: float = 1.0,
    slot_weights: Mapping[str, float] | None = None,
) -> Gradients:
    """Gradient of ``scale * -log p(decisions)`` w.r.t. all parameters."""
    gradients = policy.zero_gradients()
    indices = decisions.to_indices()
    hidden_grad = np.zeros_like(result.hidden)
    for slot, probabilities in result.probabilities.items():
        weight = (slot_weights or {}).get(slot, 1.0)
        logit_grad = probabilities.copy()
        logit_grad[indices[slot]] -= 1.0
        logit_grad *= scale * weight
        gradients.heads_w[slot] += np.outer(logit_grad, result.hidden)
        gradients.heads_b[slot] += logit_grad
        hidden_grad += policy.heads_w[slot].T @ logit_grad
    pre_activation_grad = hidden_grad * (1.0 - result.hidden**2)
    gradients.w1 += np.outer(pre_activation_grad, result.features)
    gradients.b1 += pre_activation_grad
    gradients.examples = 1
    return gradients


def add_gradients(total: Gradients, other: Gradients) -> None:
    """Accumulate ``other`` into ``total`` in place."""
    total.w1 += other.w1
    total.b1 += other.b1
    for slot in total.heads_w:
        total.heads_w[slot] += other.heads_w[slot]
        total.heads_b[slot] += other.heads_b[slot]
    total.examples += other.examples


def row(batch: BatchForwardResult, index: int) -> ForwardResult:
    """The per-sample view of one batch row."""
    return ForwardResult(
        features=batch.features[index],
        hidden=batch.hidden[index],
        probabilities={slot: probs[index] for slot, probs in batch.probabilities.items()},
    )


def generate(
    generator: FaultGenerator,
    prompt,
    greedy: bool = True,
    iteration: int = 0,
    temperature: float | None = None,
) -> GenerationCandidate:
    """One faulty snippet for ``prompt`` from the per-sample forward pass."""
    distributions = forward(generator.policy, generator.encoder.encode(prompt)).probabilities
    automaton = generator.compiler.compile(prompt)
    if greedy:
        decoding = generator.decoder.greedy(distributions, automaton)
    else:
        decoding = generator.decoder.sample(distributions, temperature=temperature, automaton=automaton)
    return generator._materialise(prompt, decoding, iteration)


def candidates(
    generator: FaultGenerator,
    prompt,
    count: int,
    iteration: int = 0,
    temperature: float | None = None,
) -> list[GenerationCandidate]:
    """``count`` diverse candidates for ``prompt`` from the per-sample forward pass."""
    distributions = forward(generator.policy, generator.encoder.encode(prompt)).probabilities
    decodings = generator.decoder.diverse_candidates(
        distributions, count, temperature=temperature, automaton=generator.compiler.compile(prompt)
    )
    return [
        generator._materialise(prompt, decoding, iteration, salt=str(i))
        for i, decoding in enumerate(decodings)
    ]


def render_decisions(
    generator: FaultGenerator, prompt, decisions: DecisionVector, iteration: int = 0
) -> GenerationCandidate:
    """Render an explicit decision assignment, scored under the policy."""
    logprob = log_probability(generator.policy, generator.encoder.encode(prompt), decisions)
    decoding = DecodingResult(
        decisions=decisions, logprob=logprob, slot_probabilities={}, strategy="forced"
    )
    return generator._materialise(prompt, decoding, iteration)
