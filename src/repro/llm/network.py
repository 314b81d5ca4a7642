"""The fault-generation policy network.

A compact multi-head neural network implemented directly in numpy:

* a shared hidden layer ``h = tanh(W1 x + b1)``;
* one softmax head per decision slot ``p_s = softmax(W2_s h + b2_s)``.

It exposes exactly the operations an API-backed LLM would need to expose for
this methodology — conditional distributions over outputs, log-probabilities
of a given output, supervised updates (fine-tuning), and policy-gradient
updates (RLHF) — while remaining trainable in milliseconds on a CPU.  Every
operation runs over a ``(B, feature_dim)`` batch; the one-example forward and
backward passes they must match to 1e-9 live in ``tests/oracles/per_sample.py``.

Gradients are computed analytically.  Both the supervised cross-entropy update
and the REINFORCE update share the same backward pass: for a softmax head the
gradient of ``-log p(chosen)`` w.r.t. the logits is ``p - onehot(chosen)``, and
the policy-gradient update simply scales that quantity by the (negative)
advantage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..config import ModelConfig
from ..errors import ModelError
from ..rng import SeededRNG
from .decisions import DECISION_SLOTS, DecisionVector


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    exponents = np.exp(shifted)
    return exponents / np.sum(exponents, axis=1, keepdims=True)


def _decision_index_matrix(decisions: Sequence[DecisionVector]) -> dict[str, np.ndarray]:
    """Per-slot integer index arrays, one entry per example."""
    columns = {slot: np.empty(len(decisions), dtype=np.intp) for slot in DECISION_SLOTS}
    for row, decision in enumerate(decisions):
        for slot, index in decision.to_indices().items():
            columns[slot][row] = index
    return columns


@dataclass
class Gradients:
    """Accumulated parameter gradients for one or more examples."""

    w1: np.ndarray
    b1: np.ndarray
    heads_w: dict[str, np.ndarray]
    heads_b: dict[str, np.ndarray]
    examples: int = 0


@dataclass
class BatchForwardResult:
    """Outputs of a batched forward pass over a ``(B, feature_dim)`` matrix.

    ``hidden`` is ``(B, hidden_dim)`` and each per-slot probability matrix is
    ``(B, |slot|)``, each row normalised by a shift-by-max softmax.
    """

    features: np.ndarray
    hidden: np.ndarray
    probabilities: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def batch_size(self) -> int:
        return int(self.hidden.shape[0])

    def log_probabilities(self, decisions: Sequence[DecisionVector]) -> np.ndarray:
        """Joint log-probability of one decision assignment per batch row."""
        if len(decisions) != self.batch_size:
            raise ModelError(
                f"expected {self.batch_size} decision vectors, got {len(decisions)}"
            )
        indices = _decision_index_matrix(decisions)
        rows = np.arange(self.batch_size)
        total = np.zeros(self.batch_size)
        for slot, probs in self.probabilities.items():
            total += np.log(probs[rows, indices[slot]] + 1e-12)
        return total


class PolicyNetwork:
    """Multi-head softmax policy over the decision schema."""

    def __init__(self, config: ModelConfig | None = None, rng: SeededRNG | None = None) -> None:
        self.config = config or ModelConfig()
        rng = rng or SeededRNG(self.config.seed, namespace="policy")
        scale = 1.0 / np.sqrt(self.config.feature_dim)
        self.w1 = rng.normal(size=(self.config.hidden_dim, self.config.feature_dim), scale=scale)
        self.b1 = np.zeros(self.config.hidden_dim)
        self.heads_w: dict[str, np.ndarray] = {}
        self.heads_b: dict[str, np.ndarray] = {}
        head_scale = 1.0 / np.sqrt(self.config.hidden_dim)
        for slot, values in DECISION_SLOTS.items():
            self.heads_w[slot] = rng.normal(size=(len(values), self.config.hidden_dim), scale=head_scale)
            self.heads_b[slot] = np.zeros(len(values))
        self.version = 0

    # -- inference ---------------------------------------------------------------

    def forward_batch(self, features: np.ndarray) -> BatchForwardResult:
        """Compute per-slot distributions for a whole ``(B, feature_dim)`` batch.

        One ``tanh`` matmul and one softmax matmul per head.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.config.feature_dim:
            raise ModelError(
                f"expected feature matrix of shape (B, {self.config.feature_dim}), got {features.shape}"
            )
        hidden = np.tanh(features @ self.w1.T + self.b1)
        probabilities = {
            slot: _softmax_rows(hidden @ self.heads_w[slot].T + self.heads_b[slot])
            for slot in DECISION_SLOTS
        }
        return BatchForwardResult(features=features, hidden=hidden, probabilities=probabilities)

    def log_probabilities_batch(
        self, features: np.ndarray, decisions: Sequence[DecisionVector]
    ) -> np.ndarray:
        """Joint log-probability of one decision assignment per feature row."""
        return self.forward_batch(features).log_probabilities(decisions)

    # -- training ----------------------------------------------------------------

    def zero_gradients(self) -> Gradients:
        return Gradients(
            w1=np.zeros_like(self.w1),
            b1=np.zeros_like(self.b1),
            heads_w={slot: np.zeros_like(weights) for slot, weights in self.heads_w.items()},
            heads_b={slot: np.zeros_like(bias) for slot, bias in self.heads_b.items()},
        )

    def backward_batch(
        self,
        forward: BatchForwardResult,
        decisions: Sequence[DecisionVector],
        scales: np.ndarray | Sequence[float] | None = None,
        slot_weights: Mapping[str, float] | None = None,
    ) -> Gradients:
        """Accumulated gradients of ``sum_i scales[i] * -log p(decisions[i])``.

        The per-example ``np.outer`` rank-1 updates collapse into three
        matmuls per head (``logit_grad.T @ hidden``, ``logit_grad @ W``,
        ``pre.T @ x``).
        """
        batch = forward.batch_size
        if len(decisions) != batch:
            raise ModelError(f"expected {batch} decision vectors, got {len(decisions)}")
        if scales is None:
            scale_column = np.ones((batch, 1))
        else:
            scale_column = np.asarray(scales, dtype=np.float64).reshape(batch, 1)
        gradients = self.zero_gradients()
        indices = _decision_index_matrix(decisions)
        rows = np.arange(batch)
        hidden_grad = np.zeros_like(forward.hidden)
        for slot, probabilities in forward.probabilities.items():
            weight = (slot_weights or {}).get(slot, 1.0)
            logit_grad = probabilities.copy()
            logit_grad[rows, indices[slot]] -= 1.0
            logit_grad *= scale_column * weight
            gradients.heads_w[slot] += logit_grad.T @ forward.hidden
            gradients.heads_b[slot] += logit_grad.sum(axis=0)
            hidden_grad += logit_grad @ self.heads_w[slot]
        pre_activation_grad = hidden_grad * (1.0 - forward.hidden**2)
        gradients.w1 += pre_activation_grad.T @ forward.features
        gradients.b1 += pre_activation_grad.sum(axis=0)
        gradients.examples = batch
        return gradients

    def apply_gradients(self, gradients: Gradients, learning_rate: float | None = None) -> None:
        """SGD step averaging accumulated gradients over their examples."""
        if gradients.examples == 0:
            return
        learning_rate = learning_rate if learning_rate is not None else self.config.learning_rate
        scale = learning_rate / gradients.examples
        self.w1 -= scale * gradients.w1
        self.b1 -= scale * gradients.b1
        for slot in self.heads_w:
            self.heads_w[slot] -= scale * gradients.heads_w[slot]
            self.heads_b[slot] -= scale * gradients.heads_b[slot]
        self.version += 1

    # -- cloning and state -------------------------------------------------------

    def clone(self) -> "PolicyNetwork":
        """Deep copy used to freeze a reference policy for the KL penalty."""
        copy = PolicyNetwork(config=self.config, rng=SeededRNG(self.config.seed, namespace="clone"))
        copy.load_state(self.state_dict())
        return copy

    def state_dict(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {"w1": self.w1.copy(), "b1": self.b1.copy()}
        for slot in DECISION_SLOTS:
            state[f"head_w:{slot}"] = self.heads_w[slot].copy()
            state[f"head_b:{slot}"] = self.heads_b[slot].copy()
        state["version"] = np.array(self.version)
        return state

    def load_state(self, state: Mapping[str, np.ndarray]) -> None:
        try:
            self.w1 = np.array(state["w1"], dtype=np.float64)
            self.b1 = np.array(state["b1"], dtype=np.float64)
            for slot in DECISION_SLOTS:
                self.heads_w[slot] = np.array(state[f"head_w:{slot}"], dtype=np.float64)
                self.heads_b[slot] = np.array(state[f"head_b:{slot}"], dtype=np.float64)
        except KeyError as exc:
            raise ModelError(f"checkpoint is missing parameter {exc}") from exc
        if "version" in state:
            self.version = int(state["version"])
        if self.w1.shape != (self.config.hidden_dim, self.config.feature_dim):
            raise ModelError(
                "checkpoint dimensions do not match the configured model "
                f"(expected {(self.config.hidden_dim, self.config.feature_dim)}, got {self.w1.shape})"
            )
