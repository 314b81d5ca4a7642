"""Policy optimisation from reward signals (the RL step of RLHF).

A REINFORCE-style policy-gradient update with the two stabilisers used by the
InstructGPT recipe, scaled down to the decision-level policy:

* a **KL penalty** towards a frozen reference policy, applied inside the
  reward (``r' = r - beta * (log pi(a) - log pi_ref(a))``), which keeps the
  fine-tuned policy from collapsing onto reward-hacking outputs;
* a **moving-average baseline** subtracted from the shaped reward to reduce
  gradient variance.

The gradient of the REINFORCE objective for a softmax head is the familiar
``(p - onehot(a)) * advantage``, so the update re-uses the policy network's
batched cross-entropy backward pass (``backward_batch``) with one scale factor
per sample.  The per-sample update it must match lives in
``tests/oracles/per_sample.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import RLHFConfig
from ..llm.decisions import DecisionVector
from ..llm.network import PolicyNetwork
from ..nlp.prompt_builder import GenerationPrompt
from ..llm.features import FeatureEncoder


@dataclass
class PolicyUpdateStats:
    """Diagnostics of one policy-gradient update."""

    mean_reward: float = 0.0
    mean_shaped_reward: float = 0.0
    mean_kl: float = 0.0
    baseline: float = 0.0
    samples: int = 0

    def to_dict(self) -> dict:
        return {
            "mean_reward": self.mean_reward,
            "mean_shaped_reward": self.mean_shaped_reward,
            "mean_kl": self.mean_kl,
            "baseline": self.baseline,
            "samples": self.samples,
        }


@dataclass
class RewardedSample:
    """One sampled generation together with its scalar reward."""

    prompt: GenerationPrompt
    decisions: DecisionVector
    reward: float


class PolicyOptimizer:
    """KL-regularised REINFORCE over the fault-generation policy."""

    def __init__(
        self,
        policy: PolicyNetwork,
        encoder: FeatureEncoder,
        config: RLHFConfig | None = None,
        reference: PolicyNetwork | None = None,
    ) -> None:
        self._policy = policy
        self._encoder = encoder
        self._config = config or RLHFConfig()
        self._reference = reference or policy.clone()
        self._baseline = 0.0
        self._baseline_initialised = False
        self.history: list[PolicyUpdateStats] = []

    @property
    def reference(self) -> PolicyNetwork:
        return self._reference

    @property
    def baseline(self) -> float:
        return self._baseline

    def reset_reference(self) -> None:
        """Refreeze the reference policy at the current policy parameters."""
        self._reference = self._policy.clone()

    def update(self, samples: list[RewardedSample]) -> PolicyUpdateStats:
        """Apply one policy-gradient step over a batch of rewarded samples.

        The whole minibatch flows through two batched forward passes (policy
        and frozen reference) for the KL-shaped rewards, and one batched
        backward pass with the per-sample advantages as scales — no
        per-example ``np.outer`` loops.  The maths matches the per-sample
        REINFORCE update to floating-point noise (the tests pin this against
        the per-sample oracle).
        """
        stats = PolicyUpdateStats(samples=len(samples))
        if not samples:
            return stats
        beta = self._config.kl_beta
        features = self._encoder.encode_batch([sample.prompt for sample in samples])
        decisions = [sample.decisions for sample in samples]
        rewards = np.array([sample.reward for sample in samples], dtype=np.float64)

        forward = self._policy.forward_batch(features)
        logprobs = forward.log_probabilities(decisions)
        ref_logprobs = self._reference.log_probabilities_batch(features, decisions)
        kl_terms = logprobs - ref_logprobs
        shaped_rewards = rewards - beta * kl_terms

        batch_mean = float(np.sum(shaped_rewards)) / len(samples)
        if not self._baseline_initialised:
            self._baseline = batch_mean
            self._baseline_initialised = True
        momentum = self._config.baseline_momentum
        self._baseline = momentum * self._baseline + (1.0 - momentum) * batch_mean

        # Minimising advantage * (-log p) == maximising advantage * log p.
        advantages = shaped_rewards - self._baseline
        gradients = self._policy.backward_batch(forward, decisions, scales=advantages)
        self._policy.apply_gradients(gradients, learning_rate=self._config.policy_learning_rate)

        stats.mean_reward = float(np.sum(rewards)) / len(samples)
        stats.mean_shaped_reward = batch_mean
        stats.mean_kl = float(np.sum(kl_terms)) / len(samples)
        stats.baseline = self._baseline
        self.history.append(stats)
        return stats
