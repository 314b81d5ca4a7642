"""Decoding strategies over the policy's per-slot distributions.

Mirrors the sampling controls of hosted LLM APIs: greedy decoding, temperature
sampling, top-k and nucleus (top-p) truncation.  The decoder returns both the
chosen :class:`DecisionVector` and its joint log-probability under the
*untruncated* distribution, which the RLHF policy-gradient step needs.

The decoder works on one prompt's per-slot probability vectors: one row of a
batched forward pass, which
:meth:`~repro.llm.generator.FaultGenerator.decode_prompt` hands it prompt by
prompt, in input order, so a batch consumes the RNG stream exactly as a loop
of one-prompt decodes does.

Every strategy decodes the policy's *raw* distributions through a compiled
:class:`~repro.llm.compiled_grammar.DecisionAutomaton` (an unconstrained
prompt uses ``DecisionAutomaton.from_constraints({})``).  Force-determined
slots are resolved by jumping forward through the automaton instead of
argmax/sampling machinery, and sampled slots replay their categorical draw
through precomputed :class:`~repro.llm.compiled_grammar.DecodePlan` CDF
tables (one uniform per slot per attempt, none for greedy).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..config import ModelConfig
from ..errors import GenerationError
from ..rng import SeededRNG
from .compiled_grammar import DecisionAutomaton, DecodePlan
from .decisions import DECISION_SLOTS, DecisionVector


@dataclass
class DecodingResult:
    """A decoded decision assignment plus sampling metadata."""

    decisions: DecisionVector
    logprob: float
    slot_probabilities: dict[str, float]
    strategy: str


class Decoder:
    """Applies a decoding strategy to per-slot probability distributions."""

    def __init__(self, config: ModelConfig | None = None, rng: SeededRNG | None = None) -> None:
        self._config = config or ModelConfig()
        self._rng = rng or SeededRNG(self._config.seed, namespace="decoder")

    def greedy(
        self, distributions: dict[str, np.ndarray], automaton: DecisionAutomaton
    ) -> DecodingResult:
        """Pick the argmax value for every slot.

        Forced slots jump forward to their pinned index without touching the
        probability vector and report probability 1.0.
        """
        choices = {}
        for slot, probs in distributions.items():
            index = automaton.forced.get(slot)
            if index is None:
                index = int(np.argmax(probs))
            else:
                automaton.jump_forward_taken += 1
            choices[slot] = index
        return self._result(distributions, choices, "greedy", automaton)

    def sample(
        self,
        distributions: dict[str, np.ndarray],
        temperature: float | None = None,
        top_k: int | None = None,
        top_p: float | None = None,
        *,
        automaton: DecisionAutomaton,
        plan: DecodePlan | None = None,
    ) -> DecodingResult:
        """Sample each slot with temperature / top-k / nucleus truncation.

        Each slot's categorical draw is replayed through a :class:`DecodePlan`
        CDF table, consuming one uniform per slot — forced slots burn theirs
        through the tempered one-hot CDF.  A caller-supplied ``plan`` must
        have been built for these distributions and sampling parameters
        (:meth:`diverse_candidates` and the dedup-aware generator reuse one
        plan across attempts and duplicate prompts).
        """
        temperature = temperature if temperature is not None else self._config.temperature
        top_k = top_k if top_k is not None else self._config.top_k
        top_p = top_p if top_p is not None else self._config.top_p
        if temperature <= 0:
            raise GenerationError("temperature must be positive")
        if plan is None:
            plan = DecodePlan.for_sampling(distributions, automaton, temperature, top_k, top_p)
        choices = {}
        for slot in distributions:
            uniform = self._rng.generator.random()
            choices[slot] = plan.replay(slot, uniform)
            if slot in plan.forced:
                automaton.jump_forward_taken += 1
        return self._result(distributions, choices, "sample", automaton)

    def diverse_candidates(
        self,
        distributions: dict[str, np.ndarray],
        count: int,
        temperature: float | None = None,
        *,
        automaton: DecisionAutomaton,
        plan: DecodePlan | None = None,
        first: DecodingResult | None = None,
    ) -> list[DecodingResult]:
        """Greedy candidate first, then sampled candidates (deduplicated).

        When the sampling budget cannot produce ``count`` distinct assignments
        (heavily constrained distributions collapse the support), the list is
        padded by repeating earlier candidates with a ``-duplicate`` suffix on
        their strategy, so downstream diversity statistics can exclude them
        instead of silently double-counting.

        Every sampled attempt replays through one shared :class:`DecodePlan`
        (built once instead of per attempt); ``plan`` and ``first`` let
        duplicate prompts in a batch additionally share the plan and the
        RNG-free greedy head across rows.
        """
        if count <= 0:
            raise GenerationError("candidate count must be positive")
        effective = temperature or max(self._config.temperature, 1.2)
        if plan is None:
            plan = DecodePlan.for_sampling(
                distributions, automaton, effective, self._config.top_k, self._config.top_p
            )
        if first is None:
            first = self.greedy(distributions, automaton=automaton)
        results = [first]
        seen = {tuple(sorted(results[0].decisions.to_dict().items()))}
        attempts = 0
        while len(results) < count and attempts < count * 10:
            attempts += 1
            candidate = self.sample(
                distributions, temperature=effective, automaton=automaton, plan=plan
            )
            key = tuple(sorted(candidate.decisions.to_dict().items()))
            if key not in seen:
                seen.add(key)
                results.append(candidate)
        unique = len(results)
        while len(results) < count:
            base = results[len(results) % unique]
            results.append(dataclasses.replace(base, strategy=f"{base.strategy}-duplicate"))
        return results[:count]

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _apply_temperature(probs: np.ndarray, temperature: float) -> np.ndarray:
        logits = np.log(probs + 1e-12) / temperature
        shifted = np.exp(logits - np.max(logits))
        return shifted / np.sum(shifted)

    @staticmethod
    def _truncate(probs: np.ndarray, top_k: int | None, top_p: float | None) -> np.ndarray:
        adjusted = probs.copy()
        if top_k is not None and top_k < len(adjusted):
            threshold_index = np.argsort(adjusted)[-top_k:]
            mask = np.zeros_like(adjusted, dtype=bool)
            mask[threshold_index] = True
            adjusted[~mask] = 0.0
        if top_p is not None and 0.0 < top_p < 1.0:
            order = np.argsort(adjusted)[::-1]
            cumulative = np.cumsum(adjusted[order])
            cutoff = int(np.searchsorted(cumulative, top_p)) + 1
            keep = order[:cutoff]
            mask = np.zeros_like(adjusted, dtype=bool)
            mask[keep] = True
            adjusted[~mask] = 0.0
        total = np.sum(adjusted)
        if total <= 0:
            return probs
        return adjusted / total

    @staticmethod
    def _result(
        distributions: dict[str, np.ndarray],
        choices: dict[str, int],
        strategy: str,
        automaton: DecisionAutomaton,
    ) -> DecodingResult:
        """Result readback over *raw* distributions.

        Forced slots report their one-hot probability (1.0 when the forced
        index was selected, 0.0 on the ~1e-12 tempered tail); the joint
        accumulates scalar ``log(p + 1e-12)`` in slot order.  Values come
        straight from the decision schema, so the vector is constructed
        without re-validation.
        """
        values = {slot: DECISION_SLOTS[slot][index] for slot, index in choices.items()}
        decisions = DecisionVector(**values)
        logprob = 0.0
        slot_probabilities = {}
        for slot, index in choices.items():
            forced = automaton.forced.get(slot)
            if forced is not None:
                probability = 1.0 if index == forced else 0.0
            else:
                probability = float(distributions[slot][index])
            slot_probabilities[slot] = probability
            logprob += float(np.log(probability + 1e-12))
        return DecodingResult(
            decisions=decisions,
            logprob=logprob,
            slot_probabilities=slot_probabilities,
            strategy=strategy,
        )
