"""The interpreted constrained decode: the reference for the automaton decoder.

Production decodes the policy's raw distributions through each prompt's
compiled :class:`~repro.llm.compiled_grammar.DecisionAutomaton`: pinned slots
jump forward and sampled draws replay through precomputed
:class:`~repro.llm.compiled_grammar.DecodePlan` CDFs.  This module keeps the
decode those shortcuts must reproduce: one-hot every pinned slot on a copy of
the distributions, then run argmax, or the temperature/truncation maths of
every sampled attempt followed by one ``Generator.choice`` per slot, and read
each result back with scalar ``log`` sums.  Both must yield the same
decisions, log-probabilities, rendered faults and decoder RNG stream.

A reference generator swaps the decoder through the ``decoder=`` seam::

    FaultGenerator(config, rng=rng, decoder=InterpretedDecoder(config, rng=rng.fork("decoder")))
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import ModelConfig
from repro.errors import GenerationError
from repro.llm import (
    DECISION_SLOTS,
    DecisionAutomaton,
    Decoder,
    DecisionVector,
    DecodingResult,
    FaultGenerator,
    constraint_slots,
)
from repro.rng import SeededRNG


def interpreted_generator(config: ModelConfig, rng: SeededRNG) -> FaultGenerator:
    """A generator that decodes through :class:`InterpretedDecoder`."""
    return FaultGenerator(config, rng=rng, decoder=InterpretedDecoder(config, rng=rng.fork("decoder")))


def constrain(distributions: dict[str, np.ndarray], automaton: DecisionAutomaton) -> dict:
    """Per-slot vectors with every slot ``automaton`` pins replaced by a one-hot."""
    constrained = dict(distributions)
    for slot, index in automaton.forced.items():
        onehot = np.zeros_like(distributions[slot])
        onehot[index] = 1.0
        constrained[slot] = onehot
    return constrained


def one_hot_rows(distributions: dict[str, np.ndarray], pinned_rows: list[dict[str, int]]) -> dict:
    """Copies of ``(B, |slot|)`` matrices with row ``i``'s ``pinned_rows[i]`` one-hotted."""
    constrained = {slot: probs.copy() for slot, probs in distributions.items()}
    for row, pinned in enumerate(pinned_rows):
        for slot, index in pinned.items():
            constrained[slot][row, :] = 0.0
            constrained[slot][row, index] = 1.0
    return constrained


def constrained_distributions_batch(generator: FaultGenerator, prompts: list) -> dict:
    """One batched forward, then one constrained copy pinned from ``constraint_slots``.

    The per-call constraint work of the decode before prompts compiled to
    automatons; the compiled-decode benchmark times it as the baseline.
    """
    pinned_rows = [
        {
            slot: DECISION_SLOTS[slot].index(value)
            for slot, value in constraint_slots(prompt, generator.config).items()
        }
        for prompt in prompts
    ]
    return one_hot_rows(generator.prompt_distributions(prompts), pinned_rows)


def scalar_result(distributions: dict[str, np.ndarray], choices: dict[str, int], strategy: str) -> DecodingResult:
    """Read a decoded assignment back from (constrained) probability vectors."""
    values = {slot: DECISION_SLOTS[slot][index] for slot, index in choices.items()}
    logprob = 0.0
    slot_probabilities = {}
    for slot, index in choices.items():
        probability = float(distributions[slot][index])
        slot_probabilities[slot] = probability
        logprob += float(np.log(probability + 1e-12))
    return DecodingResult(
        decisions=DecisionVector.from_dict(values),
        logprob=logprob,
        slot_probabilities=slot_probabilities,
        strategy=strategy,
    )


class InterpretedDecoder(Decoder):
    """:class:`~repro.llm.Decoder`'s signatures over the interpreted decode.

    Each call constrains a copy of its distributions from the automaton's
    ``forced`` slots and decodes that copy.  ``plan`` and ``first`` are
    accepted and ignored: the oracle re-derives every attempt.
    """

    def greedy(self, distributions, automaton):
        return self._greedy(constrain(distributions, automaton))

    def sample(self, distributions, temperature=None, top_k=None, top_p=None, *, automaton, plan=None):
        return self._sample(constrain(distributions, automaton), *self._parameters(temperature, top_k, top_p))

    def diverse_candidates(self, distributions, count, temperature=None, *, automaton, plan=None, first=None):
        if count <= 0:
            raise GenerationError("candidate count must be positive")
        constrained = constrain(distributions, automaton)
        parameters = self._parameters(temperature or max(self._config.temperature, 1.2), None, None)
        results = [self._greedy(constrained)]
        seen = {tuple(sorted(results[0].decisions.to_dict().items()))}
        attempts = 0
        while len(results) < count and attempts < count * 10:
            attempts += 1
            candidate = self._sample(constrained, *parameters)
            key = tuple(sorted(candidate.decisions.to_dict().items()))
            if key not in seen:
                seen.add(key)
                results.append(candidate)
        unique = len(results)
        while len(results) < count:
            base = results[len(results) % unique]
            results.append(dataclasses.replace(base, strategy=f"{base.strategy}-duplicate"))
        return results[:count]

    def _parameters(self, temperature, top_k, top_p) -> tuple:
        return (
            temperature if temperature is not None else self._config.temperature,
            top_k if top_k is not None else self._config.top_k,
            top_p if top_p is not None else self._config.top_p,
        )

    def _greedy(self, constrained) -> DecodingResult:
        choices = {slot: int(np.argmax(probs)) for slot, probs in constrained.items()}
        return scalar_result(constrained, choices, "greedy")

    def _sample(self, constrained, temperature, top_k, top_p) -> DecodingResult:
        if temperature <= 0:
            raise GenerationError("temperature must be positive")
        choices = {}
        for slot, probs in constrained.items():
            adjusted = self._apply_temperature(probs, temperature)
            adjusted = self._truncate(adjusted, top_k, top_p)
            choices[slot] = int(self._rng.generator.choice(len(adjusted), p=adjusted))
        return scalar_result(constrained, choices, "sample")
