"""Decoding strategies over the policy's per-slot distributions.

Mirrors the sampling controls of hosted LLM APIs: greedy decoding, temperature
sampling, top-k and nucleus (top-p) truncation.  The decoder returns both the
chosen :class:`DecisionVector` and its joint log-probability under the
*untruncated* distribution, which the RLHF policy-gradient step needs.

Every strategy also has a ``*_batch`` variant operating on ``(B, |slot|)``
probability matrices (one row per prompt): temperature and truncation are
applied row-wise with sorts and cumulative sums, and sampling draws one RNG
vector per slot for the whole batch instead of one scalar per (prompt, slot)
pair.  Batched greedy decoding is exactly equivalent to per-sample greedy;
batched sampling draws from the same truncated distributions but consumes the
RNG stream in a different order, so it is deterministic per batch rather than
per prompt.

Every strategy decodes the policy's *raw* distributions through a compiled
:class:`~repro.llm.compiled_grammar.DecisionAutomaton` (the ``*_batch``
variants through a per-row automaton list; an unconstrained prompt uses
``DecisionAutomaton.from_constraints({})``).  Force-determined slots are
resolved by jumping forward through the automaton instead of argmax/sampling
machinery, and sampled slots replay their categorical draw through
precomputed :class:`~repro.llm.compiled_grammar.DecodePlan` CDF tables
(one uniform per slot per attempt, none for greedy).
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

    # -- batched strategies --------------------------------------------------------

    def greedy_batch(
        self,
        distributions: dict[str, np.ndarray],
        automatons: list[DecisionAutomaton],
    ) -> list[DecodingResult]:
        """Per-row argmax over ``(B, |slot|)`` distribution matrices.

        Row ``i`` of the result equals ``self.greedy`` on row ``i``'s
        distributions and automaton.  Forced rows jump forward and only the
        free rows run the argmax (on a row-gathered submatrix, which is
        bit-identical to row-wise argmax on the full matrix).
        """
        batch = len(automatons)
        choices = {}
        for slot, probs in distributions.items():
            indices = np.empty(batch, dtype=np.intp)
            free_rows = []
            for row, automaton in enumerate(automatons):
                forced = automaton.forced.get(slot)
                if forced is not None:
                    indices[row] = forced
                    automaton.jump_forward_taken += 1
                else:
                    free_rows.append(row)
            if free_rows:
                free = np.asarray(free_rows, dtype=np.intp)
                indices[free] = np.argmax(probs[free], axis=1)
            choices[slot] = indices
        return self._results_batch(distributions, choices, "greedy", automatons)

    def sample_batch(
        self,
        distributions: dict[str, np.ndarray],
        temperature: float | None = None,
        top_k: int | None = None,
        top_p: float | None = None,
        *,
        automatons: list[DecisionAutomaton],
    ) -> list[DecodingResult]:
        """Sample every (row, slot) with one RNG vector per slot.

        Temperature scaling and top-k / top-p truncation are applied row-wise
        and match :meth:`sample`'s per-vector maths; the categorical draw
        inverts each row's CDF with a single uniform vector per slot, so a
        batch of ``B`` prompts costs ``len(slots)`` RNG calls instead of
        ``B * len(slots)``.

        The temperature/truncation maths runs only over the free rows (a
        row-gathered submatrix — row-wise ops make this bit-identical to the
        full-matrix maths), while forced rows replay their draw through one
        shared tempered one-hot CDF per (slot, forced index).
        """
        temperature = temperature if temperature is not None else self._config.temperature
        top_k = top_k if top_k is not None else self._config.top_k
        top_p = top_p if top_p is not None else self._config.top_p
        if temperature <= 0:
            raise GenerationError("temperature must be positive")
        batch = len(automatons)
        onehot_cumulative: dict[tuple[str, int], np.ndarray] = {}
        choices = {}
        for slot, probs in distributions.items():
            vocabulary = probs.shape[1]
            indices = np.empty(batch, dtype=np.intp)
            free_rows = [row for row in range(batch) if slot not in automatons[row].forced]
            draws = self._rng.generator.random(batch)
            if free_rows:
                free = np.asarray(free_rows, dtype=np.intp)
                adjusted = self._apply_temperature_rows(probs[free], temperature)
                adjusted = self._truncate_rows(adjusted, top_k, top_p)
                cumulative = np.cumsum(adjusted, axis=1)
                # Index of the first CDF entry strictly above the draw; the <=
                # comparison keeps zero-probability prefixes unselectable.
                free_indices = np.sum(cumulative <= draws[free][:, None], axis=1)
                indices[free] = np.minimum(free_indices, vocabulary - 1)
            forced_groups: dict[int, list[int]] = {}
            for row, automaton in enumerate(automatons):
                forced = automaton.forced.get(slot)
                if forced is not None:
                    forced_groups.setdefault(forced, []).append(row)
                    automaton.jump_forward_taken += 1
            for forced, group_rows in forced_groups.items():
                key = (slot, forced)
                cumulative_row = onehot_cumulative.get(key)
                if cumulative_row is None:
                    onehot = np.zeros((1, vocabulary))
                    onehot[0, forced] = 1.0
                    row_adjusted = self._apply_temperature_rows(onehot, temperature)
                    row_adjusted = self._truncate_rows(row_adjusted, top_k, top_p)
                    cumulative_row = np.cumsum(row_adjusted[0])
                    onehot_cumulative[key] = cumulative_row
                group = np.asarray(group_rows, dtype=np.intp)
                group_indices = np.sum(cumulative_row[None, :] <= draws[group][:, None], axis=1)
                indices[group] = np.minimum(group_indices, vocabulary - 1)
            choices[slot] = indices
        return self._results_batch(distributions, choices, "sample", automatons)

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
    def _apply_temperature_rows(probs: np.ndarray, temperature: float) -> np.ndarray:
        logits = np.log(probs + 1e-12) / temperature
        shifted = np.exp(logits - np.max(logits, axis=1, keepdims=True))
        return shifted / np.sum(shifted, axis=1, keepdims=True)

    @staticmethod
    def _truncate_rows(probs: np.ndarray, top_k: int | None, top_p: float | None) -> np.ndarray:
        """Row-wise mirror of :meth:`_truncate`.

        Rows whose truncated mass vanishes fall back to their input
        distribution untouched, exactly as the per-sample path does.
        """
        vocabulary = probs.shape[1]
        adjusted = probs.copy()
        if top_k is not None and top_k < vocabulary:
            order = np.argsort(adjusted, axis=1)
            mask = np.zeros_like(adjusted, dtype=bool)
            np.put_along_axis(mask, order[:, -top_k:], True, axis=1)
            adjusted[~mask] = 0.0
        if top_p is not None and 0.0 < top_p < 1.0:
            order = np.argsort(adjusted, axis=1)[:, ::-1]
            cumulative = np.cumsum(np.take_along_axis(adjusted, order, axis=1), axis=1)
            # searchsorted(cumulative, top_p) per row: entries strictly below
            # the nucleus mass, plus one to keep the entry that crosses it.
            cutoffs = np.sum(cumulative < top_p, axis=1) + 1
            keep = np.arange(vocabulary)[None, :] < cutoffs[:, None]
            mask = np.zeros_like(adjusted, dtype=bool)
            np.put_along_axis(mask, order, keep, axis=1)
            adjusted[~mask] = 0.0
        totals = np.sum(adjusted, axis=1, keepdims=True)
        empty = totals[:, 0] <= 0
        if np.any(empty):
            # Mirror the per-sample fallback exactly: rows with no surviving
            # mass return their input distribution verbatim, unrenormalized.
            adjusted[empty] = probs[empty]
            totals[empty] = 1.0
        return adjusted / totals

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

    @staticmethod
    def _results_batch(
        distributions: dict[str, np.ndarray],
        choices: dict[str, np.ndarray],
        strategy: str,
        automatons: list[DecisionAutomaton],
    ) -> list[DecodingResult]:
        """Vectorized result readback for batched decoding.

        Chosen probabilities are gathered per slot in one indexing pass
        (forced rows overridden to their one-hot readback) and the joint
        log-probabilities accumulate one vectorized ``log`` per slot in slot
        order — the same addition order as the scalar path, within the
        library's 1e-9 envelope tolerance for vectorized-vs-scalar ``log``.
        """
        batch = len(automatons)
        rows = np.arange(batch)
        totals = np.zeros(batch)
        columns: dict[str, np.ndarray] = {}
        for slot, indices in choices.items():
            column = distributions[slot][rows, indices].astype(float)
            for row, automaton in enumerate(automatons):
                forced = automaton.forced.get(slot)
                if forced is not None:
                    column[row] = 1.0 if indices[row] == forced else 0.0
            columns[slot] = column
            totals += np.log(column + 1e-12)
        results = []
        for row in range(batch):
            values = {slot: DECISION_SLOTS[slot][int(indices[row])] for slot, indices in choices.items()}
            results.append(
                DecodingResult(
                    decisions=DecisionVector(**values),
                    logprob=float(totals[row]),
                    slot_probabilities={slot: float(columns[slot][row]) for slot in columns},
                    strategy=strategy,
                )
            )
        return results
