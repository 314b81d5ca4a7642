"""Compiled fault-grammar automatons: the decoder's constraint engine.

A prompt's decoding constraints depend only on its spec and feedback
directives, never on the sampled path, so they are compiled once per prompt.
This module borrows the compiled-grammar idiom of constrained-decoding
inference stacks (compile once per grammar, mask invalid tokens per step,
*jump forward* through force-determined runs):

* :func:`constraint_slots` — the single source of truth for which decision
  slots a prompt pins (spec-confidence template constraint plus explicit
  tester-feedback directives);
* :class:`DecisionAutomaton` — the compiled form: per-slot boolean validity
  masks, with every pinned slot a *jump-forward* transition the decoder
  resolves without touching the probability matrices;
* :class:`GrammarCompiler` — compiles and caches one automaton per prompt,
  keyed by ``prompt.cache_key()`` like the ``CodeGrammar`` render cache, with
  the same ``cache_info()`` / ``export_cache()`` / ``import_cache()`` surface
  so the engine can persist warm automatons alongside rendered faults;
* :class:`DecodePlan` — per-call sampling tables (tempered/truncated CDFs)
  that let repeated sampling replay a categorical draw with one uniform and
  one ``searchsorted`` per slot, bit-identical to ``Generator.choice``.

Equivalence contract: decoding through an automaton gives the same decisions,
log-probabilities, and decoder RNG stream as one-hotting the pinned slots of
a copy of the distributions and decoding that copy with per-attempt
temperature/truncation maths (one uniform per slot per sampled attempt, none
for greedy) — including the ~1e-12 probability tail that temperature scaling
leaves on non-forced values of a one-hot slot, which the plan reproduces by
replaying the tempered one-hot CDF instead of short-circuiting to the forced
index.  ``tests/oracles/interpreted_decode.py`` keeps that one-hot decoder as
the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ModelConfig
from ..nlp.prompt_builder import GenerationPrompt
from .cache import KeyedLruCache
from .decisions import DECISION_SLOTS

def feedback_forced_slots(prompt: GenerationPrompt) -> dict[str, str]:
    """Decision slots pinned by explicit tester feedback directives.

    The initial generation is left entirely to the learned policy, but once a
    tester states a requirement in a refinement round ("introduce a retry
    mechanism", "make it intermittent"), decoding is constrained so the
    requirement is honoured deterministically — the decision-level analogue
    of instruction-constrained decoding.
    """
    directives = prompt.feedback_directives
    forced: dict[str, str] = {}
    if not directives:
        return forced
    handling = directives.get("handling")
    if handling in DECISION_SLOTS["handling"]:
        forced["handling"] = handling
    fault_type = directives.get("fault_type")
    if fault_type in DECISION_SLOTS["template"]:
        forced["template"] = fault_type
    trigger = directives.get("trigger")
    if trigger in DECISION_SLOTS["trigger"]:
        forced["trigger"] = trigger
    severity = directives.get("severity")
    if severity in DECISION_SLOTS["severity"]:
        forced["severity"] = severity
    if directives.get("wants_retry") and "handling" not in forced:
        forced["handling"] = "retry"
    if directives.get("wants_fallback") and "handling" not in forced:
        forced["handling"] = "fallback"
    if directives.get("wants_unhandled") and "handling" not in forced:
        forced["handling"] = "unhandled"
    return forced


def spec_constraint(prompt: GenerationPrompt, config: ModelConfig) -> dict[str, str]:
    """Pin the fault template to the spec's fault type when extraction is confident.

    The structured specification *is* the contract between the tester and the
    generator: when the NLP engine is confident about the requested fault
    type, the model's freedom lies in how to realise it (handling, trigger,
    placement, severity), not in which fault to produce.  Disabled via
    ``ModelConfig.constrain_to_spec`` for the ablation benchmark.
    """
    if not config.constrain_to_spec:
        return {}
    spec = prompt.spec
    if spec.fault_type.value not in DECISION_SLOTS["template"]:
        return {}
    if spec.confidence < config.spec_constraint_threshold:
        return {}
    return {"template": spec.fault_type.value}


def constraint_slots(prompt: GenerationPrompt, config: ModelConfig) -> dict[str, str]:
    """Every decision slot the grammar pins for ``prompt`` (feedback wins).

    The spec constraint first, explicit feedback directives layered on top.
    """
    constraints = spec_constraint(prompt, config)
    constraints.update(feedback_forced_slots(prompt))
    return constraints


@dataclass
class DecisionAutomaton:
    """The compiled decoding constraints of one prompt.

    ``masks`` holds one boolean validity vector per decision slot (``True``
    entries are decodable).  Constraints pin exactly one value per slot, so
    every constrained slot is *forced*: ``forced`` maps it to the pinned
    index and the decoder *jumps forward* — resolves the slot from the
    automaton instead of running argmax/sampling machinery over the
    probability matrix.  ``jump_forward_taken`` counts the jump shortcuts; it
    is a plain integer (not lock-protected), so under concurrent decoding it
    is approximate — it exists for observability and tests, not billing.

    Automatons are plain data (numpy bool vectors + ints) and pickle cleanly
    for :meth:`GrammarCompiler.export_cache` persistence.
    """

    masks: dict[str, np.ndarray]
    forced: dict[str, int] = field(default_factory=dict)
    jump_forward_taken: int = 0

    @classmethod
    def from_constraints(cls, constraints: dict[str, str]) -> "DecisionAutomaton":
        """Compile a slot->value constraint mapping into masks + jumps."""
        masks: dict[str, np.ndarray] = {}
        forced: dict[str, int] = {}
        for slot, values in DECISION_SLOTS.items():
            mask = np.ones(len(values), dtype=bool)
            pinned = constraints.get(slot)
            if pinned is not None:
                forced[slot] = values.index(pinned)
                mask[:] = False
                mask[forced[slot]] = True
            masks[slot] = mask
        return cls(masks=masks, forced=forced)

    def is_forced(self, slot: str) -> bool:
        """Whether ``slot`` is fully force-determined (a jump-forward edge)."""
        return slot in self.forced

    def allows(self, slot: str, index: int) -> bool:
        """Whether decision ``index`` is valid for ``slot`` under the masks."""
        return bool(self.masks[slot][index])


class DecodePlan:
    """Precomputed per-slot sampling tables for one (distributions, params) pair.

    A plan runs temperature scaling and top-k/top-p truncation once instead
    of per sampled attempt, and replays each categorical draw as
    ``cdf.searchsorted(u, 'right')`` — the exact formula
    ``numpy.random.Generator.choice`` applies internally, so replayed indices
    (and the RNG stream) are bit-identical to a per-attempt ``choice`` draw.
    Forced slots keep a CDF too (the tempered one-hot): burning one uniform
    through it per attempt reproduces the one-hot decode's stream *and* its
    residual ~1e-12 tail mass exactly.
    """

    __slots__ = ("cdfs", "forced")

    def __init__(self, cdfs: dict[str, np.ndarray], forced: dict[str, int]) -> None:
        self.cdfs = cdfs
        self.forced = forced

    @classmethod
    def for_sampling(
        cls,
        distributions: dict[str, np.ndarray],
        automaton: DecisionAutomaton,
        temperature: float,
        top_k: int | None,
        top_p: float | None,
    ) -> "DecodePlan":
        """Build the replay tables from *raw* per-slot probability vectors."""
        from .decoder import Decoder

        cdfs: dict[str, np.ndarray] = {}
        forced: dict[str, int] = {}
        for slot, probs in distributions.items():
            index = automaton.forced.get(slot)
            if index is not None:
                base = np.zeros_like(probs)
                base[index] = 1.0
                forced[slot] = index
            else:
                base = probs
            adjusted = Decoder._apply_temperature(base, temperature)
            adjusted = Decoder._truncate(adjusted, top_k, top_p)
            cdf = adjusted.cumsum()
            cdf /= cdf[-1]
            cdfs[slot] = cdf
        return cls(cdfs=cdfs, forced=forced)

    def replay(self, slot: str, uniform: float) -> int:
        """The index ``Generator.choice`` would return for draw ``uniform``."""
        return int(self.cdfs[slot].searchsorted(uniform, side="right"))


class GrammarCompiler:
    """Compiles prompts into cached :class:`DecisionAutomaton` objects.

    Keyed by ``prompt.cache_key()`` — the same key space as the
    ``CodeGrammar`` render cache — with an LRU bound of
    ``ModelConfig.compiled_cache_size`` entries (``0`` disables caching and
    recompiles per call).  Exposes the library's standard ``cache_info()`` /
    ``export_cache()`` / ``import_cache()`` persistence surface; automatons
    only depend on the prompt and the model config's constraint settings, so
    import snapshots only from a compiler with the same configuration (cache
    files are trusted input, as with the other caches).
    """

    def __init__(self, config: ModelConfig | None = None, cache_size: int | None = None) -> None:
        self._config = config or ModelConfig()
        bound = self._config.compiled_cache_size if cache_size is None else cache_size
        self._cache = KeyedLruCache(bound)
        self._plans = KeyedLruCache(bound)

    def compile(self, prompt: GenerationPrompt) -> DecisionAutomaton:
        """The (cached) compiled automaton for ``prompt``."""
        if not self._cache.enabled:
            return DecisionAutomaton.from_constraints(constraint_slots(prompt, self._config))
        key = prompt.cache_key()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        automaton = DecisionAutomaton.from_constraints(constraint_slots(prompt, self._config))
        self._cache.put(key, automaton)
        return automaton

    def plan_for(
        self,
        prompt: GenerationPrompt,
        distributions: dict[str, np.ndarray],
        temperature: float,
        top_k: int | None,
        top_p: float | None,
    ) -> DecodePlan:
        """The (cached) sampling plan for ``prompt`` under these parameters.

        The policy is frozen while serving, so a prompt's raw distributions —
        and therefore its replay CDFs — are stable across calls; rebuilding
        the tempered/truncated tables per call is the single largest cost of
        repeated compiled sampling.  Plans are cached per
        ``(prompt, temperature, top_k, top_p)`` and guarded by an exact
        array comparison against the distributions they were built from: if
        the policy's output for the prompt changes (training step, different
        checkpoint), the stale plan is rebuilt instead of replayed.  The plan
        cache is in-memory only — unlike automatons, plans embed policy
        outputs, so they are not part of :meth:`export_cache` snapshots.
        """
        automaton = self.compile(prompt)
        if not self._plans.enabled:
            return DecodePlan.for_sampling(distributions, automaton, temperature, top_k, top_p)
        key = (prompt.cache_key(), float(temperature), top_k, top_p)
        entry = self._plans.get(key)
        if entry is not None:
            cached_distributions, plan = entry
            if all(
                np.array_equal(cached_distributions[slot], distributions[slot])
                for slot in distributions
            ):
                return plan
        plan = DecodePlan.for_sampling(distributions, automaton, temperature, top_k, top_p)
        snapshot = {slot: probs.copy() for slot, probs in distributions.items()}
        self._plans.put(key, (snapshot, plan))
        return plan

    def cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters of the automaton cache."""
        return self._cache.cache_info()

    def export_cache(self) -> dict:
        """A snapshot of the compiled automatons for cross-process persistence."""
        return self._cache.export()

    def import_cache(self, entries: dict) -> int:
        """Merge previously exported automatons, respecting the LRU bound.

        Returns:
            The number of entries actually installed.
        """
        return self._cache.import_entries(entries)
