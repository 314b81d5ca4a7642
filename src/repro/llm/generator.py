"""The fault code generator: the library's stand-in for the paper's LLM.

:class:`FaultGenerator` composes the feature encoder, the policy network, the
decoder, and the code grammar into one object with an LLM-like interface:

* :meth:`generate_batch` — produce one faulty code snippet per prompt;
* :meth:`candidates_batch` — produce several diverse candidates per prompt
  (for RLHF ranking);
* :meth:`prompt_distributions` / :meth:`decode_prompt` — the one generation
  seam: a batched forward pass, then a per-row constrained decode.

so the rest of the pipeline is agnostic to whether generations come from this
offline policy or a hosted model.  The one-prompt reference loops over the
per-sample forward pass live in ``tests/oracles/per_sample.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ModelConfig
from ..rng import SeededRNG
from ..types import CodeContext, GeneratedFault, Patch, stable_fault_id
from ..nlp.prompt_builder import GenerationPrompt
from .compiled_grammar import DecisionAutomaton, DecodePlan, GrammarCompiler
from .decisions import DecisionVector
from .decoder import Decoder, DecodingResult
from .features import FeatureEncoder
from .grammar import CodeGrammar, RenderedFault
from .network import PolicyNetwork


@dataclass
class GenerationCandidate:
    """A generated fault together with its decoding metadata."""

    fault: GeneratedFault
    decisions: DecisionVector
    rendered: RenderedFault
    logprob: float


class FaultGenerator:
    """Generates faulty code snippets from structured fault specifications."""

    def __init__(
        self,
        config: ModelConfig | None = None,
        policy: PolicyNetwork | None = None,
        encoder: FeatureEncoder | None = None,
        grammar: CodeGrammar | None = None,
        decoder: Decoder | None = None,
        rng: SeededRNG | None = None,
    ) -> None:
        self.config = config or ModelConfig()
        self._rng = rng or SeededRNG(self.config.seed, namespace="generator")
        self.encoder = encoder or FeatureEncoder(self.config)
        self.policy = policy or PolicyNetwork(self.config, rng=self._rng.fork("policy"))
        self.grammar = grammar or CodeGrammar(
            rng=self._rng.fork("grammar"), cache_size=self.config.render_cache_size
        )
        self.decoder = decoder or Decoder(self.config, rng=self._rng.fork("decoder"))
        self.compiler = GrammarCompiler(self.config)

    @property
    def model_version(self) -> str:
        """Human-readable version string recorded on every generated fault."""
        return f"policy-v{self.policy.version}"

    # -- generation ---------------------------------------------------------------

    def generate_batch(
        self,
        prompts: list[GenerationPrompt],
        greedy: bool = True,
        iteration: int = 0,
        temperature: float | None = None,
    ) -> list[GenerationCandidate]:
        """Generate one fault per prompt through a single batched forward pass.

        One :meth:`prompt_distributions` forward covers every prompt; each row
        then decodes, in input order, through :meth:`decode_prompt` and the
        prompt's cached automaton.  Sampling draws from the shared decoder
        prompt by prompt, so a batch consumes the RNG stream exactly as a
        loop of one-prompt calls does.
        """
        if not prompts:
            return []
        distributions = self.prompt_distributions(prompts)
        return [
            self.decode_prompt(
                prompt,
                {slot: matrix[row] for slot, matrix in distributions.items()},
                greedy=greedy,
                temperature=temperature,
                iteration=iteration,
                automaton=self.compiler.compile(prompt),
            )
            for row, prompt in enumerate(prompts)
        ]

    def candidates_batch(
        self,
        prompts: list[GenerationPrompt],
        count: int,
        iteration: int = 0,
        temperature: float | None = None,
    ) -> list[list[GenerationCandidate]]:
        """Diverse candidate sets for many prompts per forward batch.

        The forward pass is batched; candidate decoding then proceeds prompt
        by prompt in input order, consuming the decoder RNG exactly as a loop
        of one-prompt calls does — so for a given seed both emit identical
        candidate sets.

        The decode is *dedup-aware*: rows that repeat a prompt (same cache
        key and bit-identical distribution rows) share one compiled
        automaton, one sampling
        :class:`~repro.llm.compiled_grammar.DecodePlan`, and one RNG-free
        greedy head instead of recompiling and re-truncating per row.
        Sampled attempts still run per row in input order, so the RNG stream
        — and therefore every candidate — stays identical to the per-prompt
        loop.
        """
        if not prompts:
            return []
        distributions = self.prompt_distributions(prompts)
        effective = temperature or max(self.config.temperature, 1.2)
        shared: dict[str, tuple[dict, DecisionAutomaton, DecodePlan, DecodingResult]] = {}
        results: list[list[GenerationCandidate]] = []
        for row, prompt in enumerate(prompts):
            row_distributions = {slot: matrix[row] for slot, matrix in distributions.items()}
            key = prompt.cache_key()
            entry = shared.get(key)
            if entry is not None and all(
                np.array_equal(entry[0][slot], row_distributions[slot])
                for slot in row_distributions
            ):
                _, automaton, plan, first = entry
            else:
                automaton = self.compiler.compile(prompt)
                plan = self.compiler.plan_for(
                    prompt, row_distributions, effective, self.config.top_k, self.config.top_p
                )
                first = self.decoder.greedy(row_distributions, automaton)
                shared[key] = (row_distributions, automaton, plan, first)
            decodings = self.decoder.diverse_candidates(
                row_distributions,
                count,
                temperature=temperature,
                automaton=automaton,
                plan=plan,
                first=first,
            )
            results.append(
                [
                    self._materialise(prompt, decoding, iteration, salt=str(i))
                    for i, decoding in enumerate(decodings)
                ]
            )
        return results

    # -- serving hooks ------------------------------------------------------------

    def prompt_distributions(self, prompts: list[GenerationPrompt]) -> dict:
        """Raw per-slot ``(B, |slot|)`` distributions for a prompt batch.

        :meth:`generate_batch` and the continuous-batching scheduler both run
        one batched forward pass here, then decode each row independently
        with :meth:`decode_prompt` (the scheduler with per-request decode
        parameters and seeds), which applies the prompt's constraints through
        its automaton.

        Args:
            prompts: The prompt batch.

        Returns:
            Slot name → ``(B, |slot|)`` probability matrix (read-only: the
            matrices belong to the forward result).
        """
        features = self.encoder.encode_batch(prompts)
        return self.policy.forward_batch(features).probabilities

    def decode_prompt(
        self,
        prompt: GenerationPrompt,
        distributions: dict,
        greedy: bool = True,
        decoder: Decoder | None = None,
        temperature: float | None = None,
        top_k: int | None = None,
        top_p: float | None = None,
        iteration: int = 0,
        *,
        automaton: DecisionAutomaton,
    ) -> GenerationCandidate:
        """Decode one prompt from precomputed per-slot distribution vectors.

        Args:
            prompt: The prompt the distributions were computed for.
            distributions: Raw per-slot probability *vectors* (one row sliced
                out of :meth:`prompt_distributions`).
            greedy: Argmax decoding when true, sampling otherwise.
            decoder: Decoder to draw from; defaults to the generator's shared
                decoder.  Serving passes a per-request decoder seeded from the
                request so grouping never changes a request's sample stream.
            temperature: Sampling temperature override.
            top_k: Top-k truncation override.
            top_p: Nucleus truncation override.
            iteration: Refinement iteration recorded on the fault.
            automaton: Compiled decision automaton for ``prompt``; the
                decoder jump-forwards through its force-determined slots.

        Returns:
            The rendered :class:`GenerationCandidate`.
        """
        active = decoder or self.decoder
        if greedy:
            decoding = active.greedy(distributions, automaton)
        else:
            plan = self.compiler.plan_for(
                prompt,
                distributions,
                temperature if temperature is not None else self.config.temperature,
                top_k if top_k is not None else self.config.top_k,
                top_p if top_p is not None else self.config.top_p,
            )
            decoding = active.sample(
                distributions,
                temperature=temperature,
                top_k=top_k,
                top_p=top_p,
                automaton=automaton,
                plan=plan,
            )
        return self._materialise(prompt, decoding, iteration)

    # -- internals ----------------------------------------------------------------

    def _materialise(
        self,
        prompt: GenerationPrompt,
        decoding: DecodingResult,
        iteration: int,
        salt: str = "",
    ) -> GenerationCandidate:
        rendered = self.grammar.render(prompt, decoding.decisions)
        patch = self._patch(prompt.context, rendered)
        fault_id = stable_fault_id(
            prompt.spec.description,
            rendered.function_source,
            salt=f"{iteration}:{salt}:{decoding.strategy}",
        )
        fault = GeneratedFault(
            fault_id=fault_id,
            spec=prompt.spec,
            code=rendered.function_source,
            patch=patch,
            actions=decoding.decisions.to_dict(),
            logprob=decoding.logprob,
            iteration=iteration,
            model_version=self.model_version,
            metadata={
                "strategy": decoding.strategy,
                "operator": rendered.operator,
                "notes": list(rendered.notes),
                "feedback_directives": dict(prompt.feedback_directives),
            },
        )
        return GenerationCandidate(
            fault=fault, decisions=decoding.decisions, rendered=rendered, logprob=decoding.logprob
        )

    @staticmethod
    def _patch(context: CodeContext | None, rendered: RenderedFault) -> Patch | None:
        if context is None or rendered.module_source is None:
            return None
        return Patch(
            original=context.source,
            mutated=rendered.module_source,
            target_path=context.path,
            function=rendered.function_name,
            operator=rendered.operator,
        )
