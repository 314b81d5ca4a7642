"""Differential tests: compiled grammar decode vs the interpreted oracle.

The compiled path (automaton masks + jump-forward + CDF replay) must be
observationally indistinguishable from the interpreted constrained decode in
``tests/oracles/interpreted_decode.py``: byte-identical rendered faults and an
identical decoder RNG stream for every target and every decoding strategy.
Both sides generate through the production seam (``generate_batch`` /
``candidates_batch``); only the decoder differs.
"""

from __future__ import annotations

import pytest

from repro.config import ModelConfig
from repro.llm import (
    DecisionAutomaton,
    FaultGenerator,
    GrammarCompiler,
    constraint_slots,
)
from repro.llm.compiled_grammar import DecodePlan
from repro.nlp import CodeAnalyzer, FaultSpecExtractor, PromptBuilder
from repro.rng import SeededRNG
from repro.targets import all_targets
from repro.types import FaultDescription

from oracles.interpreted_decode import constrain, constrained_distributions_batch, interpreted_generator

DESCRIPTIONS = [
    "Inject a timeout in the database transaction handling with retry",
    "Introduce an off-by-one error in the loop processing orders",
    "Simulate a network failure when the payment service is unavailable",
    "Make the cache lookup intermittently fail every 3rd call",
]


def build_prompts():
    """One prompt per (target, description) across all four targets."""
    extractor = FaultSpecExtractor()
    analyzer = CodeAnalyzer()
    builder = PromptBuilder()
    prompts = []
    for target in all_targets():
        code = target.build_source()
        for text in DESCRIPTIONS:
            context = analyzer.analyze(code)
            spec = extractor.extract(FaultDescription(text=text, code=code), context=context)
            analyzer.select_function(context, text, hint=spec.target.function)
            prompts.append(builder.build(spec, context))
    return prompts


@pytest.fixture(scope="module")
def prompts():
    return build_prompts()


def make_generator(seed: int = 11) -> FaultGenerator:
    return FaultGenerator(ModelConfig(), rng=SeededRNG(seed, namespace="generator"))


def make_oracle(seed: int = 11) -> FaultGenerator:
    return interpreted_generator(ModelConfig(), SeededRNG(seed, namespace="generator"))


def generate(generator: FaultGenerator, prompt, greedy: bool = True):
    return generator.generate_batch([prompt], greedy=greedy)[0]


def rng_state(generator: FaultGenerator):
    return generator.decoder._rng.generator.bit_generator.state


def assert_same_candidate(a, b):
    assert a.decisions == b.decisions
    assert a.fault.fault_id == b.fault.fault_id
    assert a.fault.code == b.fault.code
    assert a.fault.metadata == b.fault.metadata
    assert a.logprob == b.logprob


class TestDifferentialEquivalence:
    """Compiled output is byte-identical to interpreted on every target."""

    def test_greedy_matches_and_consumes_no_rng(self, prompts):
        interpreted, compiled = make_oracle(), make_generator()
        before = rng_state(compiled)
        for prompt in prompts:
            assert_same_candidate(
                generate(interpreted, prompt, greedy=True),
                generate(compiled, prompt, greedy=True),
            )
        assert rng_state(compiled) == before
        assert rng_state(interpreted) == before

    def test_sampled_stream_is_bit_identical(self, prompts):
        interpreted, compiled = make_oracle(), make_generator()
        for prompt in prompts:
            assert_same_candidate(
                generate(interpreted, prompt, greedy=False),
                generate(compiled, prompt, greedy=False),
            )
            # The RNG streams stay aligned after *every* prompt, not just at
            # the end — each sampled slot consumes exactly one uniform.
            assert rng_state(interpreted) == rng_state(compiled)

    def test_diverse_candidates_match(self, prompts):
        interpreted, compiled = make_oracle(), make_generator()
        for prompt in prompts:
            for a, b in zip(
                interpreted.candidates_batch([prompt], 4)[0], compiled.candidates_batch([prompt], 4)[0]
            ):
                assert_same_candidate(a, b)
            assert rng_state(interpreted) == rng_state(compiled)

    def test_batched_paths_match(self, prompts):
        interpreted, compiled = make_oracle(), make_generator()
        for greedy in (True, False):
            batch_a = interpreted.generate_batch(prompts, greedy=greedy)
            batch_b = compiled.generate_batch(prompts, greedy=greedy)
            for a, b in zip(batch_a, batch_b):
                assert_same_candidate(a, b)
            assert rng_state(interpreted) == rng_state(compiled)

    def test_candidates_batch_matches_with_duplicates(self, prompts):
        duplicated = [prompts[0], prompts[1]] * 3 + [prompts[2]]
        interpreted, compiled = make_oracle(), make_generator()
        batch_a = interpreted.candidates_batch(duplicated, 4)
        batch_b = compiled.candidates_batch(duplicated, 4)
        for row_a, row_b in zip(batch_a, batch_b):
            for a, b in zip(row_a, row_b):
                assert_same_candidate(a, b)
        assert rng_state(interpreted) == rng_state(compiled)

    def test_feedback_directives_still_honoured(self, prompts, extractor, prompt_builder):
        base = prompts[0]
        directives = {"handling": "retry", "severity": "high"}
        prompt = prompt_builder.build(base.spec, base.context, feedback_directives=directives)
        interpreted, compiled = make_oracle(), make_generator()
        a = generate(interpreted, prompt, greedy=True)
        b = generate(compiled, prompt, greedy=True)
        assert_same_candidate(a, b)
        assert b.decisions.handling == "retry"
        assert b.decisions.severity == "high"


class TestAutomaton:
    def test_constraints_become_forced_jump_edges(self, prompts, prompt_builder):
        base = prompts[0]
        prompt = prompt_builder.build(
            base.spec, base.context, feedback_directives={"handling": "retry"}
        )
        config = ModelConfig()
        automaton = DecisionAutomaton.from_constraints(constraint_slots(prompt, config))
        assert automaton.is_forced("handling")
        assert not automaton.is_forced("placement")
        assert automaton.allows("handling", automaton.forced["handling"])
        free = [i for i in range(len(automaton.masks["handling"])) if automaton.allows("handling", i)]
        assert free == [automaton.forced["handling"]]

    def test_jump_forward_taken_counts_forced_slots(self, prompts):
        compiled = make_generator()
        prompt = prompts[0]
        automaton = compiled.compiler.compile(prompt)
        forced = len(automaton.forced)
        assert forced >= 1  # the confident spec pins the template slot
        before = automaton.jump_forward_taken
        generate(compiled, prompt, greedy=True)
        assert automaton.jump_forward_taken == before + forced
        generate(compiled, prompt, greedy=False)
        assert automaton.jump_forward_taken == before + 2 * forced

    def test_automaton_pins_what_constraint_slots_pin(self, prompts):
        # The oracle decoder one-hots from ``automaton.forced``; the benchmark
        # baseline one-hots from ``constraint_slots``.  Both must agree.
        compiled = make_generator()
        for prompt in prompts:
            batch = constrained_distributions_batch(compiled, [prompt])
            raw = {slot: matrix[0] for slot, matrix in compiled.prompt_distributions([prompt]).items()}
            adapted = constrain(raw, compiled.compiler.compile(prompt))
            for slot, matrix in batch.items():
                assert (adapted[slot] == matrix[0]).all()


class TestCompilerCache:
    def test_cache_hit_miss_counters(self, prompts):
        compiler = GrammarCompiler(ModelConfig())
        first = compiler.compile(prompts[0])
        assert compiler.cache_info() == {"hits": 0, "misses": 1, "size": 1, "max_size": 512}
        again = compiler.compile(prompts[0])
        assert again is first
        assert compiler.cache_info()["hits"] == 1
        compiler.compile(prompts[1])
        info = compiler.cache_info()
        assert info["misses"] == 2 and info["size"] == 2

    def test_cache_size_zero_disables_caching(self, prompts):
        compiler = GrammarCompiler(ModelConfig(compiled_cache_size=0))
        a = compiler.compile(prompts[0])
        b = compiler.compile(prompts[0])
        assert a is not b
        assert compiler.cache_info() == {"hits": 0, "misses": 0, "size": 0, "max_size": 0}

    def test_lru_bound_is_respected(self, prompts):
        compiler = GrammarCompiler(ModelConfig(compiled_cache_size=2))
        for prompt in prompts[:3]:
            compiler.compile(prompt)
        info = compiler.cache_info()
        assert info["size"] == 2 and info["max_size"] == 2
        # The oldest entry was evicted: recompiling it is a miss.
        misses = info["misses"]
        compiler.compile(prompts[0])
        assert compiler.cache_info()["misses"] == misses + 1

    def test_export_import_round_trip(self, prompts):
        source = GrammarCompiler(ModelConfig())
        for prompt in prompts[:3]:
            source.compile(prompt)
        snapshot = source.export_cache()
        assert len(snapshot) == 3

        fresh = GrammarCompiler(ModelConfig())
        assert fresh.import_cache(snapshot) == 3
        hits_before = fresh.cache_info()["hits"]
        for prompt in prompts[:3]:
            restored = fresh.compile(prompt)
            direct = DecisionAutomaton.from_constraints(constraint_slots(prompt, ModelConfig()))
            assert restored.forced == direct.forced
            for slot, mask in direct.masks.items():
                assert (restored.masks[slot] == mask).all()
        assert fresh.cache_info()["hits"] == hits_before + 3
        assert fresh.cache_info()["misses"] == 0

    def test_import_respects_disabled_cache(self, prompts):
        source = GrammarCompiler(ModelConfig())
        source.compile(prompts[0])
        disabled = GrammarCompiler(ModelConfig(compiled_cache_size=0))
        assert disabled.import_cache(source.export_cache()) == 0


class TestDecodePlan:
    def test_forced_slots_replay_the_tempered_tail(self, prompts):
        compiled = make_generator()
        prompt = prompts[0]
        automaton = compiled.compiler.compile(prompt)
        raw = {slot: matrix[0] for slot, matrix in compiled.prompt_distributions([prompt]).items()}
        plan = DecodePlan.for_sampling(raw, automaton, temperature=1.0, top_k=None, top_p=None)
        for slot, index in automaton.forced.items():
            assert plan.forced[slot] == index
            # Any draw outside the ~1e-12 residual tail hits the forced
            # value; the tail itself is deliberately preserved (the
            # interpreted sampler has it too), which is why the plan replays
            # the tempered one-hot instead of short-circuiting.
            assert plan.replay(slot, 1e-6) == index
            assert plan.replay(slot, 0.5) == index
            assert plan.replay(slot, 1.0 - 1e-9) == index
