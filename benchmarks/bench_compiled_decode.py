"""BENCH_COMPILED_DECODE — compiled grammar automatons vs interpreted decoding.

The interpreted constrained decode (``tests/oracles/interpreted_decode.py``)
re-derives every prompt's constraint set per call, copies the policy's
probability matrices to one-hot the pinned rows, and re-runs
temperature/truncation maths for every sampled attempt of every slot.  The
library's decoder (``repro.llm.compiled_grammar``) compiles each prompt's
constraints once into a cached :class:`DecisionAutomaton`, jumps forward
through force-determined slots, and replays sampled draws through
precomputed :class:`DecodePlan` CDF tables.

Workloads, each asserted byte-identical to the interpreted oracle (rendered
faults, decision vectors, log-probabilities, and the decoder RNG stream):

* ``generation_decode`` — the decode-bound slice of the multi-prompt
  candidate-generation workload from ``bench_policy_inference``: per-prompt
  distributions plus diverse candidate decoding, without the (cached,
  decode-independent) fault rendering.  Gated >= 3x.
* ``duplicate_candidates`` — the dedup-aware ``candidates_batch`` end to end
  on a duplicate-heavy batch (duplicates share one compiled automaton, one
  sampling plan, and one RNG-free greedy head).  Render-bound, so reported
  but not floor-gated.
* ``compile_cache`` — automaton compilation with the LRU cache against
  recompiling per call (``compiled_cache_size=0``).

``BENCH_QUICK=1`` shrinks the workload sizes for CI smoke runs.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from repro.config import ModelConfig
from repro.llm import CodeGrammar, DecisionAutomaton, FaultGenerator
from repro.nlp import CodeAnalyzer, FaultSpecExtractor, PromptBuilder
from repro.rng import SeededRNG
from repro.targets import get_target

from conftest import write_result

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.interpreted_decode import constrained_distributions_batch, interpreted_generator  # noqa: E402

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

SCENARIOS = [
    "Simulate a timeout in the transfer function causing an unhandled exception",
    "Introduce a race condition in apply_interest under concurrent updates",
    "Make the withdraw function silently swallow errors instead of raising them",
    "Remove the overdraft validation check from withdraw",
    "Silently corrupt the amount returned by the transfer function",
    "Cause deposit to lose updates under load",
    "Make transfer return a wrong value without raising",
    "Inject a delay into apply_interest that slows every statement run",
    "Raise an unexpected exception in deposit when the amount is small",
    "Corrupt the balance bookkeeping inside withdraw",
    "Make apply_interest skip accounts intermittently",
    "Introduce an off-by-one error in the interest calculation",
    "Swallow the gateway error raised during transfer",
    "Return early from withdraw before the ledger is updated",
    "Invert the overdraft condition in withdraw",
    "Make deposit double-count the amount occasionally",
    "Make transfer debit the source account twice for the same movement",
    "Leak the audit log handle opened by apply_interest",
    "Make the statement function report stale balances",
    "Raise a timeout while the ledger lock is held in transfer",
]

PROMPT_COUNT = 10 if QUICK else 20
DECODE_ROUNDS = 8 if QUICK else 20
CANDIDATES_PER_PROMPT = 4
DUPLICATE_COPIES = 4 if QUICK else 8
DUPLICATE_ROUNDS = 2 if QUICK else 5
COMPILE_CALLS = 500 if QUICK else 2000
MIN_SPEEDUP = 3.0


def build_prompts():
    source = get_target("bank").build_source()
    extractor = FaultSpecExtractor()
    analyzer = CodeAnalyzer()
    builder = PromptBuilder()
    prompts = []
    for text in SCENARIOS[:PROMPT_COUNT]:
        spec = extractor.extract_from_text(text, source)
        context = analyzer.analyze(source)
        analyzer.select_function(context, text, hint=spec.target.function)
        prompts.append(builder.build(spec, context))
    return prompts


def make_generator(compiled: bool) -> FaultGenerator:
    rng = SeededRNG(17, namespace="generator")
    if compiled:
        return FaultGenerator(ModelConfig(), rng=rng)
    return interpreted_generator(ModelConfig(), rng)


def rng_state(generator: FaultGenerator):
    return generator.decoder._rng.generator.bit_generator.state


def assert_rendered_identical(prompt, interpreted_result, compiled_result, grammar):
    """Rendered faults must be byte-identical, not merely decision-equal."""
    assert interpreted_result.decisions == compiled_result.decisions
    assert interpreted_result.logprob == compiled_result.logprob
    left = grammar.render(prompt, interpreted_result.decisions)
    right = grammar.render(prompt, compiled_result.decisions)
    assert left.function_source == right.function_source
    assert left.module_source == right.module_source


# -- workloads -----------------------------------------------------------------


def measure_generation_decode(prompts):
    """The decode-bound slice: distributions + diverse candidate decoding.

    The interpreted reference is the decode without automatons: one
    constrained batch copy per round pinned from ``constraint_slots``, then
    temperature/truncation and ``Generator.choice`` per sampled attempt
    (the rows are already constrained, so the oracle decodes them under an
    unconstrained automaton).  Rendering is excluded from the timed region
    on both sides — the render cache is decode-independent and would drown
    the decode cost being measured.
    """
    interpreted = make_generator(False)
    compiled = make_generator(True)
    unconstrained = DecisionAutomaton.from_constraints({})

    started = time.perf_counter()
    interpreted_rounds = []
    for _round in range(DECODE_ROUNDS):
        distributions = constrained_distributions_batch(interpreted, prompts)
        row_results = []
        for row in range(len(prompts)):
            row_distributions = {slot: matrix[row] for slot, matrix in distributions.items()}
            row_results.append(
                interpreted.decoder.diverse_candidates(
                    row_distributions, CANDIDATES_PER_PROMPT, automaton=unconstrained
                )
            )
        interpreted_rounds.append(row_results)
    interpreted_seconds = time.perf_counter() - started

    started = time.perf_counter()
    compiled_rounds = []
    for _round in range(DECODE_ROUNDS):
        distributions = compiled.prompt_distributions(prompts)
        row_results = []
        for row, prompt in enumerate(prompts):
            row_distributions = {slot: matrix[row] for slot, matrix in distributions.items()}
            automaton = compiled.compiler.compile(prompt)
            plan = compiled.compiler.plan_for(
                prompt,
                row_distributions,
                max(compiled.config.temperature, 1.2),
                compiled.config.top_k,
                compiled.config.top_p,
            )
            row_results.append(
                compiled.decoder.diverse_candidates(
                    row_distributions, CANDIDATES_PER_PROMPT, automaton=automaton, plan=plan
                )
            )
        compiled_rounds.append(row_results)
    compiled_seconds = time.perf_counter() - started

    assert rng_state(interpreted) == rng_state(compiled), "decoder RNG streams diverged"
    grammar = CodeGrammar()
    for interpreted_round, compiled_round, in zip(interpreted_rounds, compiled_rounds):
        for prompt, row_a, row_b in zip(prompts, interpreted_round, compiled_round):
            for result_a, result_b in zip(row_a, row_b):
                assert_rendered_identical(prompt, result_a, result_b, grammar)

    jump_taken = sum(
        automaton.jump_forward_taken for automaton in compiled.compiler.export_cache().values()
    )
    return {
        "prompts": len(prompts),
        "rounds": DECODE_ROUNDS,
        "candidates_per_prompt": CANDIDATES_PER_PROMPT,
        "interpreted_seconds": round(interpreted_seconds, 4),
        "compiled_seconds": round(compiled_seconds, 4),
        "speedup": round(interpreted_seconds / compiled_seconds, 2),
        "jump_forward_taken": jump_taken,
        "automaton_cache": compiled.compiler.cache_info(),
    }


def measure_duplicate_candidates(prompts):
    """Dedup-aware ``candidates_batch`` end to end on a duplicate-heavy batch."""
    unique = prompts[:4]
    batch = unique * DUPLICATE_COPIES
    interpreted = make_generator(False)
    compiled = make_generator(True)
    # Warm the decode-independent caches (encoder, render) on both sides so
    # the comparison is between steady-state decodes, not first-touch misses.
    interpreted.candidates_batch(batch, CANDIDATES_PER_PROMPT)
    compiled.candidates_batch(batch, CANDIDATES_PER_PROMPT)

    started = time.perf_counter()
    interpreted_rounds = [
        interpreted.candidates_batch(batch, CANDIDATES_PER_PROMPT)
        for _round in range(DUPLICATE_ROUNDS)
    ]
    interpreted_seconds = time.perf_counter() - started

    started = time.perf_counter()
    compiled_rounds = [
        compiled.candidates_batch(batch, CANDIDATES_PER_PROMPT)
        for _round in range(DUPLICATE_ROUNDS)
    ]
    compiled_seconds = time.perf_counter() - started

    assert rng_state(interpreted) == rng_state(compiled), "decoder RNG streams diverged"
    for interpreted_round, compiled_round in zip(interpreted_rounds, compiled_rounds):
        for row_a, row_b in zip(interpreted_round, compiled_round):
            for candidate_a, candidate_b in zip(row_a, row_b):
                assert candidate_a.fault.fault_id == candidate_b.fault.fault_id
                assert candidate_a.fault.code == candidate_b.fault.code
                assert candidate_a.logprob == candidate_b.logprob

    return {
        "unique_prompts": len(unique),
        "batch_rows": len(batch),
        "rounds": DUPLICATE_ROUNDS,
        "interpreted_seconds": round(interpreted_seconds, 4),
        "compiled_seconds": round(compiled_seconds, 4),
        "speedup": round(interpreted_seconds / compiled_seconds, 2),
        "automaton_cache": compiled.compiler.cache_info(),
    }


def measure_compile_cache(prompts):
    """Cached automaton compilation vs recompiling the grammar per call."""
    from repro.llm import GrammarCompiler

    uncached = GrammarCompiler(ModelConfig(compiled_cache_size=0))
    started = time.perf_counter()
    for call in range(COMPILE_CALLS):
        uncached.compile(prompts[call % len(prompts)])
    uncached_seconds = time.perf_counter() - started

    cached = GrammarCompiler(ModelConfig())
    started = time.perf_counter()
    for call in range(COMPILE_CALLS):
        cached.compile(prompts[call % len(prompts)])
    cached_seconds = time.perf_counter() - started

    info = cached.cache_info()
    assert info["misses"] == len(prompts)
    assert info["hits"] == COMPILE_CALLS - len(prompts)
    return {
        "calls": COMPILE_CALLS,
        "uncached_seconds": round(uncached_seconds, 4),
        "cached_seconds": round(cached_seconds, 4),
        "speedup": round(uncached_seconds / cached_seconds, 2),
        "automaton_cache": info,
    }


def test_compiled_decode_throughput():
    prompts = build_prompts()
    workloads = {
        "generation_decode": measure_generation_decode(prompts),
        "duplicate_candidates": measure_duplicate_candidates(prompts),
        "compile_cache": measure_compile_cache(prompts),
    }

    rows = ["workload               interpreted-s   compiled-s   speedup"]
    for label, stats in workloads.items():
        interpreted = stats.get("interpreted_seconds", stats.get("uncached_seconds"))
        compiled = stats.get("compiled_seconds", stats.get("cached_seconds"))
        rows.append(
            f"{label:<22} {interpreted:>13.4f}   {compiled:>10.4f}   {stats['speedup']:>7.2f}"
        )
    payload = {"quick": QUICK, "min_speedup": MIN_SPEEDUP, "workloads": workloads}
    write_result("compiled_decode", payload, table="\n".join(rows))

    # The acceptance bar: the decode-bound generation path beats the
    # interpreted oracle >= 3x.  The duplicate-heavy end-to-end workload is
    # render-bound (the render cache dominates either way) and is reported,
    # not gated.
    assert workloads["generation_decode"]["speedup"] >= MIN_SPEEDUP, payload
    assert workloads["compile_cache"]["speedup"] >= MIN_SPEEDUP, payload
