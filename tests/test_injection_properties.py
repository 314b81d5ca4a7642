"""Property-based tests for the injection substrate.

Invariants checked with hypothesis:

* every operator, applied at any point it reports, yields syntactically valid
  Python that differs from the original;
* patches always revert cleanly (the original text is retained verbatim);
* the fault-load DSL round-trips through JSON for arbitrary entries;
* every decision the compiled-grammar decode emits is accepted by the
  interpreted grammar's validator, masked decision heads never leak a
  masked-out value, and every decode matches the interpreted oracle.
"""

from __future__ import annotations

import ast
import functools

from hypothesis import given, settings, strategies as st

from repro.config import ModelConfig
from repro.injection import FaultLoad, all_operators, get_operator, operator_names
from repro.llm import CodeGrammar, FaultGenerator, constraint_slots
from repro.llm.decisions import DECISION_SLOTS
from repro.nlp import CodeAnalyzer, FaultSpecExtractor, PromptBuilder
from repro.rng import SeededRNG
from repro.targets import all_targets
from repro.types import FaultDescription

from oracles.interpreted_decode import interpreted_generator

#: A family of small but structurally varied modules for property tests.
_MODULE_TEMPLATES = [
    """
def alpha(items, threshold):
    total = 0
    for index in range(len(items)):
        if items[index] > threshold:
            total = total + items[index]
    return total
""",
    """
import threading

_lock = threading.Lock()

def beta(store, key, value, attempts=3):
    if key is None:
        raise ValueError("missing key")
    with _lock:
        store[key] = value
    return store[key]
""",
    """
def gamma(connection, payload):
    try:
        connection.send(payload)
    except ConnectionError as error:
        print("send failed", error)
        raise
    finally:
        connection.close()
    return True
""",
    """
def delta(n):
    result = 1
    while n > 1:
        result = result * n
        n = n - 1
    return result
""",
    """
def epsilon(records):
    cleaned = []
    for record in records:
        if record.get("valid"):
            cleaned.append(record["value"] * 2)
    write_output(cleaned)
    return cleaned

def write_output(data):
    return len(data)
""",
]


@st.composite
def operator_and_module(draw):
    module = draw(st.sampled_from(_MODULE_TEMPLATES))
    operator = draw(st.sampled_from(operator_names()))
    return operator, module


class TestOperatorInvariants:
    @given(operator_and_module(), st.integers(min_value=0, max_value=10))
    @settings(max_examples=120, deadline=None)
    def test_applied_mutants_are_valid_and_different(self, pair, point_choice):
        operator_name, module = pair
        operator = get_operator(operator_name)
        points = operator.find_points(module)
        if not points:
            return  # operator simply does not apply to this module
        point = points[point_choice % len(points)]
        applied = operator.apply(module, point, rng=SeededRNG(3))
        ast.parse(applied.patch.mutated)
        assert applied.patch.mutated != module
        assert applied.patch.original == module
        assert applied.description

    @given(operator_and_module())
    @settings(max_examples=60, deadline=None)
    def test_find_points_is_idempotent(self, pair):
        operator_name, module = pair
        operator = get_operator(operator_name)
        first = operator.find_points(module)
        second = operator.find_points(module)
        assert [p.to_dict() for p in first] == [p.to_dict() for p in second]

    @given(st.sampled_from(_MODULE_TEMPLATES))
    @settings(max_examples=20, deadline=None)
    def test_scanning_never_mutates_the_source(self, module):
        before = module
        for operator in all_operators():
            operator.find_points(module)
        assert module == before


class TestFaultLoadProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(operator_names()),
                st.sampled_from(["*", "alpha", "beta*", "process_*"]),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_faultload_json_round_trip(self, entries):
        load = FaultLoad(name="prop")
        for operator, pattern, max_points in entries:
            load.add(operator, pattern, max_points=max_points)
        restored = FaultLoad.from_json(load.to_json())
        assert len(restored) == len(load)
        assert [e.operator for e in restored] == [e.operator for e in load]
        assert [e.max_points for e in restored] == [e.max_points for e in load]


_PROMPT_TEXTS = [
    "Inject a timeout in the database transaction handling with retry",
    "Introduce an off-by-one error in the loop processing orders",
    "Simulate a network failure when the payment service is unavailable",
    "Make the cache lookup intermittently fail every 3rd call",
    "Corrupt the response data with low severity",
]

_DIRECTIVE_CHOICES = [
    None,
    {"handling": "retry"},
    {"handling": "fallback", "severity": "high"},
    {"trigger": "intermittent"},
    {"fault_type": "delay", "wants_unhandled": True},
]


@functools.lru_cache(maxsize=1)
def _prompt_pool():
    """Prompts across every target × description × directive combination."""
    extractor = FaultSpecExtractor()
    analyzer = CodeAnalyzer()
    builder = PromptBuilder()
    prompts = []
    for target in all_targets():
        code = target.build_source()
        for text in _PROMPT_TEXTS:
            context = analyzer.analyze(code)
            spec = extractor.extract(FaultDescription(text=text, code=code), context=context)
            analyzer.select_function(context, text, hint=spec.target.function)
            for directives in _DIRECTIVE_CHOICES:
                prompts.append(builder.build(spec, context, directives))
    return prompts


def _decode(generator, prompt, strategy):
    if strategy == "diverse":
        return generator.candidates_batch([prompt], 3)[0]
    return generator.generate_batch([prompt], greedy=strategy == "greedy")


class TestCompiledDecodeProperties:
    """Compiled-grammar decode invariants over randomized prompts and seeds."""

    @given(
        prompt_index=st.integers(min_value=0, max_value=10_000),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        strategy=st.sampled_from(["greedy", "sample", "diverse"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_compiled_decisions_are_accepted_by_the_interpreted_grammar(
        self, prompt_index, seed, strategy
    ):
        pool = _prompt_pool()
        prompt = pool[prompt_index % len(pool)]
        generator = FaultGenerator(
            ModelConfig(), rng=SeededRNG(seed, namespace="generator")
        )
        grammar = CodeGrammar()
        for candidate in _decode(generator, prompt, strategy):
            assert grammar.accepts(prompt, candidate.decisions)

    @given(
        prompt_index=st.integers(min_value=0, max_value=10_000),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        greedy=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_masked_heads_never_leak_invalid_decisions(self, prompt_index, seed, greedy):
        pool = _prompt_pool()
        prompt = pool[prompt_index % len(pool)]
        config = ModelConfig()
        generator = FaultGenerator(config, rng=SeededRNG(seed, namespace="generator"))
        automaton = generator.compiler.compile(prompt)
        candidate = generator.generate_batch([prompt], greedy=greedy)[0]
        decisions = candidate.decisions.to_dict()
        for slot, values in DECISION_SLOTS.items():
            assert automaton.allows(slot, values.index(decisions[slot]))
        for slot, value in constraint_slots(prompt, config).items():
            assert decisions[slot] == value

    @given(
        prompt_index=st.integers(min_value=0, max_value=10_000),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        strategy=st.sampled_from(["greedy", "sample", "diverse"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_decode_matches_the_interpreted_oracle(self, prompt_index, seed, strategy):
        pool = _prompt_pool()
        prompt = pool[prompt_index % len(pool)]
        generator = FaultGenerator(ModelConfig(), rng=SeededRNG(seed, namespace="generator"))
        oracle = interpreted_generator(ModelConfig(), SeededRNG(seed, namespace="generator"))
        produced, expected = _decode(generator, prompt, strategy), _decode(oracle, prompt, strategy)
        assert len(produced) == len(expected)
        for left, right in zip(produced, expected):
            assert left.fault.code == right.fault.code
            assert left.fault.fault_id == right.fault.fault_id
            assert left.logprob == right.logprob
        assert (
            generator.decoder._rng.generator.bit_generator.state
            == oracle.decoder._rng.generator.bit_generator.state
        )
