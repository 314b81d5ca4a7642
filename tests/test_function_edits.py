"""Function-scoped fault edits against the whole-module oracle.

Production edits one function and splices it into the module's cached normal
form (:func:`repro.injection.ast_utils.edit_function`); the oracle in
``oracles.whole_module`` parses, mutates, unparses and re-parses whole
modules.  Both must give byte-identical patches, rendered faults and errors,
on the shipped targets and on ``fixtures/function_edits.py``, which has the
shapes the targets lack.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.execution import cache_stats
from repro.injection import InjectionPointLocator, ast_utils, get_operator
from repro.llm import CodeGrammar
from repro.llm.decisions import DECISION_SLOTS, DecisionVector
from repro.nlp import CodeAnalyzer, FaultSpecExtractor, PromptBuilder
from repro.rng import SeededRNG
from repro.targets import all_targets
from repro.types import FaultDescription

from oracles import whole_module

FIXTURE = (Path(__file__).parent / "fixtures" / "function_edits.py").read_text()

#: The fixture opening with a def: an added ``import`` then needs a blank line.
FIXTURE_WITHOUT_PREAMBLE = FIXTURE[FIXTURE.index("\ndef close") :]

SOURCES = [target.build_source() for target in all_targets()] + [FIXTURE, FIXTURE_WITHOUT_PREAMBLE]

#: Operators that may change the module's top level: an import or a helper.
TOP_LEVEL_OPERATORS = ("inject_delay", "widen_race_window", "split_atomic_update", "return_corruption")


@functools.lru_cache(maxsize=None)
def _points(source: str):
    return InjectionPointLocator().scan(source).points


def _outcome(apply, function_source):
    """Everything an application exposes, or the error it raised."""
    try:
        applied = apply()
        return ("applied", applied.patch.to_dict(), function_source(applied), applied.description)
    except ReproError as exc:
        return ("raised", type(exc).__name__, str(exc))


def _applications(source: str, index: int, seed: int):
    point = _points(source)[index]
    operator = get_operator(point.operator)
    parameters = {"seconds": 0.01 * (seed % 5 + 1), "magnitude": seed % 3 + 1}
    produced = _outcome(
        lambda: operator.apply(source, point, rng=SeededRNG(seed), parameters=parameters),
        lambda applied: applied.function_source,
    )
    expected = _outcome(
        lambda: whole_module.apply(operator, source, point, rng=SeededRNG(seed), parameters=parameters),
        lambda applied: whole_module.function_source(applied.patch.mutated, point.function),
    )
    return produced, expected


def _cached_forms(source: str) -> tuple[str, str]:
    normal, tree = ast_utils.normal_form(source)
    return normal, ast.dump(tree, include_attributes=True)


class TestOperatorEdits:
    @given(
        source=st.sampled_from(SOURCES),
        index=st.integers(min_value=0, max_value=10_000),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_apply_matches_the_whole_module_oracle(self, source, index, seed):
        produced, expected = _applications(source, index % len(_points(source)), seed)
        assert produced == expected

    @pytest.mark.parametrize("source", [FIXTURE, FIXTURE_WITHOUT_PREAMBLE], ids=["docstring", "def-first"])
    @pytest.mark.parametrize("operator_name", TOP_LEVEL_OPERATORS)
    def test_top_level_operators_match_and_leave_the_caches_unchanged(self, source, operator_name):
        assert "import time" not in source
        before = _cached_forms(source)
        indices = [i for i, point in enumerate(_points(source)) if point.operator == operator_name]
        assert indices
        for index in indices:
            produced, expected = _applications(source, index, seed=index)
            assert produced == expected
            again, _ = _applications(source, index, seed=index)
            assert again == produced
            assert _cached_forms(source) == before

    @pytest.mark.parametrize("operator_name", TOP_LEVEL_OPERATORS[:3])
    @pytest.mark.parametrize("source", SOURCES[:-1], ids=[t.name for t in all_targets()] + ["fixture"])
    def test_an_added_import_follows_future_imports(self, source, operator_name):
        tree = ast.parse(source)
        docstring_end = tree.body[0].end_lineno
        lines = source.split("\n")
        lines.insert(docstring_end, "from __future__ import annotations")
        source = "\n".join(lines)
        indices = [i for i, point in enumerate(_points(source)) if point.operator == operator_name]
        assert indices
        for index in indices:
            produced, expected = _applications(source, index, seed=index)
            assert produced == expected
            assert produced[0] == "applied", produced
            compile(produced[1]["mutated"], "<mutant>", "exec")

    def test_every_edit_path_is_exercised_on_the_fixture(self):
        """Spliced functions and methods, with and without an added import, and the fallback."""
        normal = ast_utils.normalised_source(FIXTURE)
        seen = set()
        for index, point in enumerate(_points(FIXTURE)):
            applied = get_operator(point.operator).apply(FIXTURE, point, rng=SeededRNG(index))
            imported = applied.patch.mutated.count("import time") > normal.count("import time")
            seen.add((applied.edit.spliced, imported, point.class_name is not None))
        spliced = {(True, imported, method) for imported in (False, True) for method in (False, True)}
        fallback = {(False, False, method) for method in (False, True)}
        assert seen == spliced | fallback

    def test_no_op_errors_match(self):
        source = "def f(x):\n    try:\n        x()\n    except ValueError:\n        pass\n"
        operator = get_operator("swallow_exception")
        point = operator.find_points(source)[0]
        produced = _outcome(lambda: operator.apply(source, point), lambda applied: applied.function_source)
        expected = _outcome(lambda: whole_module.apply(operator, source, point), lambda applied: None)
        assert produced == expected
        assert produced[:2] == ("raised", "InjectionError") and "produced no change" in produced[2]


_DESCRIPTIONS = [
    "Simulate a timeout in the {name} function causing an unhandled exception",
    "Introduce an off-by-one error in the loop of {name}",
    "Make {name} fail with a network failure when the service is unavailable",
    "Corrupt the data returned by {name} every 3rd call",
    "Add a delay to {name} with high severity",
]


@functools.lru_cache(maxsize=None)
def _contexts(source: str):
    """(spec, context) per description template and function of ``source``."""
    extractor, analyzer = FaultSpecExtractor(), CodeAnalyzer()
    pairs = []
    for info in analyzer.analyze(source).functions:
        for template in _DESCRIPTIONS:
            text = template.format(name=info.name)
            context = analyzer.analyze(source)
            spec = extractor.extract(FaultDescription(text=text, code=source), context=context)
            target = dataclasses.replace(spec.target, function=info.name, class_name=info.class_name)
            spec = dataclasses.replace(spec, target=target)
            analyzer.select_function(context, text, hint=info.qualified_name)
            pairs.append((spec, context))
    return pairs


def _rendered(grammar, prompt, decisions):
    try:
        rendered = grammar.render(prompt, decisions)
    except ReproError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("rendered", rendered.function_source, rendered.module_source, rendered.operator, rendered.notes)


class TestRenderEdits:
    @given(
        source=st.sampled_from(SOURCES),
        index=st.integers(min_value=0, max_value=10_000),
        decisions=st.fixed_dictionaries({slot: st.sampled_from(values) for slot, values in DECISION_SLOTS.items()}),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_render_matches_the_whole_module_oracle(self, source, index, decisions, seed):
        pairs = _contexts(source)
        spec, context = pairs[index % len(pairs)]
        prompt = PromptBuilder().build(spec, context)
        vector = DecisionVector.from_dict(decisions)
        produced = _rendered(CodeGrammar(rng=SeededRNG(seed, namespace="grammar"), cache_size=0), prompt, vector)
        expected = _rendered(
            whole_module.WholeModuleGrammar(rng=SeededRNG(seed, namespace="grammar"), cache_size=0), prompt, vector
        )
        assert produced == expected

    def test_render_misses_parse_no_module(self):
        """A warm target's render misses add no tree to the shared parse cache."""
        source = all_targets()[0].build_source()
        grammar = CodeGrammar(cache_size=0)
        pairs = _contexts(source)
        prompts = [PromptBuilder().build(spec, context) for spec, context in pairs[:: len(_DESCRIPTIONS)]]
        vectors = [
            DecisionVector.from_dict({slot: values[i % len(values)] for slot, values in DECISION_SLOTS.items()})
            for i in range(6)
        ]
        ast_utils.parse_module(source, mutable=False)
        ast_utils.normal_form(source)
        misses = cache_stats()["ast-parse"]["misses"]
        for prompt in prompts:
            for vector in vectors:
                _rendered(grammar, prompt, vector)
        assert cache_stats()["ast-parse"]["misses"] == misses
