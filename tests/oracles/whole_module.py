"""Whole-module fault composition: the reference for function-scoped edits.

Production applies an operator, or splices a rendered scenario, by editing a
private parse of the target function alone and splicing its text into the
module's cached normal form (:func:`repro.injection.ast_utils.edit_function`).
This module keeps the composition that shortcut must reproduce byte for byte:
parse the whole module privately, mutate the function in that tree, unparse
the whole tree, and parse the whole result again to read the function back
and to validate the module.

:class:`WholeModuleGrammar` renders through these functions; it plugs into a
generator through the ``grammar=`` seam of :class:`~repro.llm.FaultGenerator`.
"""

from __future__ import annotations

import ast

from repro.errors import CodeAnalysisError, GrammarError, InjectionError, NoInjectionPointError
from repro.injection import ast_utils, get_operator
from repro.injection.operators import AppliedFault, FaultOperator, InjectionPoint
from repro.llm.grammar import MUTATION_OPERATORS, CodeGrammar, RenderedFault
from repro.rng import SeededRNG
from repro.types import Patch


def apply(
    operator: FaultOperator,
    source: str,
    point: InjectionPoint,
    rng: SeededRNG | None = None,
    parameters: dict | None = None,
    target_path: str | None = None,
) -> AppliedFault:
    """``operator.apply`` composed on a private parse of the whole module."""
    if point.operator != operator.name:
        raise InjectionError(f"point was produced by operator {point.operator!r}", operator=operator.name)
    rng = rng or SeededRNG(0, namespace=operator.name)
    parameters = dict(parameters or {})
    tree = ast_utils.parse_module(source, path=target_path)
    for function, class_name in ast_utils.iter_functions(tree):
        if function.name == point.function and class_name == point.class_name:
            break
    else:
        raise NoInjectionPointError(
            f"function {point.qualified_function!r} not present in source", operator=operator.name
        )
    operator._mutate(tree, function, point, rng, parameters)
    mutated = ast_utils.unparse(tree)
    if mutated == source or mutated == ast_utils.unparse(ast_utils.parse_module(source, path=target_path)):
        raise InjectionError(
            f"operator {operator.name} produced no change at {point.qualified_function}:{point.lineno}",
            operator=operator.name,
        )
    patch = Patch(
        original=source,
        mutated=mutated,
        target_path=target_path,
        function=point.qualified_function,
        lineno=point.lineno,
        operator=operator.name,
    )
    return AppliedFault(
        operator=operator.name,
        fault_type=operator.fault_type,
        point=point,
        patch=patch,
        description=operator.describe(point, parameters),
        edit=ast_utils.FunctionEdit(mutated, point.function),
        parameters=parameters,
    )


def function_source(source: str, name: str) -> str:
    """The function's text, read from a private parse of the whole module."""
    node = ast_utils.find_function(ast_utils.parse_module(source), name)
    if node is None:
        raise CodeAnalysisError(f"function {name!r} not found in target code")
    return ast.get_source_segment(source, node)


def replace_function_source(module_source: str, function_name: str, new_function_source: str) -> str:
    """Swap one function's arguments and body in a whole-module parse and unparse it."""
    replacement_tree = ast_utils.parse_module(new_function_source)
    functions = [n for n, _cls in ast_utils.iter_functions(replacement_tree)]
    if len(functions) != 1:
        raise CodeAnalysisError("replacement source must define exactly one function")
    replacement = functions[0]
    if replacement.name != function_name.split(".")[-1]:
        raise CodeAnalysisError(
            f"replacement defines {replacement.name!r}, expected {function_name!r}"
        )
    tree = ast_utils.parse_module(module_source)
    target = ast_utils.find_function(tree, function_name)
    if target is None:
        raise CodeAnalysisError(f"function {function_name!r} not found in target module")
    target.args = replacement.args
    target.body = replacement.body
    return ast_utils.unparse(tree)


def validate(rendered: RenderedFault) -> None:
    """Parse the rendered function and, whole, the rendered module."""
    try:
        ast.parse(rendered.function_source)
    except SyntaxError as exc:
        raise GrammarError(f"generated function is not valid Python: {exc}") from exc
    if rendered.module_source is not None:
        try:
            ast.parse(rendered.module_source)
        except SyntaxError as exc:
            raise GrammarError(f"generated module is not valid Python: {exc}") from exc


class WholeModuleGrammar(CodeGrammar):
    """A :class:`CodeGrammar` whose render paths work on whole modules."""

    def _render_with_operators(self, module_source, function_name, fault_type, spec, decisions):
        bare_name = function_name.split(".")[-1]
        parameters = self._operator_parameters(spec, decisions)
        for operator_name in MUTATION_OPERATORS[fault_type]:
            operator = get_operator(operator_name)
            points = [
                point
                for point in operator.find_points(module_source)
                if point.function == bare_name or point.qualified_function == function_name
            ]
            if not points:
                continue
            try:
                applied = apply(
                    operator,
                    module_source,
                    points[0],
                    rng=self._rng.fork(f"render:{operator_name}"),
                    parameters=parameters,
                )
            except InjectionError:
                continue
            rendered = RenderedFault(
                function_name=function_name,
                function_source=function_source(applied.patch.mutated, bare_name),
                module_source=applied.patch.mutated,
                original_module_source=module_source,
                operator=operator_name,
                notes=[applied.description],
            )
            validate(rendered)
            return rendered
        return None

    def _render_scenario(self, prompt, decisions, function_name, module_source):
        bare_name = function_name.split(".")[-1]
        text, notes = self._scenario_function(prompt, decisions, bare_name)
        new_module_source = None
        if module_source is not None:
            try:
                new_module_source = replace_function_source(module_source, bare_name, text)
            except Exception as exc:
                raise GrammarError(f"failed to splice generated function into module: {exc}") from exc
        rendered = RenderedFault(
            function_name=function_name,
            function_source=text,
            module_source=new_module_source,
            original_module_source=module_source,
            operator=None,
            notes=notes,
        )
        validate(rendered)
        return rendered
