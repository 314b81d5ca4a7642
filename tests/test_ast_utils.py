"""Tests for the AST helpers shared by the injection substrate."""

from __future__ import annotations

import ast

import pytest

from repro.errors import CodeAnalysisError
from repro.injection import ast_utils


SIMPLE = """
def outer(x):
    if x:
        return x + 1
    return 0


class Service:
    def handle(self, request):
        return request
"""


class TestParsing:
    def test_parse_module_valid(self):
        tree = ast_utils.parse_module(SIMPLE)
        assert isinstance(tree, ast.Module)

    def test_parse_module_invalid_raises(self):
        with pytest.raises(CodeAnalysisError):
            ast_utils.parse_module("def broken(:\n    pass")

    def test_unparse_appends_newline(self):
        tree = ast_utils.parse_module("x = 1")
        assert ast_utils.unparse(tree).endswith("\n")


class TestFunctionDiscovery:
    def test_iter_functions_finds_methods_and_functions(self):
        tree = ast_utils.parse_module(SIMPLE)
        names = {(node.name, cls) for node, cls in ast_utils.iter_functions(tree)}
        assert ("outer", None) in names
        assert ("handle", "Service") in names

    def test_function_names_qualified(self):
        tree = ast_utils.parse_module(SIMPLE)
        assert "Service.handle" in ast_utils.function_names(tree)

    def test_find_function_by_qualified_name(self):
        tree = ast_utils.parse_module(SIMPLE)
        assert ast_utils.find_function(tree, "Service.handle") is not None
        assert ast_utils.find_function(tree, "missing") is None

    def test_function_source_extracts_text(self):
        source = ast_utils.function_source(SIMPLE, "outer")
        assert source.startswith("def outer")
        assert "return x + 1" in source

    def test_function_source_missing_raises(self):
        with pytest.raises(CodeAnalysisError):
            ast_utils.function_source(SIMPLE, "nope")


class TestReplacement:
    def test_replace_function_source(self):
        replacement = "def outer(x):\n    return 42\n"
        mutated = ast_utils.replace_function_source(SIMPLE, "outer", replacement).module
        module = {}
        exec(compile(mutated, "<m>", "exec"), module)
        assert module["outer"](5) == 42
        assert "Service" in mutated

    def test_replace_function_source_wrong_name_raises(self):
        with pytest.raises(CodeAnalysisError):
            ast_utils.replace_function_source(SIMPLE, "outer", "def different():\n    pass\n")

    def test_replace_function_source_multiple_defs_raises(self):
        with pytest.raises(CodeAnalysisError):
            ast_utils.replace_function_source(
                SIMPLE, "outer", "def outer():\n    pass\n\ndef extra():\n    pass\n"
            )

    def test_replace_function_source_missing_target_raises(self):
        with pytest.raises(CodeAnalysisError):
            ast_utils.replace_function_source(SIMPLE, "ghost", "def ghost():\n    pass\n")


class TestImports:
    def test_ensure_import_adds_once(self):
        tree = ast_utils.parse_module("x = 1")
        ast_utils.ensure_import(tree, "time")
        ast_utils.ensure_import(tree, "time")
        rendered = ast_utils.unparse(tree)
        assert rendered.count("import time") == 1

    def test_ensure_import_preserves_docstring_position(self):
        tree = ast_utils.parse_module('"""doc"""\nx = 1')
        ast_utils.ensure_import(tree, "os")
        rendered = ast_utils.unparse(tree)
        assert rendered.splitlines()[0].startswith('"""') or rendered.splitlines()[0].startswith("'")

    def test_ensure_import_follows_a_future_import(self):
        tree = ast_utils.parse_module("from __future__ import annotations\n\ndef f(x):\n    return x\n")
        ast_utils.ensure_import(tree, "time")
        rendered = ast_utils.unparse(tree)
        assert rendered.splitlines()[:2] == ["from __future__ import annotations", "import time"]
        compile(rendered, "<m>", "exec")

    def test_ensure_import_follows_the_docstring_and_every_future_import(self):
        source = '"""doc"""\nfrom __future__ import annotations\nfrom __future__ import division\nx = 1\n'
        tree = ast_utils.parse_module(source)
        ast_utils.ensure_import(tree, "time")
        assert [type(node).__name__ for node in tree.body] == ["Expr", "ImportFrom", "ImportFrom", "Import", "Assign"]
        compile(ast_utils.unparse(tree), "<m>", "exec")

    def test_ensure_import_goes_before_other_from_imports(self):
        tree = ast_utils.parse_module('"""doc"""\nfrom os import path\n')
        ast_utils.ensure_import(tree, "time")
        assert isinstance(tree.body[1], ast.Import)
        assert isinstance(tree.body[2], ast.ImportFrom) and tree.body[2].module == "os"

    @pytest.mark.parametrize("source", ["", '"""doc"""\n'], ids=["empty", "docstring-only"])
    def test_ensure_import_into_a_module_without_code(self, source):
        tree = ast_utils.parse_module(source)
        ast_utils.ensure_import(tree, "time")
        assert ast_utils.unparse(tree).splitlines()[-1] == "import time"

    @pytest.mark.parametrize("header", ["import time as _t", "from time import sleep"])
    def test_ensure_import_binds_the_name_an_alias_does_not(self, header):
        # Injected code calls ``time.sleep``, which neither header binds.
        tree = ast_utils.parse_module(f"{header}\n\ndef f():\n    time.sleep(0)\n    return 1\n")
        ast_utils.ensure_import(tree, "time")
        namespace: dict = {}
        exec(compile(ast_utils.unparse(tree), "<m>", "exec"), namespace)
        assert namespace["f"]() == 1

    def test_ensure_import_keeps_an_import_among_others(self):
        tree = ast_utils.parse_module("import os, time\nx = 1\n")
        ast_utils.ensure_import(tree, "time")
        assert len(tree.body) == 2


class TestStatementHelpers:
    def test_statement_slots_cover_nested_bodies(self):
        source = """
def f(x):
    try:
        if x:
            y = 1
    except ValueError:
        y = 2
    finally:
        y = 3
    return y
"""
        tree = ast_utils.parse_module(source)
        function = ast_utils.find_function(tree, "f")
        slots = list(ast_utils.iter_statement_slots(function))
        texts = [ast.unparse(stmt) for _body, _i, stmt in slots]
        assert any("y = 1" in text for text in texts)
        assert any("y = 2" in text for text in texts)
        assert any("y = 3" in text for text in texts)

    def test_call_names_dotted(self):
        tree = ast_utils.parse_module("def f():\n    a.b.c(1)\n    d()\n")
        function = ast_utils.find_function(tree, "f")
        assert "a.b.c" in ast_utils.call_names(function)
        assert "d" in ast_utils.call_names(function)

    def test_body_insert_index_skips_docstring(self):
        tree = ast_utils.parse_module('def f():\n    """doc"""\n    return 1\n')
        function = ast_utils.find_function(tree, "f")
        assert ast_utils.body_insert_index(function) == 1

    def test_contains_node_type(self):
        tree = ast_utils.parse_module("def f():\n    for i in range(3):\n        pass\n")
        function = ast_utils.find_function(tree, "f")
        assert ast_utils.contains_node_type(function, ast.For)
        assert not ast_utils.contains_node_type(function, ast.While)


class TestPerturbConstant:
    @pytest.mark.parametrize(
        "value,expected_type",
        [(3, int), (2.5, float), ("name", str), (True, bool), (None, int)],
    )
    def test_preserves_type_family(self, value, expected_type):
        assert isinstance(ast_utils.perturb_constant(value), expected_type)

    def test_changes_value(self):
        assert ast_utils.perturb_constant(3) != 3
        assert ast_utils.perturb_constant(True) is False
        assert ast_utils.perturb_constant("x") != "x"

    def test_statement_builders_produce_valid_nodes(self):
        raise_node = ast_utils.make_raise("ValueError", "boom")
        sleep_node = ast_utils.make_sleep(0.5)
        print_node = ast_utils.make_print("hello")
        module = ast.Module(body=[ast.FunctionDef(
            name="f",
            args=ast.arguments(posonlyargs=[], args=[], kwonlyargs=[], kw_defaults=[], defaults=[]),
            body=[print_node, sleep_node, raise_node],
            decorator_list=[],
        )], type_ignores=[])
        rendered = ast_utils.unparse(module)
        ast.parse(rendered)
        assert "time.sleep(0.5)" in rendered
        assert "raise ValueError('boom')" in rendered
