"""AST helpers shared by the fault operators and the code-generation grammar.

The injection engine works exclusively on :mod:`ast` trees and renders them
with :func:`ast.unparse`, so every mutation is syntactically valid Python — an
invariant the grammar-constrained decoder relies on.  A fault changes one
function, so :func:`edit_function` renders only that function: it edits a
private parse of the function's text in the module's cached normal form
(``ast.unparse(ast.parse(source))``), unparses it, and splices it back over
the function's lines.  The result is byte-identical to unparsing the whole
mutated module, at the cost of one function instead of one module.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass
from typing import Callable, Iterator

from ..errors import CodeAnalysisError
from ..execution.cache import get_cache

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Memoizes parsed trees by source hash.  ``misses`` counts actual parses.
PARSE_CACHE = get_cache("ast-parse")


def parse_module(source: str, path: str | None = None, *, mutable: bool = True) -> ast.Module:
    """Parse ``source`` into a module AST, raising :class:`CodeAnalysisError` on failure.

    With ``mutable=False`` the returned tree comes from a process-wide cache
    keyed on the source hash, so N analyses of one module parse it once.  The
    cached tree is shared: callers taking this path must treat it as
    read-only.  The default behaviour (``mutable=True``) returns a fresh,
    privately owned parse, as the injection operators mutate trees in place.
    """
    if not mutable:
        return PARSE_CACHE.get_or_compute(
            PARSE_CACHE.key_for(source), lambda: _parse(source, path)
        )
    return _parse(source, path)


def _parse(source: str, path: str | None) -> ast.Module:
    try:
        return ast.parse(source)
    except SyntaxError as exc:
        raise CodeAnalysisError(f"target code is not valid Python: {exc}", source_path=path) from exc


def normalised_source(source: str, path: str | None = None) -> str:
    """``source`` round-tripped through parse/unparse (cached by source hash).

    Operators compare their output against this normal form to detect no-op
    mutations; memoizing it means a planning pass over one module normalises
    it once instead of once per applied fault.
    """
    cache = get_cache("ast-normalise")
    return cache.get_or_compute(cache.key_for(source), lambda: unparse(_parse(source, path)))


def unparse(tree: ast.AST) -> str:
    """Render an AST back to source text with a trailing newline."""
    text = ast.unparse(ast.fix_missing_locations(tree))
    if not text.endswith("\n"):
        text += "\n"
    return text


def copy_tree(tree: ast.AST) -> ast.AST:
    """Deep-copy an AST so mutations never alias the caller's tree."""
    return copy.deepcopy(tree)


def iter_functions(tree: ast.Module) -> Iterator[tuple[FunctionNode, str | None]]:
    """Yield every (function node, enclosing class name) pair in the module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield child, node.name


def find_function(tree: ast.Module, name: str) -> FunctionNode | None:
    """Find a function by bare name or ``Class.method`` qualified name."""
    located = locate_function(tree, name)
    return located[0] if located is not None else None


def locate_function(tree: ast.Module, name: str) -> tuple[FunctionNode, str | None] | None:
    """The first (function node, enclosing class name) named ``name``, bare or qualified."""
    for node, class_name in iter_functions(tree):
        qualified = f"{class_name}.{node.name}" if class_name else node.name
        if node.name == name or qualified == name:
            return node, class_name
    return None


def function_names(tree: ast.Module) -> list[str]:
    """Qualified names of all functions defined in the module."""
    names = []
    for node, class_name in iter_functions(tree):
        names.append(f"{class_name}.{node.name}" if class_name else node.name)
    return names


def function_source(source: str, name: str) -> str:
    """The text of function ``name`` in ``source``, as :func:`ast.get_source_segment` gives it.

    The text runs from ``def`` to the function's last character: decorators
    are excluded, the first line is unindented, and a method's other lines
    keep their module indentation.
    """
    return _segment(source, parse_module(source, mutable=False), name)


def _segment(source: str, tree: ast.Module, name: str) -> str:
    node = find_function(tree, name)
    if node is None:
        raise CodeAnalysisError(f"function {name!r} not found in target code")
    segment = ast.get_source_segment(source, node)
    if segment is None:
        segment = unparse(node)
    return segment


def normal_form(source: str, path: str | None = None) -> tuple[str, ast.Module]:
    """``source``'s cached normal form and the cached, shared parse of that text."""
    normal = normalised_source(source, path)
    return normal, parse_module(normal, path, mutable=False)


@dataclass(frozen=True)
class FunctionEdit:
    """A module, in normal form, with one function edited (see :func:`edit_function`).

    ``function`` is what :func:`function_source` returns for ``module`` and
    ``name``, the edited function's bare name.  A spliced edit knows it
    without parsing ``module``, because the edited def was re-parsed on its
    own; ``module`` is then valid Python by construction.  After a
    whole-module fallback ``function`` is ``None``, and
    :meth:`function_source` parses ``module`` privately, outside the shared
    parse cache.
    """

    module: str
    name: str
    function: str | None = None

    @property
    def spliced(self) -> bool:
        """Whether the edited def was spliced in and re-parsed, so ``module`` parses."""
        return self.function is not None

    def function_source(self) -> str:
        if self.function is not None:
            return self.function
        return _segment(self.module, _parse(self.module, None), self.name)


#: Parses a method's text at its class's indentation, and unparses it there.
_CLASS_HEADER = "class _:\n"


def edit_function(
    source: str,
    name: str,
    class_name: str | None,
    mutate: Callable[[ast.Module, FunctionNode], None],
    path: str | None = None,
) -> FunctionEdit | None:
    """Edit one function of ``source`` and splice it into the module's normal form.

    ``mutate(tree, function)`` gets a private ``function`` node, parsed from
    the function's text in the normal form, and a ``tree`` whose body is a
    fresh list of the cached parse's statements with the function (or a
    shallow copy of its class) swapped for the private node.  It may change
    the function and add top-level statements, but never the shared nodes.
    Only the function is unparsed, at its class's indentation, and spliced
    over its lines, decorators included.  An ``import`` added to the top
    level is spliced in as one line; any other top-level change falls back
    to unparsing ``tree`` whole.

    Returns ``None`` when ``source`` has no function ``name`` in class
    ``class_name`` (``None`` for a module-level function).
    """
    normal, shared = normal_form(source, path)
    located = _locate(shared, name, class_name)
    if located is None:
        return None
    position, method_position, original = located
    header = "" if method_position is None else _CLASS_HEADER
    lines = normal.split("\n")
    first = original.decorator_list[0].lineno if original.decorator_list else original.lineno
    span = slice(first - 1, original.end_lineno)
    fragment = ast.parse(header + "\n".join(lines[span]))
    function = _fragment_function(fragment)

    body = list(shared.body)
    owner = None if method_position is None else copy.copy(shared.body[position])
    if owner is None:
        body[position] = function
    else:
        owner.body = list(owner.body)
        owner.body[method_position] = function
        body[position] = owner
    methods = list(owner.body) if owner is not None else []
    tree = ast.Module(body=list(body), type_ignores=[])
    mutate(tree, function)

    changed = not _same(body, tree.body)
    insertion = _import_insertion(shared, body, tree.body) if changed else None
    if (changed and insertion is None) or (owner is not None and not _same(methods, owner.body)):
        return FunctionEdit(unparse(tree), name)

    text = ast.unparse(ast.fix_missing_locations(fragment))
    edited = text.split("\n")
    try:
        reparsed = ast.parse(text)
    except SyntaxError:
        segment = None  # FunctionEdit.function_source parses the module and reports it
    else:
        segment = _unparsed_segment(edited, _fragment_function(reparsed))
        earlier = find_function(shared, name)
        if earlier is not original:
            segment = _unparsed_segment(lines, earlier)
    if header:
        del edited[:2]  # the synthetic class line and the blank line unparse puts before a method

    # Splice the lower edit first, so the other one's line numbers still hold.
    if insertion is not None and insertion[0] >= span.stop:
        lines[insertion[0] : insertion[0]] = insertion[1]
    lines[span] = edited
    if insertion is not None and insertion[0] < span.stop:
        lines[insertion[0] : insertion[0]] = insertion[1]
    return FunctionEdit("\n".join(lines), name, segment)


def _locate(tree: ast.Module, name: str, class_name: str | None) -> tuple[int, int | None, FunctionNode] | None:
    """(body index, class-body index or ``None``, node) of the first matching function."""
    for position, node in enumerate(tree.body):
        if class_name is None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
                return position, None, node
        elif isinstance(node, ast.ClassDef) and node.name == class_name:
            for method_position, child in enumerate(node.body):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name == name:
                    return position, method_position, child
    return None


def _unparsed_segment(lines: list[str], node: FunctionNode) -> str:
    """:func:`ast.get_source_segment` of a def in ``ast.unparse`` output, split into lines.

    Unparsed text breaks lines only at ``\\n``, indents with ASCII spaces,
    and ends a def's last line where its last statement ends.
    """
    segment = lines[node.lineno - 1 : node.end_lineno]
    segment[0] = segment[0][node.col_offset :]
    return "\n".join(segment)


def _fragment_function(fragment: ast.Module) -> FunctionNode:
    node = fragment.body[0]
    return node.body[0] if isinstance(node, ast.ClassDef) else node


def _same(before: list[ast.stmt], after: list[ast.stmt]) -> bool:
    return len(before) == len(after) and all(a is b for a, b in zip(before, after))


def _import_insertion(
    shared: ast.Module, before: list[ast.stmt], after: list[ast.stmt]
) -> tuple[int, list[str]] | None:
    """(line index, lines) of the one ``import`` ``after`` adds to ``before``, if that is all it adds.

    Line numbers are those of ``shared``, the parse of the normal form.
    """
    if len(after) != len(before) + 1:
        return None
    index = next((i for i, (a, b) in enumerate(zip(after, before)) if a is not b), len(before))
    if not isinstance(after[index], ast.Import) or not _same(before, after[:index] + after[index + 1 :]):
        return None
    lines = [ast.unparse(after[index])]
    if index > 0:
        return shared.body[index - 1].end_lineno, lines
    if isinstance(shared.body[0], (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        lines.append("")  # unparse sets a def or class apart with a blank line
    return 0, lines


def replace_function_source(module_source: str, function_name: str, new_function_source: str) -> FunctionEdit:
    """Replace one function's arguments and body with those of new source text.

    The replacement text must itself parse to a module containing exactly one
    function definition whose name matches ``function_name``.  The target
    keeps its decorators and return annotation.
    """
    replacement_tree = parse_module(new_function_source)
    functions = [n for n, _cls in iter_functions(replacement_tree)]
    if len(functions) != 1:
        raise CodeAnalysisError("replacement source must define exactly one function")
    replacement = functions[0]
    if replacement.name != function_name.split(".")[-1]:
        raise CodeAnalysisError(
            f"replacement defines {replacement.name!r}, expected {function_name!r}"
        )
    target = locate_function(normal_form(module_source)[1], function_name)
    if target is None:
        raise CodeAnalysisError(f"function {function_name!r} not found in target module")

    def swap(_tree: ast.Module, function: FunctionNode) -> None:
        function.args = replacement.args
        function.body = replacement.body

    return edit_function(module_source, target[0].name, target[1], swap)


def ensure_import(tree: ast.Module, module_name: str) -> ast.Module:
    """Return ``tree`` with a top-level ``import module_name`` guaranteed.

    A new import goes after the module docstring and any ``from __future__``
    imports, which must precede it.  Only an unaliased ``import module_name``
    binds the name the injected code calls through, so ``import time as t``
    or ``from time import sleep`` does not count.
    """
    for node in tree.body:
        if isinstance(node, ast.Import) and any(
            alias.name == module_name and alias.asname is None for alias in node.names
        ):
            return tree
    import_node = ast.Import(names=[ast.alias(name=module_name, asname=None)])
    insert_at = 0
    if tree.body and isinstance(tree.body[0], ast.Expr) and isinstance(tree.body[0].value, ast.Constant):
        insert_at = 1  # keep a module docstring first
    while (
        insert_at < len(tree.body)
        and isinstance(tree.body[insert_at], ast.ImportFrom)
        and tree.body[insert_at].module == "__future__"
    ):
        insert_at += 1  # future imports must come before any other statement
    tree.body.insert(insert_at, ast.fix_missing_locations(import_node))
    return tree


def iter_statement_slots(function: FunctionNode) -> Iterator[tuple[list[ast.stmt], int, ast.stmt]]:
    """Yield (body list, index, statement) for every statement slot in a function.

    Operators that need to replace or delete a statement use the returned body
    list and index to mutate the tree in place; enumeration order is stable for
    a given source text, so slots can be re-identified after re-parsing.
    """

    def visit(body: list[ast.stmt]) -> Iterator[tuple[list[ast.stmt], int, ast.stmt]]:
        for index, statement in enumerate(body):
            yield body, index, statement
            for field_name in ("body", "orelse", "finalbody"):
                nested = getattr(statement, field_name, None)
                if isinstance(nested, list) and nested:
                    yield from visit(nested)
            handlers = getattr(statement, "handlers", None)
            if handlers:
                for handler in handlers:
                    yield from visit(handler.body)

    yield from visit(function.body)


def contains_node_type(function: FunctionNode, node_type: type) -> bool:
    """Whether any node of ``node_type`` appears inside the function."""
    return any(isinstance(node, node_type) for node in ast.walk(function))


def call_names(node: ast.AST) -> list[str]:
    """Names of every function/method called anywhere under ``node``."""
    names: list[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            names.append(call_name(child))
    return [name for name in names if name]


def call_name(call: ast.Call) -> str:
    """Best-effort dotted name of a call expression (empty string if dynamic)."""
    func = call.func
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
        return ".".join(reversed(parts))
    return ""


def perturb_constant(value, magnitude: int = 1):
    """Return a plausibly wrong value of the same type as ``value``.

    Used by wrong-value / wrong-argument / off-by-one style operators so that
    mutations stay type-compatible and therefore activate rather than crash at
    the call boundary.
    """
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + magnitude
    if isinstance(value, float):
        return value * 2.0 + float(magnitude)
    if isinstance(value, str):
        return value + "_corrupted" if value else "corrupted"
    if value is None:
        return 0
    return value


def make_raise(exception_name: str, message: str) -> ast.Raise:
    """Build a ``raise ExceptionName("message")`` statement node."""
    return ast.Raise(
        exc=ast.Call(
            func=ast.Name(id=exception_name, ctx=ast.Load()),
            args=[ast.Constant(value=message)],
            keywords=[],
        ),
        cause=None,
    )


def make_print(message: str, *extra: ast.expr) -> ast.Expr:
    """Build a ``print("message", ...)`` statement node."""
    return ast.Expr(
        value=ast.Call(
            func=ast.Name(id="print", ctx=ast.Load()),
            args=[ast.Constant(value=message), *extra],
            keywords=[],
        )
    )


def make_sleep(seconds: float) -> ast.Expr:
    """Build a ``time.sleep(seconds)`` statement node."""
    return ast.Expr(
        value=ast.Call(
            func=ast.Attribute(value=ast.Name(id="time", ctx=ast.Load()), attr="sleep", ctx=ast.Load()),
            args=[ast.Constant(value=seconds)],
            keywords=[],
        )
    )


def is_docstring(statement: ast.stmt) -> bool:
    """Whether a statement is a bare string literal (function/module docstring)."""
    return (
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and isinstance(statement.value.value, str)
    )


def body_insert_index(function: FunctionNode) -> int:
    """Index at which new statements should be inserted at the top of a body."""
    if function.body and is_docstring(function.body[0]):
        return 1
    return 0
