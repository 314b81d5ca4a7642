"""Grammar-constrained rendering of decision vectors into faulty Python code.

The grammar is the bridge between the neural policy and the injection
substrate: given a fault specification, the (optional) target code, and a
:class:`~repro.llm.decisions.DecisionVector`, it produces the faulty function
source the tester reviews and — when target code was supplied — the mutated
module source the integration tool installs.

Two rendering paths exist:

* *scenario templates* (exceptions, timeouts, network/disk failures, delays,
  leaks, deadlocks) are rendered textually, so the generated snippet carries
  the explanatory comments testers expect (mirroring the paper's running
  example), wrapped in the trigger guard and handling style the decisions ask
  for;
* *mutation templates* (off-by-one, wrong condition, missing call, swallowed
  exception, ...) are realised by applying the corresponding AST fault
  operators from :mod:`repro.injection` to the target function, falling back
  to a textual approximation when no operator applies.

Both paths edit only the target function: operators and the scenario splice
go through :func:`~repro.injection.ast_utils.edit_function`, which parses,
changes and unparses that one function and splices it into the module's cached
normal form.  Every rendered snippet is re-parsed before being returned, so
the grammar can guarantee syntactic validity — the property motivating
grammar-constrained decoding in DESIGN.md.  A spliced module is valid by
construction (its edited function re-parsed on its own); only a module an
operator changed at the top level is re-parsed whole.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..errors import GrammarError, InjectionError, ReproError
from ..injection import ProgrammableInjector, ast_utils, get_operator
from ..nlp.prompt_builder import GenerationPrompt
from ..rng import SeededRNG
from ..types import FaultSpec, FaultType, HandlingStyle, PlacementStyle, TriggerKind
from .cache import KeyedLruCache
from .decisions import DecisionVector

_INDENT = "    "

#: Templates rendered textually as failure scenarios.
SCENARIO_TEMPLATES: dict[FaultType, tuple[str, str]] = {
    FaultType.EXCEPTION: ("RuntimeError", "injected failure"),
    FaultType.TIMEOUT: ("TimeoutError", "Database transaction timeout"),
    FaultType.NETWORK_FAILURE: ("ConnectionError", "upstream service unreachable"),
    FaultType.DISK_FAILURE: ("OSError", "storage write failed"),
}

#: Preferred injection operators per mutation template, in order.
MUTATION_OPERATORS: dict[FaultType, tuple[str, ...]] = {
    FaultType.OFF_BY_ONE: ("off_by_one", "relax_comparison", "early_loop_exit"),
    FaultType.WRONG_VALUE: ("wrong_value_assignment", "wrong_argument", "swap_arguments"),
    FaultType.WRONG_CONDITION: ("negate_condition", "relax_comparison"),
    FaultType.MISSING_CHECK: ("remove_if_guard",),
    FaultType.MISSING_CALL: ("remove_call",),
    FaultType.MISSING_RETURN: ("remove_return",),
    FaultType.WRONG_RETURN: ("wrong_return_value", "return_corruption"),
    FaultType.SWALLOWED_EXCEPTION: ("swallow_exception", "remove_raise", "broad_except"),
    FaultType.INFINITE_LOOP: ("infinite_loop",),
    FaultType.DATA_CORRUPTION: ("arithmetic_corruption", "return_corruption"),
    FaultType.RACE_CONDITION: ("remove_lock", "split_atomic_update"),
    FaultType.MEMORY_LEAK: ("memory_leak",),
    FaultType.RESOURCE_LEAK: ("resource_leak", "skip_cleanup_on_error"),
}


@dataclass
class RenderedFault:
    """The concrete faulty code produced by the grammar."""

    function_name: str
    function_source: str
    module_source: str | None = None
    original_module_source: str | None = None
    operator: str | None = None
    notes: list[str] = field(default_factory=list)


class CodeGrammar:
    """Renders decision vectors into syntactically valid faulty Python.

    Rendering is deterministic for a given (prompt, decisions) pair — all
    randomness comes from keyed RNG forks that depend only on the seed and the
    operator name — so results are memoized under
    ``(prompt.cache_key(), decisions)`` with an LRU bound of ``cache_size``
    entries (``0`` disables caching).  Campaign and RLHF workloads render the
    same greedy decision assignment for the same prompt on every iteration;
    the cache turns those repeats into dictionary lookups.  Cached
    :class:`RenderedFault` objects are shared and must be treated as
    immutable (callers already copy ``notes`` before attaching them to
    generated faults).
    """

    def __init__(
        self,
        injector: ProgrammableInjector | None = None,
        rng: SeededRNG | None = None,
        cache_size: int = 1024,
    ) -> None:
        self._rng = rng or SeededRNG(0, namespace="grammar")
        self._injector = injector or ProgrammableInjector(rng=self._rng.fork("injector"))
        self._cache = KeyedLruCache(cache_size)

    def cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters of the render memoization cache."""
        return self._cache.cache_info()

    def export_cache(self) -> dict[tuple, RenderedFault]:
        """A snapshot of the render cache for cross-process persistence."""
        return self._cache.export()

    def import_cache(self, entries: dict[tuple, RenderedFault]) -> int:
        """Merge previously exported rendered faults, respecting the LRU bound.

        Returns:
            The number of entries actually installed.
        """
        return self._cache.import_entries(entries)

    # -- public API --------------------------------------------------------------

    def render(self, prompt: GenerationPrompt, decisions: DecisionVector) -> RenderedFault:
        """Render ``decisions`` for ``prompt`` into faulty code."""
        if not self._cache.enabled:
            return self._render(prompt, decisions)
        key = (prompt.cache_key(), tuple(sorted(decisions.to_dict().items())))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        rendered = self._render(prompt, decisions)
        self._cache.put(key, rendered)
        return rendered

    def accepts(self, prompt: GenerationPrompt, decisions: DecisionVector) -> bool:
        """Whether the interpreted grammar can render ``decisions`` for ``prompt``.

        The grammar *is* the validity oracle of the decision space: a
        decision assignment is acceptable exactly when rendering it produces
        syntactically valid faulty code.  The compiled-decode property tests
        use this to pin that every automaton-guided decision stays inside
        the interpreted grammar's language.
        """
        try:
            decisions.validate()
            self.render(prompt, decisions)
        except ReproError:
            return False
        return True

    def _render(self, prompt: GenerationPrompt, decisions: DecisionVector) -> RenderedFault:
        decisions.validate()
        spec = prompt.spec
        fault_type = decisions.fault_type
        function_name = self._target_function_name(prompt)
        module_source = prompt.context.source if prompt.context is not None else None

        rendered: RenderedFault | None = None
        if fault_type in MUTATION_OPERATORS and module_source is not None:
            rendered = self._render_with_operators(
                module_source, function_name, fault_type, spec, decisions
            )
        if rendered is None:
            rendered = self._render_scenario(prompt, decisions, function_name, module_source)
        return rendered

    # -- operator-backed rendering -----------------------------------------------

    def _render_with_operators(
        self,
        module_source: str,
        function_name: str,
        fault_type: FaultType,
        spec: FaultSpec,
        decisions: DecisionVector,
    ) -> RenderedFault | None:
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
                applied = operator.apply(
                    module_source,
                    points[0],
                    rng=self._rng.fork(f"render:{operator_name}"),
                    parameters=parameters,
                )
            except InjectionError:
                continue
            rendered = RenderedFault(
                function_name=function_name,
                function_source=applied.function_source,
                module_source=applied.patch.mutated,
                original_module_source=module_source,
                operator=operator_name,
                notes=[applied.description],
            )
            self._validate(rendered, applied.edit)
            return rendered
        return None

    @staticmethod
    def _operator_parameters(spec: FaultSpec, decisions: DecisionVector) -> dict:
        parameters = dict(spec.parameters)
        factor = decisions.severity_factor
        parameters.setdefault("seconds", 0.01 * factor)
        parameters["seconds"] = float(parameters["seconds"])
        parameters.setdefault("magnitude", max(1, int(factor * 2)))
        parameters.setdefault("payload_size", int(1024 * factor))
        if spec.trigger.kind is TriggerKind.ON_NTH_CALL and spec.trigger.nth_call:
            parameters.setdefault("nth_call", spec.trigger.nth_call)
        return parameters

    # -- scenario rendering --------------------------------------------------------

    def _render_scenario(
        self,
        prompt: GenerationPrompt,
        decisions: DecisionVector,
        function_name: str,
        module_source: str | None,
    ) -> RenderedFault:
        bare_name = function_name.split(".")[-1]
        function_source, notes = self._scenario_function(prompt, decisions, bare_name)
        edit = None
        if module_source is not None:
            try:
                edit = ast_utils.replace_function_source(module_source, bare_name, function_source)
            except Exception as exc:  # pragma: no cover - defensive, validated below
                raise GrammarError(f"failed to splice generated function into module: {exc}") from exc
        rendered = RenderedFault(
            function_name=function_name,
            function_source=function_source,
            module_source=edit.module if edit is not None else None,
            original_module_source=module_source,
            operator=None,
            notes=notes,
        )
        self._validate(rendered, edit)
        return rendered

    def _scenario_function(
        self, prompt: GenerationPrompt, decisions: DecisionVector, bare_name: str
    ) -> tuple[str, list[str]]:
        """The faulty function's text for a scenario template, and its notes."""
        spec = prompt.spec
        signature, docstring, original_body = self._original_parts(prompt, bare_name)

        fault_lines, imports, notes = self._fault_block(spec, decisions, bare_name)
        guarded = self._apply_trigger(fault_lines, spec, decisions, bare_name)
        body = self._place(guarded, original_body, decisions.placement_style)

        lines = [signature]
        if docstring:
            lines.append(_INDENT + docstring)
        for import_line in imports:
            lines.append(_INDENT + import_line)
        for line in body:
            lines.append(_INDENT + line if line else "")
        return "\n".join(lines) + "\n", notes

    def _original_parts(self, prompt: GenerationPrompt, bare_name: str) -> tuple[str, str | None, list[str]]:
        """Signature line, docstring literal, and unparsed body lines of the target."""
        context = prompt.context
        if context is not None:
            tree = ast_utils.parse_module(context.source, mutable=False)
            node = ast_utils.find_function(tree, bare_name)
        else:
            node = None
        if node is None:
            arguments = self._guess_arguments(prompt.spec)
            signature = f"def {bare_name}({arguments}):"
            return signature, None, ["pass"]
        signature = f"def {node.name}({ast.unparse(node.args)}):"
        docstring_literal = None
        body = list(node.body)
        if body and ast_utils.is_docstring(body[0]):
            docstring_literal = repr(ast.get_docstring(node))
            body = body[1:]
        body_lines: list[str] = []
        for statement in body:
            body_lines.extend(ast.unparse(statement).splitlines())
        if not body_lines:
            body_lines = ["pass"]
        return signature, docstring_literal, body_lines

    @staticmethod
    def _guess_arguments(spec: FaultSpec) -> str:
        components = spec.parameters.get("components", [])
        if components:
            primary = str(components[0]).replace(" ", "_")
            return f"{primary}_details"
        return "*args, **kwargs"

    def _fault_block(
        self, spec: FaultSpec, decisions: DecisionVector, function_name: str
    ) -> tuple[list[str], list[str], list[str]]:
        """The core fault statements, needed imports, and human-readable notes."""
        fault_type = decisions.fault_type
        handling = decisions.handling_style
        factor = decisions.severity_factor
        imports: list[str] = []
        notes: list[str] = []

        if fault_type in SCENARIO_TEMPLATES:
            default_exception, default_message = SCENARIO_TEMPLATES[fault_type]
            exception = spec.parameters.get("exception", default_exception)
            message = spec.parameters.get("message", default_message)
            lines = self._exception_block(exception, message, handling, spec, function_name)
            notes.append(
                f"Simulated {fault_type.value.replace('_', ' ')} raising {exception} "
                f"with {handling.value} handling."
            )
            return lines, imports, notes

        if fault_type is FaultType.DELAY:
            seconds = float(spec.parameters.get("seconds", 0.05)) * factor
            imports.append("import time")
            lines = [
                "# Injected fault: simulate a slow dependency",
                f"time.sleep({seconds!r})",
            ]
            notes.append(f"Injected delay of {seconds} seconds.")
            return lines, imports, notes

        if fault_type is FaultType.MEMORY_LEAK:
            payload = int(1024 * factor)
            lines = [
                "# Injected fault: memory grows on every call and is never reclaimed",
                f"globals().setdefault('_injected_leak', []).append(bytearray({payload}))",
            ]
            notes.append("Injected unbounded memory growth.")
            return lines, imports, notes

        if fault_type is FaultType.RESOURCE_LEAK:
            imports.append("import os")
            lines = [
                "# Injected fault: the file handle below is never closed",
                "globals().setdefault('_injected_open_handles', []).append(open(os.devnull, 'w'))",
            ]
            notes.append("Injected resource leak (file handle never closed).")
            return lines, imports, notes

        if fault_type is FaultType.DEADLOCK:
            imports.append("import threading")
            lines = [
                "# Injected fault: re-acquiring a non-reentrant lock blocks forever",
                "_injected_lock = threading.Lock()",
                "_injected_lock.acquire()",
                "_injected_lock.acquire()",
            ]
            notes.append("Injected deadlock through double lock acquisition.")
            return lines, imports, notes

        if fault_type is FaultType.RACE_CONDITION:
            imports.append("import time")
            seconds = 0.002 * factor
            lines = [
                "# Injected fault: widen the race window inside the critical section",
                f"time.sleep({seconds!r})",
            ]
            notes.append("Widened race window (no lock protects the following update).")
            return lines, imports, notes

        if fault_type is FaultType.INFINITE_LOOP:
            lines = [
                "# Injected fault: the loop below never terminates",
                "while True:",
                _INDENT + "pass",
            ]
            notes.append("Injected non-terminating loop.")
            return lines, imports, notes

        if fault_type is FaultType.DATA_CORRUPTION:
            lines = [
                "# Injected fault: silently corrupt intermediate state",
                "_injected_corruption = globals().setdefault('_injected_corruption_count', 0) + 1",
                "globals()['_injected_corruption_count'] = _injected_corruption",
            ]
            notes.append("Injected silent state corruption marker.")
            return lines, imports, notes

        # Mutation templates that could not be realised by an operator are
        # approximated with an explicit failure so the fault still activates.
        exception = spec.parameters.get("exception", "RuntimeError")
        message = f"injected {fault_type.value.replace('_', ' ')} in {function_name}"
        lines = self._exception_block(exception, message, handling, spec, function_name)
        notes.append(
            f"Approximated {fault_type.value.replace('_', ' ')} with an explicit {exception} "
            "because no structural injection point was available."
        )
        return lines, imports, notes

    def _exception_block(
        self,
        exception: str,
        message: str,
        handling: HandlingStyle,
        spec: FaultSpec,
        function_name: str,
    ) -> list[str]:
        """Raise + handling skeleton mirroring the paper's running example."""
        raise_line = f"raise {exception}({message!r})"
        if handling is HandlingStyle.UNHANDLED:
            return [
                "# Injected fault: the failure below is not handled anywhere",
                raise_line,
            ]
        lines = [
            "try:",
            _INDENT + "# Simulated failing operation",
            _INDENT + raise_line,
            f"except {exception} as e:",
        ]
        if handling is HandlingStyle.LOGGED_ONLY:
            lines += [
                _INDENT + f"print('{function_name} failed:', e)",
                _INDENT + "# Missing exception handling logic",
            ]
        elif handling is HandlingStyle.RETRY:
            retries = int(spec.parameters.get("retries", 3))
            lines += [
                _INDENT + f"print('Attempting to retry {function_name}')",
                _INDENT + f"for _attempt in range({retries}):",
                _INDENT * 2 + "# Logic for retrying the operation upon failure",
                _INDENT * 2 + "break",
            ]
        elif handling is HandlingStyle.RERAISE:
            lines += [
                _INDENT + f"print('{function_name} failed:', e)",
                _INDENT + "raise",
            ]
        elif handling is HandlingStyle.FALLBACK:
            lines += [
                _INDENT + f"print('{function_name} falling back to a default result:', e)",
                _INDENT + "return None",
            ]
        return lines

    def _apply_trigger(
        self, fault_lines: list[str], spec: FaultSpec, decisions: DecisionVector, function_name: str
    ) -> list[str]:
        """Wrap the fault block in the activation guard the decisions request."""
        kind = decisions.trigger_kind
        if kind is TriggerKind.ALWAYS:
            return fault_lines
        if kind is TriggerKind.PROBABILISTIC:
            probability = spec.trigger.probability if spec.trigger.probability is not None else 0.5
            guard = [
                "import random",
                f"if random.random() < {probability!r}:",
            ]
            return guard + [_INDENT + line if line else "" for line in fault_lines]
        if kind is TriggerKind.ON_NTH_CALL:
            nth = spec.trigger.nth_call or 3
            guard = [
                "_injected_calls = globals().setdefault('_injected_call_counts', {})",
                f"_injected_calls['{function_name}'] = _injected_calls.get('{function_name}', 0) + 1",
                f"if _injected_calls['{function_name}'] % {nth} == 0:",
            ]
            return guard + [_INDENT + line if line else "" for line in fault_lines]
        # CONDITIONAL: try to bind the condition to a function argument.
        condition = spec.trigger.condition or "the trigger condition holds"
        predicate = self._condition_predicate(condition, spec)
        guard = [f"if {predicate}:  # when {condition}"]
        return guard + [_INDENT + line if line else "" for line in fault_lines]

    @staticmethod
    def _condition_predicate(condition: str, spec: FaultSpec) -> str:
        words = {word.strip(",.!?").lower() for word in condition.split()}
        negative_markers = {"empty", "missing", "none", "no", "not", "without", "unavailable"}
        # The first component, in the spec's (sorted) order, that the
        # condition names: a set's order would follow the string hash seed.
        components = spec.parameters.get("components", [])
        named = [component for component in components if component in words]
        if named:
            name = named[0].replace(" ", "_")
            if words & negative_markers:
                return f"not locals().get({name!r}, True)"
            return f"bool(locals().get({name!r}, True))"
        return "True"

    @staticmethod
    def _place(fault_lines: list[str], original: list[str], placement: PlacementStyle) -> list[str]:
        """Compose the fault block and the original body per the placement decision."""
        if placement is PlacementStyle.BEFORE_RETURN:
            for index in range(len(original) - 1, -1, -1):
                if original[index].lstrip().startswith("return"):
                    return original[:index] + fault_lines + original[index:]
            return original + fault_lines
        # BODY_START, WRAP_BODY (a handled scenario's try/except already wraps
        # the failing operation) and INSIDE_LOOP (meaningful only for the
        # operator-backed path) all put the fault block first.
        return fault_lines + original

    # -- validation ----------------------------------------------------------------

    @staticmethod
    def _validate(rendered: RenderedFault, edit: ast_utils.FunctionEdit | None) -> None:
        """Raise :class:`GrammarError` unless the rendered code parses.

        ``edit`` built ``rendered.module_source``; a spliced edit is valid by
        construction, so only a whole-module fallback is parsed whole.
        """
        try:
            ast.parse(rendered.function_source)
        except SyntaxError as exc:
            raise GrammarError(f"generated function is not valid Python: {exc}") from exc
        if rendered.module_source is not None and not (edit is not None and edit.spliced):
            try:
                ast.parse(rendered.module_source)
            except SyntaxError as exc:
                raise GrammarError(f"generated module is not valid Python: {exc}") from exc

    @staticmethod
    def _target_function_name(prompt: GenerationPrompt) -> str:
        if prompt.target_function:
            return prompt.target_function
        if prompt.context is not None and prompt.context.functions:
            selected = prompt.context.selected or prompt.context.functions[0]
            return selected.qualified_name
        return "target_function"
