"""Behavioural tests for every fault operator family.

Each test applies an operator to a small module, executes original and mutated
versions, and asserts the *semantic* effect of the fault (wrong branch taken,
value corrupted, call skipped, ...) rather than just a textual difference.
"""

from __future__ import annotations

import ast

import pytest

from repro.errors import InjectionError, NoInjectionPointError
from repro.injection.operators import get_operator
from repro.rng import SeededRNG


def apply_first(operator_name: str, source: str, parameters=None, index: int = 0):
    operator = get_operator(operator_name)
    points = operator.find_points(source)
    assert points, f"no injection points for {operator_name}"
    return operator.apply(source, points[index], rng=SeededRNG(1), parameters=parameters)


def run_module(source: str) -> dict:
    namespace: dict = {}
    exec(compile(source, "<test-module>", "exec"), namespace)
    return namespace


class TestBranchingOperators:
    SOURCE = """
def guard(value):
    if value < 0:
        return "negative"
    return "ok"
"""

    def test_negate_condition_flips_branch(self):
        applied = apply_first("negate_condition", self.SOURCE)
        module = run_module(applied.patch.mutated)
        assert module["guard"](-5) == "ok"
        assert module["guard"](5) == "negative"

    def test_remove_if_guard_makes_body_unconditional(self):
        source = """
def safe_div(a, b):
    if b == 0:
        return None
    return a / b
"""
        applied = apply_first("remove_if_guard", source)
        module = run_module(applied.patch.mutated)
        assert module["safe_div"](4, 2) is None  # guard body now always runs

    def test_remove_if_guard_drop_body_mode(self):
        source = """
def validate(x):
    if x is None:
        raise ValueError("missing")
    return x
"""
        applied = apply_first("remove_if_guard", source, parameters={"mode": "drop_body"})
        module = run_module(applied.patch.mutated)
        assert module["validate"](None) is None  # no longer raises

    def test_relax_comparison_shifts_boundary(self):
        source = """
def in_range(i, limit):
    return i < limit
"""
        applied = apply_first("relax_comparison", source)
        module = run_module(applied.patch.mutated)
        assert module["in_range"](5, 5) is True  # < became <=

    def test_describe_mentions_function(self):
        applied = apply_first("negate_condition", self.SOURCE)
        assert "guard" in applied.description


class TestCallAndValueOperators:
    def test_remove_call_skips_side_effect(self):
        source = """
log = []

def record(x):
    log.append(x)

def work(x):
    record(x)
    return x * 2
"""
        applied = apply_first("remove_call", source)
        module = run_module(applied.patch.mutated)
        assert module["work"](3) == 6
        assert module["log"] == []

    def test_wrong_argument_changes_constant(self):
        source = """
def helper(a, b):
    return a + b

def compute():
    return helper(10, 5)
"""
        applied = apply_first("wrong_argument", source)
        module = run_module(applied.patch.mutated)
        assert module["compute"]() != 15

    def test_swap_arguments(self):
        source = """
def divide(a, b):
    return a / b

def ratio():
    return divide(10, 2)
"""
        applied = apply_first("swap_arguments", source)
        module = run_module(applied.patch.mutated)
        assert module["ratio"]() == pytest.approx(0.2)

    def test_wrong_value_assignment(self):
        source = """
def limit():
    maximum = 100
    return maximum
"""
        applied = apply_first("wrong_value_assignment", source)
        module = run_module(applied.patch.mutated)
        assert module["limit"]() != 100

    def test_remove_assignment_skips_state_update(self):
        source = """
state = {"count": 0}

def bump():
    state["count"] = state["count"] + 1
    return state["count"]
"""
        applied = apply_first("remove_assignment", source)
        module = run_module(applied.patch.mutated)
        module["bump"]()
        assert module["state"]["count"] == 0


class TestReturnOperators:
    def test_wrong_return_value(self):
        source = """
def answer():
    return 42
"""
        applied = apply_first("wrong_return_value", source)
        module = run_module(applied.patch.mutated)
        assert module["answer"]() != 42

    def test_remove_return_yields_none(self):
        source = """
def compute(x):
    return x * 3
"""
        applied = apply_first("remove_return", source)
        module = run_module(applied.patch.mutated)
        assert module["compute"](4) is None


class TestExceptionOperators:
    def test_raise_exception_injects_failure(self):
        source = """
def stable():
    return "fine"
"""
        applied = apply_first("raise_exception", source, parameters={"exception": "KeyError"})
        module = run_module(applied.patch.mutated)
        with pytest.raises(KeyError):
            module["stable"]()

    def test_swallow_exception_hides_error(self):
        source = """
def risky(x):
    try:
        return 10 / x
    except ZeroDivisionError:
        raise ValueError("cannot divide by zero")
"""
        applied = apply_first("swallow_exception", source)
        module = run_module(applied.patch.mutated)
        assert module["risky"](0) is None  # error silently swallowed

    def test_remove_raise_stops_propagation(self):
        source = """
def check(x):
    if x < 0:
        raise ValueError("negative")
    return x
"""
        applied = apply_first("remove_raise", source)
        module = run_module(applied.patch.mutated)
        assert module["check"](-1) == -1

    def test_broad_except_widens_handler(self):
        source = """
def read(mapping, key):
    try:
        return mapping[key]
    except KeyError:
        return None
"""
        applied = apply_first("broad_except", source)
        module = run_module(applied.patch.mutated)
        # TypeError (unhashable key) is now also swallowed by the broad handler.
        assert module["read"]({}, []) is None


class TestLoopOperators:
    def test_off_by_one_changes_iteration_count(self):
        source = """
def total(n):
    result = 0
    for i in range(5):
        result += 1
    return result
"""
        applied = apply_first("off_by_one", source)
        module = run_module(applied.patch.mutated)
        assert module["total"](5) != 5

    def test_early_loop_exit_processes_single_item(self):
        source = """
def collect(items):
    seen = []
    for item in items:
        seen.append(item)
    return seen
"""
        applied = apply_first("early_loop_exit", source)
        module = run_module(applied.patch.mutated)
        assert module["collect"]([1, 2, 3]) == [1]

    def test_infinite_loop_applies_only_to_while(self):
        operator = get_operator("infinite_loop")
        assert operator.find_points("def f():\n    for i in range(3):\n        pass\n") == []
        points = operator.find_points("def g(n):\n    while n > 0:\n        n -= 1\n    return n\n")
        assert len(points) == 1

    def test_infinite_loop_mutation_is_syntactically_valid(self):
        source = "def g(n):\n    while n > 0:\n        n -= 1\n    return n\n"
        applied = apply_first("infinite_loop", source)
        ast.parse(applied.patch.mutated)
        assert "while True" in applied.patch.mutated


class TestConcurrencyOperators:
    LOCKED = """
import threading

_lock = threading.Lock()
counter = {"value": 0}

def increment():
    with _lock:
        counter["value"] += 1
    return counter["value"]
"""

    def test_remove_lock_keeps_body(self):
        applied = apply_first("remove_lock", self.LOCKED)
        module = run_module(applied.patch.mutated)
        assert module["increment"]() == 1
        assert "with _lock" not in applied.patch.mutated.split("def increment")[1]

    def test_widen_race_window_adds_sleep(self):
        applied = apply_first("widen_race_window", self.LOCKED, parameters={"seconds": 0.0})
        assert "time.sleep" in applied.patch.mutated

    def test_split_atomic_update_still_computes_same_single_threaded_result(self):
        applied = apply_first("split_atomic_update", self.LOCKED, parameters={"seconds": 0.0})
        module = run_module(applied.patch.mutated)
        assert module["increment"]() == 1
        assert "_injected_snapshot" in applied.patch.mutated

    @pytest.mark.parametrize("operator_name", ["inject_delay", "widen_race_window", "split_atomic_update"])
    def test_an_added_time_import_follows_future_imports(self, operator_name):
        source = '"""Counter."""\nfrom __future__ import annotations\n' + self.LOCKED
        applied = apply_first(operator_name, source, parameters={"seconds": 0.0})
        module = run_module(applied.patch.mutated)
        assert module["increment"]() == 1
        assert "time" in module


class TestResourceAndTimingOperators:
    def test_resource_leak_removes_release(self):
        source = """
class Conn:
    def __init__(self):
        self.open = True
    def close(self):
        self.open = False

def use(conn):
    value = 1
    conn.close()
    return value
"""
        applied = apply_first("resource_leak", source)
        module = run_module(applied.patch.mutated)
        conn = module["Conn"]()
        module["use"](conn)
        assert conn.open is True

    def test_memory_leak_grows_global_store(self):
        source = """
def work():
    return 1
"""
        applied = apply_first("memory_leak", source, parameters={"payload_size": 10})
        module = run_module(applied.patch.mutated)
        module["work"]()
        module["work"]()
        assert len(module["_injected_leak"]) == 2

    def test_skip_cleanup_on_error(self):
        source = """
def guarded(resource, fail):
    try:
        if fail:
            raise RuntimeError("boom")
        return "done"
    finally:
        resource.append("cleaned")
"""
        applied = apply_first("skip_cleanup_on_error", source)
        module = run_module(applied.patch.mutated)
        resource: list = []
        with pytest.raises(RuntimeError):
            module["guarded"](resource, True)
        assert resource == []  # cleanup skipped on the error path

    def test_inject_delay_adds_sleep_call(self):
        applied = apply_first("inject_delay", "def ping():\n    return 'pong'\n", parameters={"seconds": 0.0})
        assert "time.sleep(0.0)" in applied.patch.mutated

    def test_raise_timeout(self):
        applied = apply_first("raise_timeout", "def fetch():\n    return 1\n")
        module = run_module(applied.patch.mutated)
        with pytest.raises(TimeoutError):
            module["fetch"]()

    def test_intermittent_timeout_fails_every_nth_call(self):
        applied = apply_first(
            "intermittent_timeout", "def fetch():\n    return 1\n", parameters={"nth_call": 3}
        )
        module = run_module(applied.patch.mutated)
        results = []
        for _ in range(6):
            try:
                results.append(module["fetch"]())
            except TimeoutError:
                results.append("timeout")
        assert results == [1, 1, "timeout", 1, 1, "timeout"]


class TestDataOperators:
    def test_arithmetic_corruption_changes_result(self):
        source = """
def add(a, b):
    return a + b
"""
        applied = apply_first("arithmetic_corruption", source)
        module = run_module(applied.patch.mutated)
        assert module["add"](4, 3) != 7

    def test_return_corruption_perturbs_numbers_silently(self):
        source = """
def price():
    return 100
"""
        applied = apply_first("return_corruption", source)
        module = run_module(applied.patch.mutated)
        assert module["price"]() != 100

    def test_network_failure_targets_network_calls(self):
        source = """
def send_request(payload):
    return {"sent": payload}

def submit(payload):
    response = send_request(payload)
    return response
"""
        applied = apply_first("network_failure", source)
        module = run_module(applied.patch.mutated)
        with pytest.raises(ConnectionError):
            module["submit"]({"x": 1})

    def test_disk_failure_targets_storage_calls(self):
        source = """
def write_record(record):
    return True

def persist(record):
    write_record(record)
    return "saved"
"""
        applied = apply_first("disk_failure", source)
        module = run_module(applied.patch.mutated)
        with pytest.raises(OSError):
            module["persist"]({"x": 1})


class TestOperatorContract:
    def test_apply_with_foreign_point_rejected(self):
        negate = get_operator("negate_condition")
        remove = get_operator("remove_call")
        source = "def f(x):\n    if x:\n        print(x)\n"
        point = negate.find_points(source)[0]
        with pytest.raises(InjectionError):
            remove.apply(source, point)

    def test_apply_on_source_without_function_raises(self):
        operator = get_operator("negate_condition")
        source = "def f(x):\n    if x:\n        return 1\n    return 0\n"
        point = operator.find_points(source)[0]
        with pytest.raises(NoInjectionPointError):
            operator.apply("def other():\n    return 2\n", point)

    def test_no_change_is_an_error(self):
        # remove_call on a body whose only statement is the call replaces it with
        # pass; applying to an already-empty function must not silently no-op.
        operator = get_operator("remove_call")
        assert operator.find_points("def empty():\n    pass\n") == []
