"""Tests for the operator registry, locator, fault-load DSL, and injector."""

from __future__ import annotations

import json
import uuid

import pytest

from repro.errors import ConfigurationError, InjectionError, NoInjectionPointError
from repro.execution import cache_stats
from repro.injection import (
    FaultLoad,
    FaultLoadEntry,
    InjectionPointLocator,
    ProgrammableInjector,
    all_operators,
    fault_type_coverage,
    get_operator,
    operator_names,
    operators_for_fault_type,
)
from repro.types import FaultType


class TestRegistry:
    def test_registry_has_many_operators(self):
        assert len(operator_names()) >= 25

    def test_every_operator_has_unique_name(self):
        names = operator_names()
        assert len(names) == len(set(names))

    def test_get_operator_unknown_raises(self):
        with pytest.raises(InjectionError):
            get_operator("not_an_operator")

    def test_operators_for_fault_type(self):
        race_operators = operators_for_fault_type(FaultType.RACE_CONDITION)
        assert {op.name for op in race_operators} >= {"remove_lock", "widen_race_window"}

    def test_fault_type_coverage_spans_most_of_the_taxonomy(self):
        covered = set(fault_type_coverage())
        concrete = set(FaultType.concrete())
        # Only deadlocks are realised via the generation grammar rather than an
        # AST operator.
        assert concrete - covered == {FaultType.DEADLOCK}

    def test_every_operator_declares_a_concrete_fault_type(self):
        for operator in all_operators():
            assert operator.fault_type is not FaultType.UNKNOWN
            assert operator.summary


class TestLocator:
    def test_scan_groups_by_operator_and_function(self, sample_module):
        report = InjectionPointLocator().scan(sample_module)
        assert len(report) > 20
        assert "process_transaction" in report.by_function()
        assert "raise_exception" in report.by_operator()

    def test_scan_for_fault_type_is_subset(self, sample_module):
        locator = InjectionPointLocator()
        subset = locator.scan_for_fault_type(sample_module, FaultType.WRONG_CONDITION)
        full = locator.scan(sample_module)
        assert 0 < len(subset) < len(full)
        assert all(get_operator(p.operator).fault_type is FaultType.WRONG_CONDITION for p in subset.points)

    def test_scan_function_restricts_points(self, sample_module):
        report = InjectionPointLocator().scan_function(sample_module, "compute_total")
        assert report.points
        assert all(point.function == "compute_total" for point in report.points)

    def test_locator_with_custom_operator_subset(self, sample_module):
        locator = InjectionPointLocator([get_operator("negate_condition")])
        report = locator.scan(sample_module)
        assert {point.operator for point in report.points} == {"negate_condition"}


class TestPointCache:
    """``FaultOperator.find_points`` is memoized per (operator, source)."""

    @staticmethod
    def fresh_source() -> str:
        # A name no other test uses, so the first scan is always a miss.
        return f"def probe_{uuid.uuid4().hex}(flag):\n    if flag:\n        return 1\n    return 0\n"

    @staticmethod
    def counters() -> tuple[int, int]:
        stats = cache_stats()["injection-points"]
        return stats["hits"], stats["misses"]

    def test_second_scan_is_a_hit_and_computes_nothing(self):
        operator, source = get_operator("negate_condition"), self.fresh_source()
        hits, misses = self.counters()
        first = operator.find_points(source)
        assert self.counters() == (hits, misses + 1)
        assert operator.find_points(source) == first and first
        assert self.counters() == (hits + 1, misses + 1)

    def test_every_call_returns_a_fresh_list(self):
        operator, source = get_operator("negate_condition"), self.fresh_source()
        expected = list(operator.find_points(source))
        operator.find_points(source).clear()
        assert operator.find_points(source) == expected

    def test_a_changed_source_misses(self):
        operator, source = get_operator("negate_condition"), self.fresh_source()
        operator.find_points(source)
        changed = source + "\n\ndef other(ready):\n    if ready:\n        return 2\n    return 0\n"
        hits, misses = self.counters()
        points = operator.find_points(changed)
        assert self.counters() == (hits, misses + 1)
        assert {point.function for point in points} == {source[4:source.index("(")], "other"}


class TestFaultLoad:
    def test_fluent_construction(self):
        load = FaultLoad().add("raise_timeout", "process_*").add("negate_condition")
        assert len(load) == 2
        assert load.operators() == ["raise_timeout", "negate_condition"]

    def test_unknown_operator_rejected_at_definition_time(self):
        with pytest.raises(InjectionError):
            FaultLoad().add("bogus_operator")

    def test_non_positive_max_points_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultLoadEntry(operator="raise_timeout", max_points=0)

    def test_json_round_trip(self):
        load = FaultLoad(name="demo").add("raise_timeout", "pay*", {"message": "x"}, max_points=2)
        restored = FaultLoad.from_json(load.to_json())
        assert restored.name == "demo"
        assert restored.entries[0].parameters == {"message": "x"}
        assert restored.entries[0].max_points == 2
        json.loads(load.to_json())

    def test_entry_matching_uses_patterns(self, sample_module):
        entry = FaultLoadEntry(operator="raise_exception", function_pattern="process_*")
        points = get_operator("raise_exception").find_points(sample_module)
        matching = [point for point in points if entry.matches(point)]
        assert all(point.function.startswith("process_") for point in matching)
        assert matching


class TestProgrammableInjector:
    def test_plan_respects_max_points(self, sample_module):
        injector = ProgrammableInjector()
        load = FaultLoad().add("raise_exception", "*", max_points=2)
        plan = injector.plan(sample_module, load)
        assert len(plan) == 2

    def test_inject_returns_applied_faults_with_patches(self, sample_module):
        injector = ProgrammableInjector()
        load = FaultLoad().add("raise_timeout", "process_transaction").add("negate_condition", "validate")
        faults = injector.inject(sample_module, load)
        assert len(faults) == 2
        for fault in faults:
            assert fault.patch.mutated != sample_module
            assert fault.description

    def test_inject_fault_type_targets_requested_function(self, sample_module):
        injector = ProgrammableInjector()
        applied = injector.inject_fault_type(
            sample_module, FaultType.WRONG_CONDITION, function_name="validate"
        )
        assert applied.point.function == "validate"
        assert applied.fault_type is FaultType.WRONG_CONDITION

    def test_inject_fault_type_without_point_raises(self):
        injector = ProgrammableInjector()
        # No AST operator realises deadlocks (they are rendered by the grammar),
        # so asking the injector for one must fail loudly rather than silently.
        with pytest.raises(NoInjectionPointError):
            injector.inject_fault_type("def f():\n    return 1\n", FaultType.DEADLOCK)

    def test_plans_are_deterministic_for_a_seed(self, sample_module):
        load = FaultLoad().add("wrong_argument", "*", max_points=3)
        first = ProgrammableInjector().plan(sample_module, load)
        second = ProgrammableInjector().plan(sample_module, load)
        assert [(op, p.lineno) for op, p, _ in first.items] == [
            (op, p.lineno) for op, p, _ in second.items
        ]
