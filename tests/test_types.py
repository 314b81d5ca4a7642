"""Tests for the shared datatypes in :mod:`repro.types`."""

from __future__ import annotations

import json

import pytest

from repro.injection import get_operator
from repro.targets import all_targets
from repro.types import (
    Entity,
    EntityLabel,
    FailureMode,
    FaultSpec,
    FaultType,
    Feedback,
    GeneratedFault,
    HandlingStyle,
    InjectionOutcome,
    Patch,
    TargetLocation,
    TriggerKind,
    TriggerSpec,
    stable_fault_id,
    summarise_outcomes,
    to_json,
)


class TestFaultType:
    def test_concrete_excludes_unknown(self):
        concrete = FaultType.concrete()
        assert FaultType.UNKNOWN not in concrete
        assert FaultType.TIMEOUT in concrete

    def test_concrete_covers_all_other_members(self):
        assert len(FaultType.concrete()) == len(FaultType) - 1

    def test_values_are_snake_case_strings(self):
        for member in FaultType:
            assert member.value == member.value.lower()
            assert " " not in member.value


class TestFailureMode:
    def test_no_failure_is_not_a_failure(self):
        assert not FailureMode.NO_FAILURE.is_failure

    @pytest.mark.parametrize(
        "mode",
        [FailureMode.CRASH, FailureMode.HANG, FailureMode.SILENT_DATA_CORRUPTION, FailureMode.DEGRADED],
    )
    def test_other_modes_are_failures(self, mode):
        assert mode.is_failure


class TestTriggerSpec:
    def test_round_trip(self):
        trigger = TriggerSpec(kind=TriggerKind.PROBABILISTIC, probability=0.25)
        assert TriggerSpec.from_dict(trigger.to_dict()) == trigger

    def test_defaults_to_always(self):
        assert TriggerSpec().kind is TriggerKind.ALWAYS

    def test_from_empty_dict(self):
        assert TriggerSpec.from_dict({}).kind is TriggerKind.ALWAYS


class TestFaultSpec:
    def test_round_trip_preserves_entities(self):
        spec = FaultSpec(
            fault_type=FaultType.TIMEOUT,
            target=TargetLocation(function="process_transaction"),
            trigger=TriggerSpec(kind=TriggerKind.CONDITIONAL, condition="the cart is empty"),
            handling=HandlingStyle.RETRY,
            entities=[Entity(text="timeout", label=EntityLabel.FAULT_KEYWORD, start=0, end=7)],
            parameters={"seconds": 1.5},
            directives={"wants_retry": True},
            description="a timeout",
            confidence=0.8,
        )
        restored = FaultSpec.from_dict(spec.to_dict())
        assert restored.fault_type is FaultType.TIMEOUT
        assert restored.handling is HandlingStyle.RETRY
        assert restored.entities[0].label is EntityLabel.FAULT_KEYWORD
        assert restored.parameters["seconds"] == 1.5
        assert restored.trigger.condition == "the cart is empty"

    def test_default_spec_is_unknown_and_unhandled(self):
        spec = FaultSpec()
        assert spec.fault_type is FaultType.UNKNOWN
        assert spec.handling is HandlingStyle.UNHANDLED
        assert spec.confidence == 0.0

    def test_to_dict_is_json_serialisable(self):
        spec = FaultSpec(fault_type=FaultType.RACE_CONDITION, description="race")
        json.loads(to_json(spec))


class TestPatch:
    def test_diff_contains_both_versions(self):
        patch = Patch(original="x = 1\n", mutated="x = 2\n", target_path="m.py")
        assert "-x = 1" in patch.diff
        assert "+x = 2" in patch.diff

    def test_changed_line_count_counts_only_changes(self):
        patch = Patch(original="a = 1\nb = 2\n", mutated="a = 1\nb = 3\n")
        assert patch.changed_line_count == 2

    def test_identical_sources_have_empty_diff(self):
        patch = Patch(original="a = 1\n", mutated="a = 1\n")
        assert patch.diff == ""
        assert patch.changed_line_count == 0

    @pytest.mark.parametrize("target", all_targets(), ids=lambda target: target.name)
    def test_an_operator_fault_reports_only_its_own_lines(self, target):
        """The diff starts from the original's normal form, so normalisation adds no lines."""
        source = target.build_source()
        operator = get_operator("raise_timeout")
        patch = operator.apply(source, operator.find_points(source)[0]).patch
        changed = [
            line
            for line in patch.diff.splitlines()
            if line.startswith(("+", "-")) and not line.startswith(("+++", "---"))
        ]
        assert len(changed) == 1 and changed[0].lstrip("+ ").startswith("raise TimeoutError(")
        assert patch.changed_line_count == 1

    def test_an_original_that_does_not_parse_is_diffed_as_it_is(self):
        patch = Patch(original="x = (\n", mutated="x = 1\n")
        assert "-x = (" in patch.diff
        assert patch.changed_line_count == 2


class TestGeneratedFault:
    def test_is_integrated_requires_patch(self):
        spec = FaultSpec(description="x")
        fault = GeneratedFault(fault_id="f1", spec=spec, code="def f():\n    pass\n")
        assert not fault.is_integrated
        fault.patch = Patch(original="a", mutated="b")
        assert fault.is_integrated

    def test_to_dict_includes_actions_and_metadata(self):
        spec = FaultSpec(description="x")
        fault = GeneratedFault(
            fault_id="f1", spec=spec, code="pass", actions={"template": "timeout"}, metadata={"k": 1}
        )
        data = fault.to_dict()
        assert data["actions"]["template"] == "timeout"
        assert data["metadata"]["k"] == 1


class TestFeedbackAndOutcome:
    def test_feedback_serialisation(self):
        feedback = Feedback(fault_id="f1", rating=4.0, critique="add a retry", accept=False)
        data = feedback.to_dict()
        assert data["rating"] == 4.0
        assert data["critique"] == "add a retry"

    def test_outcome_exposed_failure(self):
        outcome = InjectionOutcome(fault_id="f1", activated=True, failure_mode=FailureMode.CRASH)
        assert outcome.exposed_failure
        benign = InjectionOutcome(fault_id="f2", activated=False, failure_mode=FailureMode.NO_FAILURE)
        assert not benign.exposed_failure


class TestStableFaultId:
    def test_deterministic(self):
        assert stable_fault_id("desc", "code") == stable_fault_id("desc", "code")

    def test_differs_by_description_code_and_salt(self):
        base = stable_fault_id("desc", "code")
        assert stable_fault_id("other", "code") != base
        assert stable_fault_id("desc", "other") != base
        assert stable_fault_id("desc", "code", salt="1") != base

    def test_prefix(self):
        assert stable_fault_id("d", None).startswith("fault-")


class TestSummariseOutcomes:
    def test_empty(self):
        summary = summarise_outcomes([])
        assert summary["total"] == 0
        assert summary["failure_rate"] == 0.0

    def test_counts_by_mode(self):
        outcomes = [
            InjectionOutcome(fault_id="a", activated=True, failure_mode=FailureMode.CRASH),
            InjectionOutcome(fault_id="b", activated=True, failure_mode=FailureMode.CRASH),
            InjectionOutcome(fault_id="c", activated=False, failure_mode=FailureMode.NO_FAILURE),
        ]
        summary = summarise_outcomes(outcomes)
        assert summary["total"] == 3
        assert summary["by_failure_mode"]["crash"] == 2
        assert summary["activation_rate"] == pytest.approx(2 / 3)
        assert summary["failure_rate"] == pytest.approx(2 / 3)
