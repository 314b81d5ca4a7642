"""Tests for the target systems: baselines, workloads, and invariant checks."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.errors import TargetError
from repro.injection import ProgrammableInjector
from repro.targets import TargetRunResult, all_targets, get_target, target_names


class TestRegistry:
    def test_four_targets_registered(self):
        assert set(target_names()) == {"ecommerce", "kvstore", "bank", "queue"}

    def test_get_target_unknown_raises(self):
        with pytest.raises(TargetError):
            get_target("does-not-exist")

    def test_registry_returns_singletons(self):
        assert get_target("bank") is get_target("bank")


@pytest.mark.parametrize("target_name", ["ecommerce", "kvstore", "bank", "queue"])
class TestEveryTarget:
    def test_baseline_is_clean(self, target_name):
        result = get_target(target_name).baseline(iterations=30, seed=1)
        assert result.completed
        assert result.violations == []
        assert isinstance(result, TargetRunResult)

    def test_workload_is_deterministic_for_a_seed(self, target_name):
        target = get_target(target_name)
        first = target.execute(iterations=25, seed=9)
        second = target.execute(iterations=25, seed=9)
        first_metrics = {k: v for k, v in first.metrics.items() if isinstance(v, (int, str, bool))}
        second_metrics = {k: v for k, v in second.metrics.items() if isinstance(v, (int, str, bool))}
        assert first_metrics == second_metrics

    def test_different_seeds_change_the_workload(self, target_name):
        target = get_target(target_name)
        first = target.execute(iterations=30, seed=1)
        second = target.execute(iterations=30, seed=2)
        assert first.metrics != second.metrics

    def test_functions_listed(self, target_name):
        functions = get_target(target_name).functions()
        assert len(functions) >= 8

    def test_has_rich_injection_surface(self, target_name):
        target = get_target(target_name)
        points = ProgrammableInjector().locator.scan(target.build_source())
        assert len(points) > 80

    def test_crash_is_reported_not_raised(self, target_name):
        target = get_target(target_name)
        broken = target.build_source() + "\nraise RuntimeError('boom at import')\n"
        result = target.execute(source=broken, iterations=5, seed=0)
        assert not result.completed
        assert result.error_type is not None

    def test_to_dict_round_trips_json(self, target_name):
        import json

        result = get_target(target_name).execute(iterations=10, seed=0)
        json.dumps(result.to_dict())


class TestInvariantSensitivity:
    """Injected faults of the right kind must trip each target's own checks."""

    def test_ecommerce_detects_pricing_corruption(self):
        target = get_target("ecommerce")
        injector = ProgrammableInjector()
        applied = injector.inject_fault_type(
            target.build_source(), fault_type=__import__("repro.types", fromlist=["FaultType"]).FaultType.DATA_CORRUPTION,
            function_name="compute_total",
        )
        result = target.execute(source=applied.patch.mutated, iterations=25, seed=3)
        assert result.completed
        assert result.violations

    def test_ecommerce_detects_session_leak(self):
        from repro.injection import get_operator

        target = get_target("ecommerce")
        operator = get_operator("remove_call")
        source = target.build_source()
        points = [p for p in operator.find_points(source) if p.detail == "close_session"]
        assert points
        applied = operator.apply(source, points[0])
        result = target.execute(source=applied.patch.mutated, iterations=20, seed=3)
        assert any("sessions" in violation for violation in result.violations)

    def test_bank_detects_money_conservation_violation(self):
        from repro.injection import get_operator

        target = get_target("bank")
        # Dropping one side of the transfer's double-entry update destroys money.
        operator = get_operator("remove_assignment")
        source = target.build_source()
        points = [p for p in operator.find_points(source) if p.function == "transfer"]
        assert points
        applied = operator.apply(source, points[0])
        result = target.execute(source=applied.patch.mutated, iterations=30, seed=3)
        assert result.completed
        assert any("conserved" in violation or "overdrawn" in violation for violation in result.violations)

    def test_kvstore_detects_stale_reads(self):
        from repro.injection import get_operator

        target = get_target("kvstore")
        operator = get_operator("wrong_return_value")
        source = target.build_source()
        points = [
            p for p in operator.find_points(source)
            if p.function == "get" and "_data" in p.detail
        ]
        assert points
        applied = operator.apply(source, points[0])
        result = target.execute(source=applied.patch.mutated, iterations=60, seed=3)
        assert result.completed
        assert result.violations

    def test_queue_detects_lost_messages(self):
        from repro.injection import get_operator

        target = get_target("queue")
        operator = get_operator("remove_call")
        source = target.build_source()
        points = [p for p in operator.find_points(source) if "acknowledge" in p.detail]
        assert points
        applied = operator.apply(source, points[0])
        result = target.execute(source=applied.patch.mutated, iterations=30, seed=3)
        assert result.completed
        assert result.violations

    def test_pristine_baseline_raises_if_broken(self):
        target = get_target("bank")
        with pytest.raises(TargetError):
            # Loading a module that fails on import must surface as a TargetError
            # in baseline(), not slip through as a silent failure.
            target.load_module("raise RuntimeError('nope')\n")


class TestLeanPackageImport:
    """Every subprocess sandbox run imports ``repro.targets``, so the package
    root must not drag in the serving, model and NLP stacks."""

    def test_importing_targets_skips_the_heavy_stacks(self):
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        path = os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")]))
        code = "import json, sys, repro.targets; print(json.dumps(sorted(sys.modules)))"
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        loaded = json.loads(completed.stdout)
        assert "repro.targets.registry" in loaded
        heavy = ("repro.api", "repro.server", "repro.llm", "repro.nlp", "repro.dataset")
        assert [name for name in loaded if name.startswith(heavy)] == []

    def test_every_public_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert set(repro.__all__) <= set(dir(repro))
        with pytest.raises(AttributeError):
            repro.no_such_export
