"""Tests for the automated integration and testing tool."""

from __future__ import annotations

import pytest

from repro.config import IntegrationConfig
from repro.errors import IntegrationError, SandboxError
from repro.injection import FaultLoad, ProgrammableInjector
from repro.integration import (
    CampaignReport,
    ClassificationThresholds,
    ExperimentRunner,
    FailureClassifier,
    FaultIntegrator,
    SandboxRunner,
    WorkspaceManager,
)
from repro.integration.runner import RunObservation
from repro.targets import TargetRunResult, get_target
from repro.types import FailureMode, FaultSpec, GeneratedFault, TargetLocation


@pytest.fixture(scope="module")
def ecommerce_faults():
    target = get_target("ecommerce")
    injector = ProgrammableInjector()
    load = (
        FaultLoad()
        .add("raise_timeout", "process_transaction")
        .add("arithmetic_corruption", "compute_total")
        .add("negate_condition", "validate_cart")
        .add("remove_call", "close_session")
    )
    return injector.inject(target.build_source(), load)


class TestWorkspace:
    def test_create_write_read_cleanup(self, tmp_path):
        manager = WorkspaceManager(base_dir=tmp_path)
        workspace = manager.create("demo", "x = 1\n")
        assert workspace.read_module() == "x = 1\n"
        workspace.write_file("notes/log.txt", "hello")
        assert (workspace.root / "notes" / "log.txt").read_text() == "hello"
        manager.cleanup_all()
        assert not workspace.root.exists()

    def test_keep_flag_preserves_directory(self, tmp_path):
        manager = WorkspaceManager(base_dir=tmp_path, keep=True)
        workspace = manager.create("kept", "x = 1\n")
        manager.cleanup_all()
        assert workspace.root.exists()

    def test_reading_missing_module_raises(self, tmp_path):
        manager = WorkspaceManager(base_dir=tmp_path)
        workspace = manager.create("demo", "x = 1\n")
        workspace.module_path.unlink()
        with pytest.raises(SandboxError):
            workspace.read_module()

    def test_context_manager_cleans_up(self, tmp_path):
        manager = WorkspaceManager(base_dir=tmp_path)
        with manager.create("ctx", "x = 1\n") as workspace:
            root = workspace.root
            assert root.exists()
        assert not root.exists()


class TestSandboxRunner:
    def test_inprocess_run_matches_target_execute(self):
        runner = SandboxRunner(IntegrationConfig(workload_iterations=10))
        observation = runner.run("bank", get_target("bank").build_source(), mode="inprocess")
        assert observation.completed
        assert observation.result.violations == []

    def test_unknown_mode_rejected(self):
        runner = SandboxRunner()
        with pytest.raises(SandboxError):
            runner.run("bank", "x = 1", mode="warp-drive")

    def test_subprocess_run_round_trips_result(self):
        runner = SandboxRunner(IntegrationConfig(workload_iterations=10, test_timeout_seconds=30))
        observation = runner.run("kvstore", get_target("kvstore").build_source(), mode="subprocess")
        assert observation.completed
        assert observation.result.target == "kvstore"

    def test_subprocess_timeout_detected(self):
        hang_source = get_target("kvstore").build_source() + (
            "\n_original_put = put\n"
            "def put(key, value):\n"
            "    while True:\n"
            "        pass\n"
        )
        runner = SandboxRunner(IntegrationConfig(workload_iterations=10, test_timeout_seconds=3))
        observation = runner.run("kvstore", hang_source, mode="subprocess")
        assert observation.timed_out
        assert observation.result is None


class TestFailureClassifier:
    def make_baseline(self, detected_errors=2, duration=0.05):
        return TargetRunResult(
            target="t", completed=True, duration_seconds=duration,
            metrics={"detected_errors": detected_errors, "ops": 10},
            detected_errors=detected_errors,
        )

    def test_timeout_is_hang(self):
        classification = FailureClassifier().classify(
            RunObservation(result=None, timed_out=True), self.make_baseline()
        )
        assert classification.failure_mode is FailureMode.HANG

    def test_unhandled_exception_is_crash(self):
        observation = RunObservation(
            result=TargetRunResult(target="t", completed=False, duration_seconds=0.01,
                                   error_type="KeyError", error_message="boom")
        )
        classification = FailureClassifier().classify(observation, self.make_baseline())
        assert classification.failure_mode is FailureMode.CRASH
        assert "KeyError" in classification.reason

    def test_violations_are_silent_corruption(self):
        observation = RunObservation(
            result=TargetRunResult(target="t", completed=True, duration_seconds=0.05,
                                   violations=["ledger off by 3"], metrics={"detected_errors": 2},
                                   detected_errors=2)
        )
        classification = FailureClassifier().classify(observation, self.make_baseline())
        assert classification.failure_mode is FailureMode.SILENT_DATA_CORRUPTION

    def test_extra_detected_errors_are_error_detected(self):
        observation = RunObservation(
            result=TargetRunResult(target="t", completed=True, duration_seconds=0.05,
                                   metrics={"detected_errors": 9}, detected_errors=9)
        )
        classification = FailureClassifier().classify(observation, self.make_baseline())
        assert classification.failure_mode is FailureMode.ERROR_DETECTED

    def test_slowdown_is_degraded(self):
        observation = RunObservation(
            result=TargetRunResult(target="t", completed=True, duration_seconds=1.5,
                                   metrics={"detected_errors": 2}, detected_errors=2)
        )
        classification = FailureClassifier(ClassificationThresholds(slowdown_factor=3.0)).classify(
            observation, self.make_baseline(duration=0.05)
        )
        assert classification.failure_mode is FailureMode.DEGRADED

    def test_slowdown_just_under_two_tenths_of_a_second_is_degraded(self):
        # A delay fault that sleeps 0.2 s in total must not hinge on timer jitter.
        observation = RunObservation(
            result=TargetRunResult(target="t", completed=True, duration_seconds=0.003 + 0.2 - 0.005,
                                   metrics={"detected_errors": 2}, detected_errors=2)
        )
        classification = FailureClassifier().classify(observation, self.make_baseline(duration=0.003))
        assert classification.failure_mode is FailureMode.DEGRADED

    def test_slowdown_of_a_tenth_of_a_second_is_no_failure(self):
        observation = RunObservation(
            result=TargetRunResult(target="t", completed=True, duration_seconds=0.003 + 0.105 + 0.005,
                                   metrics={"detected_errors": 2}, detected_errors=2)
        )
        classification = FailureClassifier().classify(observation, self.make_baseline(duration=0.003))
        assert classification.failure_mode is FailureMode.NO_FAILURE

    def test_benign_run_is_no_failure_and_not_activated(self):
        observation = RunObservation(
            result=TargetRunResult(target="t", completed=True, duration_seconds=0.05,
                                   metrics={"detected_errors": 2, "ops": 10}, detected_errors=2)
        )
        classification = FailureClassifier().classify(observation, self.make_baseline())
        assert classification.failure_mode is FailureMode.NO_FAILURE
        assert not classification.activated

    def test_metric_drift_marks_activation_without_failure(self):
        observation = RunObservation(
            result=TargetRunResult(target="t", completed=True, duration_seconds=0.05,
                                   metrics={"detected_errors": 2, "ops": 7}, detected_errors=2)
        )
        classification = FailureClassifier().classify(observation, self.make_baseline())
        assert classification.failure_mode is FailureMode.NO_FAILURE
        assert classification.activated


class TestFaultIntegrator:
    def test_integrate_applied_fault(self, ecommerce_faults):
        integrator = FaultIntegrator()
        integrated = integrator.integrate_applied(get_target("ecommerce"), ecommerce_faults[0])
        assert integrated.module_source != integrated.original_source
        assert "raise TimeoutError" in integrated.diff

    def test_integrate_applied_wrong_target_rejected(self, ecommerce_faults):
        integrator = FaultIntegrator()
        with pytest.raises(IntegrationError):
            integrator.integrate_applied(get_target("bank"), ecommerce_faults[0])

    def test_integrate_generated_snippet_by_splicing(self):
        target = get_target("ecommerce")
        spec = FaultSpec(target=TargetLocation(function="send_confirmation"), description="net fail")
        fault = GeneratedFault(
            fault_id="g1",
            spec=spec,
            code="def send_confirmation(order_id):\n    raise ConnectionError('injected outage')\n",
        )
        integrated = FaultIntegrator().integrate_generated(target, fault)
        assert "injected outage" in integrated.module_source
        assert "def process_transaction" in integrated.module_source

    def test_integrate_generated_without_target_function_fails(self):
        target = get_target("ecommerce")
        fault = GeneratedFault(fault_id="g2", spec=FaultSpec(description="x"), code="def orphan():\n    pass\n")
        with pytest.raises(IntegrationError):
            FaultIntegrator().integrate_generated(target, fault)

    def test_workspace_created_when_manager_supplied(self, tmp_path, ecommerce_faults):
        manager = WorkspaceManager(base_dir=tmp_path)
        integrator = FaultIntegrator(manager)
        integrated = integrator.integrate_applied(get_target("ecommerce"), ecommerce_faults[0])
        assert integrated.workspace is not None
        assert integrated.workspace.read_module() == integrated.module_source


class TestExperimentRunner:
    def test_batch_produces_expected_failure_modes(self, ecommerce_faults):
        runner = ExperimentRunner("ecommerce", config=IntegrationConfig(workload_iterations=25))
        batch = runner.run_batch_applied(ecommerce_faults, mode="inprocess")
        modes = {record.outcome.fault_id.split("@")[0]: record.outcome.failure_mode for record in batch.records}
        assert modes["raise_timeout"] is FailureMode.CRASH
        assert modes["arithmetic_corruption"] is FailureMode.SILENT_DATA_CORRUPTION
        assert modes["negate_condition"] is FailureMode.ERROR_DETECTED
        assert modes["remove_call"] is FailureMode.SILENT_DATA_CORRUPTION

    def test_baseline_cached(self):
        runner = ExperimentRunner("bank", config=IntegrationConfig(workload_iterations=10))
        assert runner.baseline is runner.baseline

    def test_generated_fault_experiment(self, prepared_pipeline):
        target = get_target("ecommerce")
        fault = prepared_pipeline.inject(
            "Simulate a timeout in process_transaction causing an unhandled exception",
            code=target.build_source(),
        )
        runner = ExperimentRunner(target, config=IntegrationConfig(workload_iterations=15))
        record = runner.run_generated(fault, mode="inprocess")
        assert record.outcome.failure_mode in (FailureMode.CRASH, FailureMode.ERROR_DETECTED)
        assert record.outcome.activated

    def test_integration_failure_recorded_not_raised(self):
        runner = ExperimentRunner("bank", config=IntegrationConfig(workload_iterations=10))
        fault = GeneratedFault(fault_id="bad", spec=FaultSpec(description="x"), code="def nothing():\n    pass\n")
        record = runner.run_generated(fault, mode="inprocess")
        assert record.outcome.details.get("integration_failed")
        assert record.outcome.failure_mode is FailureMode.NO_FAILURE


class TestCampaignReport:
    def test_aggregation_and_table(self, ecommerce_faults):
        runner = ExperimentRunner("ecommerce", config=IntegrationConfig(workload_iterations=20))
        batch = runner.run_batch_applied(ecommerce_faults, mode="inprocess")
        report = CampaignReport.from_batches([batch], name="unit")
        assert report.total == len(ecommerce_faults)
        assert 0.0 <= report.failure_rate <= 1.0
        distribution = report.failure_mode_distribution()
        assert sum(distribution.values()) == report.total
        table = report.to_table()
        assert "ecommerce" in table
        assert "crash" in table
        summary = report.summary()
        assert summary["targets"]["ecommerce"]["total"] == report.total
        import json

        json.loads(report.to_json())
