"""Tests for memory-bounded batch execution across the three heavy workloads.

Covers the ``ExecutionConfig.batch_size`` chunking contract (identical
results, bounded in-flight tasks), pooled dataset generation determinism
against the serial path, and RLHF batch-scoring equivalence.
"""

from __future__ import annotations

import os
import subprocess

import pytest

from repro.config import DatasetConfig, ExecutionConfig, IntegrationConfig, ModelConfig, RLHFConfig
from repro.dataset import DatasetGenerator
from repro.errors import ExperimentError, SandboxError
from repro.injection import FaultLoad, ProgrammableInjector
from repro.integration import ExperimentRunner, SandboxRunner
from repro.llm import FaultGenerator
from repro.rlhf import RLHFTrainer, SimulatedTester
from repro.rlhf import tester_pool as make_tester_pool  # aliased: pytest collects `test*` names
from repro.targets import get_target


@pytest.fixture()
def bank_source() -> str:
    return get_target("bank").build_source()


@pytest.fixture()
def bank_faults(bank_source):
    load = (
        FaultLoad(name="chunking")
        .add("negate_condition", "*", max_points=3)
        .add("wrong_return_value", "*", max_points=3)
    )
    return ProgrammableInjector().inject(bank_source, load)


def _observation_keys(observations):
    return [
        (o.completed, o.timed_out, o.harness_error, o.result.metrics if o.result else None)
        for o in observations
    ]


class TestRunBatchChunking:
    def test_chunked_results_identical_to_unchunked(self, bank_source):
        with SandboxRunner(execution=ExecutionConfig(batch_size=64)) as runner:
            unchunked = runner.run_batch("bank", [bank_source] * 5, seed=7, mode="inprocess")
            chunked = runner.run_batch(
                "bank", [bank_source] * 5, seed=7, mode="inprocess", batch_size=2
            )
        assert _observation_keys(chunked) == _observation_keys(unchunked)

    def test_peak_in_flight_tasks_bounded_by_batch_size(self, bank_source, monkeypatch):
        chunk_sizes: list[int] = []
        original = SandboxRunner._dispatch_chunk

        def recording(self, target_name, module_sources, *args, **kwargs):
            chunk_sizes.append(len(module_sources))
            return original(self, target_name, module_sources, *args, **kwargs)

        monkeypatch.setattr(SandboxRunner, "_dispatch_chunk", recording)
        with SandboxRunner(execution=ExecutionConfig(batch_size=3)) as runner:
            observations = runner.run_batch("bank", [bank_source] * 8, seed=1, mode="inprocess")
        assert len(observations) == 8
        assert chunk_sizes == [3, 3, 2]
        assert max(chunk_sizes) <= 3

    def test_config_batch_size_is_the_default_chunk(self, bank_source, monkeypatch):
        chunk_sizes: list[int] = []
        original = SandboxRunner._dispatch_chunk

        def recording(self, target_name, module_sources, *args, **kwargs):
            chunk_sizes.append(len(module_sources))
            return original(self, target_name, module_sources, *args, **kwargs)

        monkeypatch.setattr(SandboxRunner, "_dispatch_chunk", recording)
        with SandboxRunner(execution=ExecutionConfig(batch_size=4)) as runner:
            runner.run_batch("bank", [bank_source] * 6, seed=1, mode="inprocess")
        assert chunk_sizes == [4, 2]

    def test_invalid_batch_size_rejected(self, bank_source):
        with SandboxRunner() as runner:
            with pytest.raises(SandboxError):
                runner.run_batch("bank", [bank_source], mode="inprocess", batch_size=0)

    def test_run_many_chunks_are_bounded(self, bank_faults, monkeypatch):
        batch_lengths: list[int] = []
        original = SandboxRunner.run_batch

        def recording(self, target_name, module_sources, *args, **kwargs):
            batch_lengths.append(len(module_sources))
            return original(self, target_name, module_sources, *args, **kwargs)

        monkeypatch.setattr(SandboxRunner, "run_batch", recording)
        runner = ExperimentRunner("bank", execution=ExecutionConfig(batch_size=2))
        batch = runner.run_many(bank_faults, mode="inprocess")
        assert len(batch) == len(bank_faults)
        assert max(batch_lengths) <= 2

    def test_run_many_chunked_matches_unchunked(self, bank_faults):
        config = IntegrationConfig(test_timeout_seconds=5.0)
        unchunked = ExperimentRunner(
            "bank", config=config, execution=ExecutionConfig(batch_size=64)
        ).run_many(bank_faults, mode="inprocess")
        chunked = ExperimentRunner(
            "bank", config=config, execution=ExecutionConfig(batch_size=2)
        ).run_many(bank_faults, mode="inprocess")

        def keys(batch):
            return [
                (o.fault_id, o.activated, o.failure_mode.value, o.tests_failed, o.details["reason"])
                for o in batch.outcomes
            ]

        assert keys(chunked) == keys(unchunked)

    def test_run_many_rejects_bad_batch_size(self, bank_faults):
        runner = ExperimentRunner("bank")
        with pytest.raises(ExperimentError):
            runner.run_many(bank_faults, mode="inprocess", batch_size=0)

    def test_run_many_batch_size_override_beats_config(self, bank_faults, monkeypatch):
        # A per-call override larger than the config value must reach the
        # sandbox submissions, not be silently re-chunked by the config.
        batch_lengths: list[int] = []
        original = SandboxRunner._dispatch_chunk

        def recording(self, target_name, module_sources, *args, **kwargs):
            batch_lengths.append(len(module_sources))
            return original(self, target_name, module_sources, *args, **kwargs)

        monkeypatch.setattr(SandboxRunner, "_dispatch_chunk", recording)
        runner = ExperimentRunner("bank", execution=ExecutionConfig(batch_size=1))
        batch = runner.run_many(bank_faults, mode="inprocess", batch_size=len(bank_faults))
        assert len(batch) == len(bank_faults)
        assert batch_lengths == [len(bank_faults)]


class TestPooledDatasetGeneration:
    def _records(self, execution: ExecutionConfig, validate: bool = True):
        config = DatasetConfig(samples_per_target=6, validate_candidates=validate)
        with DatasetGenerator(config, execution=execution) as generator:
            dataset = generator.generate([get_target("bank")])
            stats = generator.stats.to_dict()
        return [record.to_dict() for record in dataset], stats

    def test_validated_generation_matches_unvalidated_when_all_load(self):
        plain, _ = self._records(ExecutionConfig(default_mode="inprocess"), validate=False)
        validated, stats = self._records(ExecutionConfig(default_mode="inprocess"))
        assert validated == plain
        assert stats["batches"] == [
            {"target": "bank", "candidates": 6, "kept": 6, "discarded": 0, "mode": "subprocess"}
        ]

    @pytest.mark.pool
    def test_pooled_generation_is_byte_identical_to_serial(self):
        serial, serial_stats = self._records(
            ExecutionConfig(default_mode="subprocess", max_workers=1)
        )
        pooled, pooled_stats = self._records(
            ExecutionConfig(default_mode="pool", max_workers=2)
        )
        assert pooled == serial
        assert pooled_stats["validated"] == serial_stats["validated"]

    def test_validation_never_runs_mutants_in_process(self, monkeypatch):
        # Arbitrary mutants can hang (e.g. remove_assignment inside a while
        # loop) and inprocess mode has no timeout, so validation promotes.
        config = DatasetConfig(samples_per_target=3, validate_candidates=True)
        generator = DatasetGenerator(config, execution=ExecutionConfig(default_mode="inprocess"))
        seen_modes: list[str] = []
        run_batch = SandboxRunner.run_batch

        def recording(self, target_name, module_sources, *args, **kwargs):
            seen_modes.append(kwargs.get("mode"))
            return run_batch(self, target_name, module_sources, *args, **kwargs)

        monkeypatch.setattr(SandboxRunner, "run_batch", recording)
        with generator:
            dataset = generator.generate([get_target("bank")])
        assert len(dataset) == 3
        assert seen_modes == ["subprocess"]
        assert generator.stats.batches[0]["mode"] == "subprocess"

    def test_unloadable_candidates_are_discarded(self, monkeypatch):
        config = DatasetConfig(samples_per_target=4, validate_candidates=True)
        generator = DatasetGenerator(config, execution=ExecutionConfig(default_mode="subprocess"))
        original = DatasetGenerator._candidates_for_target

        def sabotage(self, source):
            candidates = original(self, source)
            from dataclasses import replace

            broken = replace(
                candidates[0],
                patch=replace(candidates[0].patch, mutated="raise RuntimeError('boom')\n"),
            )
            return [broken] + candidates[1:]

        monkeypatch.setattr(DatasetGenerator, "_candidates_for_target", sabotage)
        with generator:
            dataset = generator.generate([get_target("bank")])
        assert len(dataset) == 3
        assert generator.stats.discarded == 1
        assert generator.stats.batches[0]["kept"] == 3

    def test_validation_keeps_its_own_time_budget_on_a_borrowed_runner(self, monkeypatch):
        # A borrowed runner (an engine passes its own) carries a longer test
        # timeout; validation still runs under validation_timeout_seconds.
        config = DatasetConfig(
            samples_per_target=2, validate_candidates=True, validation_timeout_seconds=2.5
        )
        timeouts: list[float] = []
        real_run = subprocess.run

        def run(command, *args, **kwargs):
            scratch = runner._scratch
            if isinstance(command, list) and len(command) > 6 and scratch is not None:
                if os.path.dirname(command[6]) == scratch.name:
                    timeouts.append(kwargs.get("timeout"))
            return real_run(command, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", run)
        with SandboxRunner(IntegrationConfig(test_timeout_seconds=30.0)) as runner:
            generator = DatasetGenerator(
                config, execution=ExecutionConfig(default_mode="subprocess"), runner=runner
            )
            dataset = generator.generate([get_target("bank")])
        assert len(dataset) == 2
        assert timeouts == [2.5, 2.5]


class TestRLHFBatchScoring:
    @pytest.fixture()
    def prompt(self, sample_prompt):
        return sample_prompt

    def test_review_batch_matches_serial_reviews(self, prompt, fault_generator):
        tester = SimulatedTester()
        candidates = fault_generator.candidates_batch([prompt], count=4)[0]
        serial = [tester.review(prompt.spec, candidate) for candidate in candidates]
        batched = tester.review_batch(prompt.spec, candidates)
        assert [f.to_dict() for f in batched] == [f.to_dict() for f in serial]

    @pytest.mark.pool
    def test_executed_batch_matches_serial_execution(self, prompt, fault_generator):
        tester = SimulatedTester()
        candidates = fault_generator.candidates_batch([prompt], count=3)[0]
        config = IntegrationConfig(test_timeout_seconds=5.0, workload_iterations=10)
        serial_runner = ExperimentRunner("ecommerce", config=config)
        serial = [
            tester.review_executed(
                prompt.spec, c, serial_runner.run_generated(c.fault, mode="inprocess")
            )
            for c in candidates
        ]
        pooled_runner = ExperimentRunner(
            "ecommerce", config=config, execution=ExecutionConfig(max_workers=2)
        )
        pooled = tester.review_batch(prompt.spec, candidates, runner=pooled_runner, mode="pool")
        assert [f.to_dict() for f in pooled] == [f.to_dict() for f in serial]

    def test_execution_evidence_only_lowers_ratings(self, prompt, fault_generator):
        tester = SimulatedTester()
        candidates = fault_generator.candidates_batch([prompt], count=3)[0]
        config = IntegrationConfig(test_timeout_seconds=5.0, workload_iterations=10)
        runner = ExperimentRunner("ecommerce", config=config)
        executed = tester.review_batch(prompt.spec, candidates, runner=runner, mode="inprocess")
        pure = tester.review_batch(prompt.spec, candidates)
        for with_evidence, without in zip(executed, pure):
            assert with_evidence.rating <= without.rating
            assert with_evidence.fault_id == without.fault_id

    def test_run_rlhf_promotes_inprocess_default_to_subprocess(self, prompt, monkeypatch):
        import repro.api.engine as engine_mod
        from repro import NeuralFaultInjector
        from repro.rlhf import RLHFReport

        captured = {}

        class SpyTrainer:
            def __init__(self, generator, testers, config=None, runner=None, execution_mode=None):
                captured["mode"] = execution_mode

            def run(self, prompts):
                return RLHFReport()

        monkeypatch.setattr(engine_mod, "RLHFTrainer", SpyTrainer)
        with NeuralFaultInjector() as injector:   # default execution mode is inprocess
            injector.run_rlhf([prompt], target="bank")
            assert captured["mode"] == "subprocess"
            injector.run_rlhf([prompt], target="bank", mode="inprocess")  # explicit opt-in
            assert captured["mode"] == "inprocess"

    def test_trainer_with_runner_produces_a_full_report(self, prompt):
        generator = FaultGenerator(ModelConfig())
        config = IntegrationConfig(test_timeout_seconds=5.0, workload_iterations=10)
        runner = ExperimentRunner("ecommerce", config=config)
        trainer = RLHFTrainer(
            generator,
            make_tester_pool(seed=5),
            config=RLHFConfig(iterations=1, candidates_per_iteration=2),
            runner=runner,
            execution_mode="inprocess",
        )
        report = trainer.run([prompt])
        assert len(report.iterations) == 1
        assert 0.0 <= report.iterations[0].mean_rating <= 5.0
