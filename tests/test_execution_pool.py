"""Tests for the campaign execution engine: worker pools, batching, caching.

Pool tests use one or two workers and short timeouts so the whole module stays
inside the fast tier-1 budget.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.config import ExecutionConfig, IntegrationConfig, PipelineConfig
from repro.errors import ConfigurationError
from repro.execution import SandboxSlots, WorkerPool, resolve_workers, worker_cap
from repro.execution.cache import HashKeyedCache, cache_stats
from repro.injection import FaultLoad, ProgrammableInjector, ast_utils
from repro.injection.ast_utils import PARSE_CACHE
from repro.integration import ExperimentRunner, SandboxRunner
from repro.nlp.code_analyzer import ANALYSIS_CACHE
from repro.targets import get_target

#: Sleeps far longer than any configured timeout once the workload starts.
HANG_ON_LOAD = "import time\ntime.sleep(60)\n"
#: Kills the hosting process outright while the module loads.
EXIT_ON_LOAD = "import os\nos._exit(7)\n"
#: Exits cleanly before the driver can write its result file.
SILENT_EXIT_ON_LOAD = "import os\nos._exit(0)\n"
#: Leaves stdout without a trailing newline when the module loads.
UNTERMINATED_WRITE_ON_LOAD = "import sys\nsys.stdout.write('x')\n"


@pytest.fixture()
def bank_source() -> str:
    return get_target("bank").build_source()


@pytest.fixture()
def runner() -> SandboxRunner:
    sandbox = SandboxRunner(
        IntegrationConfig(test_timeout_seconds=2.0),
        execution=ExecutionConfig(max_workers=2),
    )
    yield sandbox
    sandbox.close()


class TestExecutionConfig:
    def test_defaults_round_trip_through_pipeline_config(self):
        config = PipelineConfig()
        assert config.execution.default_mode == "inprocess"
        rebuilt = PipelineConfig.from_dict(config.to_dict())
        assert rebuilt.execution.to_dict() == config.execution.to_dict()

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(max_workers=0)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(default_mode="teleport")

    def test_worker_counts_are_capped_by_cpu_count(self):
        assert worker_cap() >= 1
        assert resolve_workers(10_000) == worker_cap()
        assert resolve_workers(1) == 1
        assert ExecutionConfig(max_workers=10_000).resolved_workers() == worker_cap()


@pytest.mark.pool
class TestWorkerPool:
    def test_batch_preserves_submission_order(self, bank_source):
        kv_source = get_target("kvstore").build_source()
        with WorkerPool(max_workers=2, task_timeout_seconds=5.0) as pool:
            payloads = pool.run_batch("bank", [bank_source] * 4, seed=3, iterations=10)
            assert [p["status"] for p in payloads] == ["ok"] * 4
            assert all(p["result"]["target"] == "bank" for p in payloads)
            kv = pool.run_batch("kvstore", [kv_source], seed=3, iterations=10)
            assert kv[0]["result"]["target"] == "kvstore"
            assert pool.tasks_executed == 5

    def test_results_are_seed_stable_across_batches(self, bank_source):
        with WorkerPool(max_workers=2, task_timeout_seconds=5.0) as pool:
            first = pool.run_batch("bank", [bank_source] * 3, seed=11, iterations=10)
            second = pool.run_batch("bank", [bank_source] * 3, seed=11, iterations=10)
        stable = lambda payload: {k: v for k, v in payload["result"].items() if k != "duration_seconds"}
        assert [stable(p) for p in first] == [stable(p) for p in second]

    def test_hung_task_times_out_without_poisoning_the_batch(self, bank_source):
        with WorkerPool(max_workers=2, task_timeout_seconds=1.0) as pool:
            payloads = pool.run_batch(
                "bank", [bank_source, bank_source + HANG_ON_LOAD, bank_source], iterations=10
            )
        assert [p["status"] for p in payloads] == ["ok", "timeout", "ok"]

    def test_concurrent_batches_share_the_pool(self, bank_source):
        """Batches beside a hung one finish first, and no task goes uncounted."""
        finished: list[str] = []

        def run(name: str, sources: list[str], rounds: int) -> None:
            for _ in range(rounds):
                statuses = {p["status"] for p in pool.run_batch("bank", sources, iterations=5)}
                assert statuses == ({"timeout"} if name == "hung" else {"ok"})
            finished.append(name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(max_workers=2, task_timeout_seconds=3.0) as pool:
                threads = [
                    threading.Thread(target=run, args=("hung", [bank_source + HANG_ON_LOAD], 1)),
                    threading.Thread(target=run, args=("quick-a", [bank_source] * 3, 2)),
                    threading.Thread(target=run, args=("quick-b", [bank_source] * 3, 2)),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(finished[:2]) == ["quick-a", "quick-b"]
                assert finished[2:] == ["hung"]
                assert pool.stats()["tasks_executed"] == 1 + 2 * 3 * 2
        finally:
            sys.setswitchinterval(interval)

    def test_a_killer_fails_no_task_of_a_concurrent_batch(self, bank_source):
        """Only the task that kills workers is quarantined, whichever batch
        shared the pool with it."""
        statuses: dict[str, list[str]] = {}

        def run(name: str, sources: list[str]) -> None:
            statuses[name] = [p["status"] for p in pool.run_batch("bank", sources, iterations=5)]

        with WorkerPool(max_workers=2, task_timeout_seconds=5.0) as pool:
            threads = [
                threading.Thread(target=run, args=("killer", [bank_source, bank_source + EXIT_ON_LOAD])),
                threading.Thread(target=run, args=("a", [bank_source] * 4)),
                threading.Thread(target=run, args=("b", [bank_source] * 4)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert pool.stats()["quarantined"] == 1
        assert statuses == {"killer": ["ok", "error"], "a": ["ok"] * 4, "b": ["ok"] * 4}

    def test_worker_death_is_isolated_and_pool_recovers(self, bank_source):
        with WorkerPool(max_workers=1, task_timeout_seconds=5.0) as pool:
            payloads = pool.run_batch(
                "bank", [bank_source, bank_source + EXIT_ON_LOAD, bank_source], iterations=10
            )
            assert payloads[1]["status"] == "error"
            assert payloads[0]["status"] == "ok"
            assert payloads[2]["status"] == "ok"
            # the pool must still serve work after rebuilding
            again = pool.run_batch("bank", [bank_source], iterations=10)
            assert again[0]["status"] == "ok"


@pytest.mark.pool
class TestSandboxRunnerBatches:
    def test_pool_mode_matches_inprocess_results(self, runner, bank_source):
        inproc = runner.run_batch("bank", [bank_source] * 3, seed=5, mode="inprocess")
        pooled = runner.run_batch("bank", [bank_source] * 3, seed=5, mode="pool")
        for a, b in zip(inproc, pooled):
            assert a.completed and b.completed
            assert a.result.metrics == b.result.metrics
            assert a.result.detected_errors == b.result.detected_errors

    def test_single_run_supports_pool_mode(self, runner, bank_source):
        observation = runner.run("bank", bank_source, mode="pool")
        assert observation.completed

    def test_unknown_mode_rejected_for_batches(self, runner, bank_source):
        from repro.errors import SandboxError

        with pytest.raises(SandboxError):
            runner.run_batch("bank", [bank_source], mode="teleport")

    def test_empty_batch_is_a_no_op(self, runner):
        assert runner.run_batch("bank", [], mode="pool") == []

    def test_pool_batch_granted_fewer_slots_runs_in_chunks(self, monkeypatch, bank_source):
        chunks: list[int] = []
        real_batch = WorkerPool.run_batch

        def run_batch(pool, target_name, module_sources, **kwargs):
            chunks.append(len(module_sources))
            return real_batch(pool, target_name, module_sources, **kwargs)

        monkeypatch.setattr(WorkerPool, "run_batch", run_batch)
        with SandboxRunner(execution=ExecutionConfig(max_workers=2)) as sandbox:
            slots = sandbox.slots
            sources = [bank_source, bank_source + "\nBROKEN = (\n", bank_source]
            with slots.claim(1):  # another caller holds one of the two slots
                observations = sandbox.run_batch("bank", sources, mode="pool", iterations=5)
            assert chunks == [1, 1, 1]
            assert [o.completed for o in observations] == [True, False, True]
            chunks.clear()
            sandbox.run_batch("bank", sources, mode="pool", iterations=5)
            assert chunks == [3]  # both slots free: the pool's own size bounds it
        assert slots.in_use == 0

    def test_threads_driving_one_runner_share_its_pool_and_slots(self, monkeypatch):
        # More threads than cores run two-task batches for two targets on one
        # runner: every task runs on its one pool, no more than its slots run
        # at once, and every slot comes back.
        live = peak = 0
        lock = threading.Lock()
        real_batch = WorkerPool.run_batch

        def run_batch(pool, target_name, module_sources, **kwargs):
            nonlocal live, peak
            with lock:
                live += len(module_sources)
                peak = max(peak, live)
            try:
                return real_batch(pool, target_name, module_sources, **kwargs)
            finally:
                with lock:
                    live -= len(module_sources)

        monkeypatch.setattr(WorkerPool, "run_batch", run_batch)
        sources = {name: get_target(name).build_source() for name in ("bank", "kvstore")}
        batches: list = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SandboxRunner(execution=ExecutionConfig(max_workers=2)) as sandbox:
                threads = [
                    threading.Thread(
                        target=lambda name=name: batches.append(
                            sandbox.run_batch(name, [sources[name]] * 2, mode="pool", iterations=3)
                        )
                    )
                    for name in ("bank", "kvstore") * 3
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert sandbox.slots.in_use == 0
                assert sandbox.pool_stats()["tasks_executed"] == 12
                assert list(sandbox._pools) == ["pool"]
        finally:
            sys.setswitchinterval(previous)
        assert len(batches) == 6
        assert all(observation.completed for batch in batches for observation in batch)
        assert 1 <= peak <= 2


class TestSandboxSlots:
    def test_a_claim_takes_what_is_free_and_waits_for_one(self):
        slots = SandboxSlots(3)
        granted: list[int] = []

        def late_claim() -> None:
            with slots.claim(2) as count:
                granted.append(count)

        with slots.claim(2) as first, slots.claim(5) as second:
            assert (first, second, slots.in_use) == (2, 1, 3)
            waiter = threading.Thread(target=late_claim)
            waiter.start()
            time.sleep(0.05)
            assert granted == []  # no slot is free
        waiter.join(timeout=5)
        assert granted == [2]
        assert slots.in_use == 0


class TestSandboxRunnerObservationBranches:
    def test_subprocess_timeout_sets_timed_out(self, runner, bank_source):
        observation = runner.run("bank", bank_source + HANG_ON_LOAD, mode="subprocess")
        assert observation.timed_out
        assert observation.result is None
        assert not observation.completed

    def test_subprocess_nonzero_exit_reports_harness_error(self, runner, bank_source):
        observation = runner.run("bank", bank_source + EXIT_ON_LOAD, mode="subprocess")
        assert observation.result is None
        assert not observation.timed_out
        assert "exited with status 7" in observation.harness_error

    def test_subprocess_unparseable_stdout_reports_harness_error(self, runner, bank_source):
        observation = runner.run("bank", bank_source + SILENT_EXIT_ON_LOAD, mode="subprocess")
        assert observation.result is None
        assert "could not parse workload output" in observation.harness_error

    def test_subprocess_result_survives_the_mutants_stdout(self, runner, bank_source):
        source = bank_source + UNTERMINATED_WRITE_ON_LOAD
        observation = runner.run("bank", source, mode="subprocess")
        assert observation.completed, observation.harness_error
        assert observation.stdout == "x"
        expected = runner.run("bank", source, mode="inprocess").result.to_dict()
        assert {**observation.result.to_dict(), "duration_seconds": 0} == {**expected, "duration_seconds": 0}

    def test_subprocess_runs_without_captured_output(self, bank_source):
        with SandboxRunner(IntegrationConfig(capture_output=False, test_timeout_seconds=30)) as runner:
            observation = runner.run("bank", bank_source, mode="subprocess")
        assert observation.completed, observation.harness_error

    @pytest.mark.pool
    def test_pool_timeout_sets_timed_out(self, runner, bank_source):
        observation = runner.run("bank", bank_source + HANG_ON_LOAD, mode="pool")
        assert observation.timed_out
        assert observation.result is None

    def test_scratch_directory_is_reused_and_left_clean(self, runner, bank_source):
        from pathlib import Path

        first = runner._scratch_file()
        second = runner._scratch_file()
        assert first.parent == second.parent
        assert first.name != second.name
        for _ in range(3):
            assert runner.run("bank", bank_source, mode="subprocess").completed
        assert runner.run("bank", bank_source + SILENT_EXIT_ON_LOAD, mode="subprocess").harness_error
        # Neither module files nor result files outlive their runs.
        assert list(Path(runner._scratch.name).iterdir()) == []


@pytest.mark.pool
class TestExperimentRunnerRunMany:
    @pytest.fixture()
    def faults(self, bank_source):
        load = (
            FaultLoad(name="mini")
            .add("negate_condition", "*", max_points=2)
            .add("wrong_return_value", "*", max_points=2)
        )
        return ProgrammableInjector().inject(bank_source, load)

    @staticmethod
    def _keys(batch):
        return [
            (o.fault_id, o.activated, o.failure_mode.value, o.tests_failed, o.details["reason"])
            for o in batch.outcomes
        ]

    def test_run_many_matches_serial_execution(self, faults):
        config = IntegrationConfig(test_timeout_seconds=5.0)
        serial = ExperimentRunner("bank", config=config)
        expected = [serial.run_applied(fault, mode="inprocess").outcome for fault in faults]
        expected_keys = [
            (o.fault_id, o.activated, o.failure_mode.value, o.tests_failed, o.details["reason"])
            for o in expected
        ]
        batched = ExperimentRunner(
            "bank", config=config, execution=ExecutionConfig(max_workers=2)
        )
        batch = batched.run_many(faults, mode="pool")
        assert self._keys(batch) == expected_keys

    def test_run_many_records_integration_failures_in_order(self, faults, bank_source):
        from dataclasses import replace

        broken = replace(faults[1], patch=replace(faults[1].patch, original="def other():\n    pass\n"))
        mixed = [faults[0], broken, faults[2]]
        runner = ExperimentRunner("bank", execution=ExecutionConfig(max_workers=2))
        batch = runner.run_many(mixed, mode="inprocess")
        assert len(batch) == 3
        assert batch.records[1].outcome.details.get("integration_failed")
        assert batch.records[0].outcome.fault_id == faults[0].operator + "@" + faults[0].point.qualified_function + ":" + str(faults[0].point.lineno)


class TestAnalysisCaches:
    def test_parse_cache_shares_trees_for_readonly_callers(self):
        source = "def cached_probe_fn(x):\n    return x + 1\n"
        PARSE_CACHE.clear()
        first = ast_utils.parse_module(source, mutable=False)
        second = ast_utils.parse_module(source, mutable=False)
        assert first is second
        assert PARSE_CACHE.stats.misses == 1
        assert PARSE_CACHE.stats.hits == 1

    def test_mutable_parses_never_alias_the_cache(self):
        source = "def mutable_probe_fn(x):\n    return x * 2\n"
        shared = ast_utils.parse_module(source, mutable=False)
        private = ast_utils.parse_module(source)
        assert private is not shared
        private.body.clear()
        assert ast_utils.parse_module(source, mutable=False).body  # cache unharmed

    def test_define_fault_parses_each_source_once(self):
        from repro import NeuralFaultInjector

        pipeline = NeuralFaultInjector()
        source = (
            "def process_payment(amount):\n"
            "    if amount <= 0:\n"
            "        raise ValueError('bad amount')\n"
            "    return {'charged': amount}\n"
        )
        PARSE_CACHE.clear()
        ANALYSIS_CACHE.clear()
        for _ in range(5):
            spec, context = pipeline.define_fault(
                "Simulate a timeout in process_payment causing an exception", code=source
            )
            assert context is not None
            assert context.selected_function == "process_payment"
        assert ANALYSIS_CACHE.stats.misses == 1
        assert ANALYSIS_CACHE.stats.hits == 4
        assert PARSE_CACHE.stats.misses == 1  # the one real parse behind the analysis

    def test_analysis_cache_returns_fresh_contexts(self, analyzer):
        source = "def fresh_ctx_probe():\n    return 1\n"
        first = analyzer.analyze(source)
        first.selected_function = "fresh_ctx_probe"
        second = analyzer.analyze(source)
        assert second.selected_function is None
        assert second is not first

    def test_build_source_is_memoized_per_target(self):
        target = get_target("bank")
        assert target.build_source() is target.build_source()

    def test_cache_stats_are_exposed(self):
        stats = cache_stats()
        assert "ast-parse" in stats
        assert "code-analysis" in stats
        assert set(stats["ast-parse"]) == {"hits", "misses", "evictions", "hit_rate"}

    def test_hash_keyed_cache_evicts_least_recently_used(self):
        cache = HashKeyedCache("test-lru", max_entries=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("c", lambda: 3)  # evicts b
        assert cache.stats.evictions == 1
        cache.get_or_compute("b", lambda: 2)
        assert cache.stats.misses == 4


class TestCampaignSharedSpecs:
    def test_compare_defines_each_scenario_once(self, prepared_pipeline, monkeypatch):
        from repro.core import CampaignOrchestrator

        calls = []
        original = prepared_pipeline.define_fault

        def counting_define(text, code=None, path=None):
            calls.append(text)
            return original(text, code=code, path=path)

        monkeypatch.setattr(prepared_pipeline, "define_fault", counting_define)
        orchestrator = CampaignOrchestrator(prepared_pipeline, target="bank", mode="inprocess")
        scenarios = [
            "Simulate a timeout in the transfer function causing an unhandled exception",
            "Silently corrupt the amount returned by the transfer function",
        ]
        orchestrator.compare(scenarios, budget=2)
        assert len(calls) == len(scenarios)
