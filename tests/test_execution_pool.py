"""Tests for the campaign execution engine: worker pools, batching, caching.

Pool tests use one or two workers and short timeouts so the whole module stays
inside the fast tier-1 budget.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.config import ExecutionConfig, IntegrationConfig, PipelineConfig
from repro.errors import ConfigurationError
from repro.execution import SandboxSlots, WorkerPool, resolve_workers, worker_cap
from repro.execution import pool as pool_module
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
#: Swallows the in-worker alarm, so only the parent-side backstop ends it.
WEDGE_ON_LOAD = "import time\nwhile True:\n    try:\n        time.sleep(60)\n    except BaseException:\n        pass\n"
#: Prints to both streams, flushed, when the module loads.
PRINT_ON_LOAD = "import sys\nprint('mutant says hello', flush=True)\nprint('mutant warns', file=sys.stderr, flush=True)\n"


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

    def test_a_wedged_task_holding_the_only_slot_is_cut_at_its_backstop(self, monkeypatch, bank_source):
        # The batch's second task waits for the slot the wedged first task
        # holds, so the wait itself must end that task at its backstop.
        monkeypatch.setattr(pool_module, "_BACKSTOP_GRACE_SECONDS", 1.0)
        slots = SandboxSlots(1)
        with WorkerPool(max_workers=1, task_timeout_seconds=0.5, slots=slots) as pool:
            payloads = pool.run_batch("bank", [bank_source + WEDGE_ON_LOAD, bank_source], iterations=5)
            assert slots.in_use == 0
            stats = pool.stats()
        assert [p["status"] for p in payloads] == ["timeout", "ok"]
        assert stats["pool_rebuilds"] >= 1
        assert stats["retries"] == 1  # only the task that never ran reruns

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

    def test_a_pool_runs_no_more_tasks_at_once_than_its_slots(self, monkeypatch, bank_source):
        live = peak = 0
        lock = threading.Lock()
        real_submit = pool_module._submit

        def finished(_future) -> None:
            nonlocal live
            with lock:
                live -= 1

        def submit(executor, task):
            # Counts a task from its submission until its future resolves;
            # this callback runs before the one that frees its slot.
            nonlocal live, peak
            with lock:
                live += 1
                peak = max(peak, live)
            future = real_submit(executor, task)
            future.add_done_callback(finished)
            return future

        monkeypatch.setattr(pool_module, "_submit", submit)
        slots = SandboxSlots(1)
        with WorkerPool(max_workers=2, task_timeout_seconds=5.0, slots=slots) as pool:
            payloads = pool.run_batch("bank", [bank_source] * 3, iterations=5)
            assert slots.in_use == 0
        assert [p["status"] for p in payloads] == ["ok"] * 3
        assert peak == 1

    def test_a_suspect_rerunning_alone_holds_one_slot(self, monkeypatch, bank_source):
        held: list[int] = []
        real_run_alone = pool_module._run_alone

        def run_alone(task, backstop):
            held.append(slots.in_use)
            return real_run_alone(task, backstop)

        monkeypatch.setattr(pool_module, "_run_alone", run_alone)
        slots = SandboxSlots(2)
        with WorkerPool(max_workers=2, task_timeout_seconds=5.0, slots=slots) as pool:
            payloads = pool.run_batch("bank", [bank_source, bank_source + EXIT_ON_LOAD], iterations=5)
            assert slots.in_use == 0
        assert [p["status"] for p in payloads] == ["ok", "error"]
        assert held and set(held) == {1}

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

    def test_a_task_waits_for_a_slot_not_for_its_batch(self, tmp_path, bank_source):
        # Four slots, one held by another caller: the gated task runs until
        # the batch's last task has run, which needs a slot that only a short
        # task can free while the gated one still holds its own.
        gate = tmp_path / "last-task-ran"
        gated = bank_source + (
            "\nimport os as _os, time as _time\n"
            f"while not _os.path.exists({str(gate)!r}):\n"
            "    _time.sleep(0.005)\n"
        )
        marks = [tmp_path / "first", tmp_path / "second", gate]
        sources = [gated] + [bank_source + f"\nopen({str(mark)!r}, 'w').close()\n" for mark in marks]
        integration = IntegrationConfig(test_timeout_seconds=5.0)
        with SandboxRunner(integration, execution=ExecutionConfig(max_workers=4)) as sandbox:
            with sandbox.slots.claim():
                observations = sandbox.run_batch("bank", sources, mode="pool", iterations=5)
            assert sandbox.slots.in_use == 0
        assert [o.completed for o in observations] == [True] * 4, [o.timed_out for o in observations]

    @pytest.mark.parametrize("mode", ["subprocess", "pool"])
    def test_a_batch_waits_while_another_caller_holds_every_slot(self, mode, bank_source):
        integration = IntegrationConfig(test_timeout_seconds=5.0)
        observations: list = []
        done = threading.Event()
        with SandboxRunner(integration, execution=ExecutionConfig(max_workers=2)) as sandbox:

            def run() -> None:
                observations.extend(sandbox.run_batch("bank", [bank_source] * 2, mode=mode, iterations=5))
                done.set()

            held = [sandbox.slots.acquire() for _ in range(sandbox.slots.total)]
            worker = threading.Thread(target=run)
            worker.start()
            assert not done.wait(0.3)  # no task may start without a slot
            for release in held:
                release()
            worker.join(timeout=60)
            assert done.is_set()
            assert sandbox.slots.in_use == 0
        assert [o.completed for o in observations] == [True, True]

    def test_threads_driving_one_runner_share_its_pool_and_slots(self, monkeypatch):
        # More threads than cores run two-task batches for two targets on one
        # runner: every task runs on its one pool, no more than its slots run
        # at once, and every slot comes back.
        live = peak = 0
        lock = threading.Lock()
        real_submit = pool_module._submit

        def finished(_future) -> None:
            nonlocal live
            with lock:
                live -= 1

        def submit(executor, task):
            # A task counts from its submission until its future resolves;
            # this callback runs before the one that frees its slot.
            nonlocal live, peak
            with lock:
                live += 1
                peak = max(peak, live)
            future = real_submit(executor, task)
            future.add_done_callback(finished)
            return future

        monkeypatch.setattr(pool_module, "_submit", submit)
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
    def test_a_claim_holds_one_slot_and_waits_for_a_free_one(self):
        slots = SandboxSlots(2)
        taken = threading.Event()

        def late_claim() -> None:
            with slots.claim():
                taken.set()

        with slots.claim(), slots.claim():
            assert slots.in_use == 2
            assert slots.acquire(timeout=0) is None
            waiter = threading.Thread(target=late_claim)
            waiter.start()
            assert not taken.wait(0.05)  # no slot is free
        waiter.join(timeout=5)
        assert taken.is_set() and not waiter.is_alive()
        assert slots.in_use == 0

    def test_a_slot_is_given_back_once(self):
        slots = SandboxSlots(2)
        release = slots.acquire()
        held = slots.acquire()
        release()
        release()  # a pool task's future and its batch both give it back
        assert slots.in_use == 1
        held()
        assert slots.in_use == 0

    @pytest.mark.parametrize("asked", [0, -3])
    def test_a_budget_has_at_least_one_slot(self, asked):
        slots = SandboxSlots(asked)
        assert slots.total == 1
        with slots.claim():
            assert slots.in_use == 1

    def test_a_claim_gives_its_slot_back_when_its_block_raises(self):
        slots = SandboxSlots(1)
        with pytest.raises(RuntimeError):
            with slots.claim():
                raise RuntimeError("sandbox run failed")
        assert slots.in_use == 0

    def test_a_timed_acquire_takes_a_slot_given_back_before_it_times_out(self):
        slots = SandboxSlots(1)
        release = slots.acquire()
        waiting = threading.Event()
        taken: list = []

        def wait_for_slot() -> None:
            waiting.set()
            taken.append(slots.acquire(timeout=30))

        waiter = threading.Thread(target=wait_for_slot)
        waiter.start()
        waiting.wait(5)
        release()
        waiter.join(timeout=30)
        assert taken and taken[0] is not None
        assert slots.in_use == 1
        taken[0]()
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
    def test_pool_captures_what_the_mutant_prints(self, runner, bank_source, capfd):
        source = bank_source + PRINT_ON_LOAD
        expected = runner.run("bank", source, mode="subprocess")
        observation = runner.run("bank", source, mode="pool")
        assert observation.completed, observation.harness_error
        assert observation.stdout == expected.stdout == "mutant says hello\n"
        assert observation.stderr == expected.stderr
        assert "mutant warns\n" in observation.stderr
        captured = capfd.readouterr()
        assert captured.out == ""
        assert "mutant warns" not in captured.err

    @pytest.mark.pool
    def test_pool_echoes_output_it_does_not_capture(self, bank_source, capsys):
        with SandboxRunner(
            IntegrationConfig(capture_output=False, test_timeout_seconds=5), execution=ExecutionConfig(max_workers=1)
        ) as runner:
            observation = runner.run("bank", bank_source + PRINT_ON_LOAD, mode="pool")
        assert observation.completed, observation.harness_error
        assert (observation.stdout, observation.stderr) == ("", "")
        captured = capsys.readouterr()
        assert captured.out == "mutant says hello\n"
        assert "mutant warns\n" in captured.err

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
