"""Differential chaos suite: faults in the execution plane never change results.

Each test runs the same workload twice — once fault-free, once with the
self-chaos harness crashing workers, stalling tasks, and dropping results —
and asserts the *deterministic* payloads are byte-identical.  Chaos decisions
are seeded hashes that only fire on a task's first attempt, so supervision
(requeue-on-death, bounded retries) always converges on the clean result;
these tests are what make that guarantee enforceable.
"""

from __future__ import annotations

import json

import pytest

from repro import PipelineConfig
from repro.api import FaultInjectionEngine, GenerateRequest
from repro.config import (
    ChaosConfig,
    DistributedConfig,
    ExecutionConfig,
    ResilienceConfig,
)
from repro.distributed import DistributedPool
from repro.execution import WorkerPool
from repro.targets import get_target

DESCRIPTIONS = [
    "Simulate a timeout in the transfer function causing an unhandled exception",
    "Inject a delay before the deposit commits so concurrent audits observe stale state",
    "Corrupt the withdrawal amount so the balance check raises an assertion",
    "Drop the connection while the statement export is streaming",
]

#: Aggressive enough that every fault kind fires within a small batch,
#: deterministic via the seeded hash.
CHAOS = ChaosConfig(
    enabled=True,
    seed=31,
    worker_crash_probability=0.3,
    task_delay_probability=0.3,
    task_delay_seconds=0.02,
    drop_result_probability=0.3,
)


def _stable(payload: dict) -> dict:
    """A pool payload with the wall-clock measurement stripped."""
    result = {k: v for k, v in payload.items() if k != "result"}
    result["result"] = {
        k: v for k, v in payload.get("result", {}).items() if k != "duration_seconds"
    }
    return result


def _deterministic_wire(response) -> str:
    """The canonical deterministic bytes of one generate envelope.

    ``deterministic_dict`` already excludes measured durations; delay-fault
    outcomes additionally embed wall-clock readings in their detection
    ``reason`` ("run took 0.41s versus ..."), which differs between ANY two
    runs — fault-free ones included — so it is scrubbed here too.
    """
    data = response.payload.deterministic_dict()
    outcome = data.get("outcome")
    if outcome and isinstance(outcome.get("details"), dict):
        outcome["details"].pop("reason", None)
    return json.dumps(data, sort_keys=True)


@pytest.mark.pool
class TestPoolChaosDifferential:
    def test_chaotic_batches_match_fault_free_batches(self):
        bank = get_target("bank").build_source()
        sources = [bank] * 6
        with WorkerPool(max_workers=2, task_timeout_seconds=5.0) as pool:
            baseline = pool.run_batch("bank", sources, seed=3, iterations=10)
        resilience = ResilienceConfig(chaos=CHAOS)
        with WorkerPool(max_workers=2, task_timeout_seconds=5.0, resilience=resilience) as pool:
            chaotic = pool.run_batch("bank", sources, seed=3, iterations=10)
            stats = pool.stats()
        assert [p["status"] for p in baseline] == ["ok"] * 6
        assert [_stable(p) for p in chaotic] == [_stable(p) for p in baseline]
        # the run was actually disrupted, not a no-op
        assert stats["retries"] > 0

    def test_chaos_decisions_repeat_across_runs(self):
        bank = get_target("bank").build_source()
        resilience = ResilienceConfig(chaos=CHAOS)
        runs = []
        for _ in range(2):
            with WorkerPool(max_workers=2, task_timeout_seconds=5.0, resilience=resilience) as pool:
                payloads = pool.run_batch("bank", [bank] * 4, seed=7, iterations=10)
                runs.append(([_stable(p) for p in payloads], pool.stats()["retries"]))
        assert runs[0] == runs[1]


@pytest.mark.pool
class TestDistributedChaosDifferential:
    """The network-plane generalization: chaos kills *remote* workers.

    Chaos travels inside lease task payloads and is acted out at the worker
    process boundary — a scheduled crash SIGKILLs the whole remote worker,
    which the coordinator observes as an abrupt connection loss, exactly like
    a machine death.  The differential claim is the ISSUE's headline: a
    distributed campaign over 3 localhost workers, with at least one worker
    killed mid-run, is byte-identical to single-process pooled execution.
    """

    def _distributed_pool(self, resilience: ResilienceConfig | None) -> DistributedPool:
        return DistributedPool(
            max_workers=3,
            task_timeout_seconds=5.0,
            resilience=resilience,
            distributed=DistributedConfig(workers=3),
        )

    def test_chaotic_distributed_matches_fault_free_pool(self):
        bank = get_target("bank").build_source()
        sources = [bank] * 6
        with WorkerPool(max_workers=2, task_timeout_seconds=5.0) as pool:
            baseline = pool.run_batch("bank", sources, seed=7, iterations=10)
        with self._distributed_pool(ResilienceConfig(chaos=CHAOS)) as pool:
            chaotic = pool.run_batch("bank", sources, seed=7, iterations=10)
            stats = pool.stats()
        assert [p["status"] for p in baseline] == ["ok"] * 6
        assert [_stable(p) for p in chaotic] == [_stable(p) for p in baseline]
        # at least one remote worker was killed mid-run and its lease requeued
        assert stats["requeues"] > 0
        assert stats["retries"] > 0
        assert stats["pool_rebuilds"] > 0  # the fleet respawned the victim

    def test_distributed_chaos_decisions_repeat_across_runs(self):
        bank = get_target("bank").build_source()
        runs = []
        for _ in range(2):
            with self._distributed_pool(ResilienceConfig(chaos=CHAOS)) as pool:
                payloads = pool.run_batch("bank", [bank] * 4, seed=7, iterations=10)
                runs.append(([_stable(p) for p in payloads], pool.stats()["retries"]))
        assert runs[0] == runs[1]


@pytest.mark.pool
class TestEngineChaosDifferential:
    def _engine(self, chaos: ChaosConfig | None) -> FaultInjectionEngine:
        resilience = ResilienceConfig(chaos=chaos) if chaos is not None else ResilienceConfig()
        return FaultInjectionEngine(
            PipelineConfig(execution=ExecutionConfig(max_workers=2), resilience=resilience)
        )

    @staticmethod
    def _run_as_one_batch(engine: FaultInjectionEngine, requests) -> list:
        # All requests queue before the first dispatch, so they always form
        # ONE model/pool batch — deterministic grouping means deterministic
        # chaos keys, making the differential run exactly repeatable.
        with engine._scheduler.held():
            handles = [engine.submit(request) for request in requests]
        return [handle.result() for handle in handles]

    def test_served_results_are_byte_identical_under_chaos(self):
        requests = [
            GenerateRequest(description=text, target="bank", execute=True, mode="pool")
            for text in DESCRIPTIONS
        ]
        with self._engine(None) as engine:
            baseline = self._run_as_one_batch(engine, requests)
        with self._engine(CHAOS) as engine:
            chaotic = self._run_as_one_batch(engine, requests)
            stats = engine.execution_stats()
        assert all(r.ok for r in baseline)
        assert all(r.ok for r in chaotic)
        base_wire = [_deterministic_wire(r) for r in baseline]
        chaos_wire = [_deterministic_wire(r) for r in chaotic]
        assert chaos_wire == base_wire
        # supervision visibly intervened during the chaotic run
        assert stats["totals"]["retries"] + stats["totals"]["pool_rebuilds"] > 0

    def test_served_distributed_results_are_byte_identical_under_chaos(self):
        requests = [
            GenerateRequest(description=text, target="bank", execute=True, mode="distributed")
            for text in DESCRIPTIONS
        ]
        with self._engine(None) as engine:
            baseline = self._run_as_one_batch(engine, requests)
        with self._engine(CHAOS) as engine:
            chaotic = self._run_as_one_batch(engine, requests)
            stats = engine.execution_stats()
        assert all(r.ok for r in baseline)
        assert all(r.ok for r in chaotic)
        base_wire = [_deterministic_wire(r) for r in baseline]
        chaos_wire = [_deterministic_wire(r) for r in chaotic]
        assert chaos_wire == base_wire
        # the distributed plane visibly intervened and reported it
        assert stats["distributed"]["leases"] > 0
        assert stats["totals"]["retries"] > 0
