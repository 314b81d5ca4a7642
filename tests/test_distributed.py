"""Tests for the distributed execution plane: coordinator, workers, launcher.

Real-fleet tests share one module-scoped runner so the localhost workers are
spawned once; scripted-worker tests drive the coordinator over real sockets
with in-process threads, so supervision bookkeeping (budgets, quarantine,
elastic membership) is exercised without paying process-spawn time.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.config import (
    DistributedConfig,
    ExecutionConfig,
    IntegrationConfig,
    PipelineConfig,
    ResilienceConfig,
)
from repro.distributed import (
    DistributedPool,
    GoodbyeFrame,
    HelloFrame,
    LeaseFrame,
    RegisterFrame,
    RemoteWorker,
    ResultFrame,
    recv_frame,
    send_frame,
)
from repro.errors import ConfigurationError, SandboxError
from repro.integration import SandboxRunner
from repro.targets import get_target

pytestmark = pytest.mark.pool

#: Kills the hosting worker process outright while the module loads.
EXIT_ON_LOAD = "import os\nos._exit(7)\n"


@pytest.fixture(scope="module")
def bank_source() -> str:
    return get_target("bank").build_source()


@pytest.fixture(scope="module")
def dist_runner():
    """One warm runner with a 3-worker localhost fleet, shared by the module."""
    runner = SandboxRunner(
        IntegrationConfig(test_timeout_seconds=10.0, workload_iterations=5),
        execution=ExecutionConfig(max_workers=3, distributed=DistributedConfig(workers=3)),
    )
    yield runner
    runner.close()


class TestDistributedConfig:
    def test_defaults_round_trip_through_pipeline_config(self):
        config = PipelineConfig()
        assert config.execution.distributed.spawn_workers is True
        rebuilt = PipelineConfig.from_dict(config.to_dict())
        assert rebuilt.execution.to_dict() == config.execution.to_dict()

    def test_distributed_is_a_known_execution_mode(self):
        ExecutionConfig(default_mode="distributed")

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            DistributedConfig(host="")
        with pytest.raises(ConfigurationError):
            DistributedConfig(port=70000)
        with pytest.raises(ConfigurationError):
            DistributedConfig(worker_capacity=0)
        with pytest.raises(ConfigurationError):
            DistributedConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            DistributedConfig(heartbeat_interval_seconds=0)
        with pytest.raises(ConfigurationError):
            DistributedConfig(heartbeat_interval_seconds=1.0, heartbeat_timeout_seconds=0.5)
        with pytest.raises(ConfigurationError):
            DistributedConfig(worker_wait_seconds=0)


class TestDistributedFleetExecution:
    def test_batch_preserves_submission_order(self, dist_runner, bank_source):
        kv_source = get_target("kvstore").build_source()
        observations = dist_runner.run_batch(
            "bank", [bank_source] * 3, seed=5, iterations=5, mode="distributed"
        )
        assert [o.completed for o in observations] == [True] * 3
        kv = dist_runner.run_batch(
            "kvstore", [kv_source] * 2, seed=5, iterations=5, mode="distributed"
        )
        assert [o.completed for o in kv] == [True] * 2
        assert all(o.result.target == "kvstore" for o in kv)

    def test_distributed_matches_pool_results(self, dist_runner, bank_source):
        distributed = dist_runner.run_batch(
            "bank", [bank_source] * 4, seed=11, iterations=5, mode="distributed"
        )
        with SandboxRunner(
            IntegrationConfig(test_timeout_seconds=10.0, workload_iterations=5),
            execution=ExecutionConfig(max_workers=2),
        ) as local:
            pooled = local.run_batch("bank", [bank_source] * 4, seed=11, iterations=5, mode="pool")

        def stable(observation):
            data = observation.result.to_dict()
            data.pop("duration_seconds", None)
            return data

        assert [stable(o) for o in distributed] == [stable(o) for o in pooled]

    def test_single_run_supports_distributed_mode(self, dist_runner, bank_source):
        observation = dist_runner.run(
            "bank", bank_source, seed=5, iterations=5, mode="distributed"
        )
        assert observation.completed

    def test_stats_expose_distribution_counters(self, dist_runner, bank_source):
        dist_runner.run_batch("bank", [bank_source] * 2, seed=5, iterations=5, mode="distributed")
        # The batch can finish before the whole fleet has registered.
        assert dist_runner._pools["distributed"].wait_for_workers(3, timeout=30.0)
        stats = dist_runner.distributed_stats()
        assert stats["workers"] == 3
        assert stats["tasks_executed"] >= 2
        assert stats["leases"] >= 2
        for key in ("pool_rebuilds", "retries", "quarantined", "requeues", "rebalances"):
            assert stats[key] >= 0

    def test_timeouts_are_observed_remotely(self, dist_runner):
        hang = "import time\ntime.sleep(60)\n"
        observations = dist_runner.run_batch(
            "bank", [hang], seed=5, iterations=5, mode="distributed", timeout_seconds=1.0
        )
        assert observations[0].timed_out

    def test_a_hung_batch_holds_only_the_worker_running_it(self, dist_runner, bank_source):
        # One coordinator serves every caller of a runner: while one thread's
        # batch hangs on one worker, another thread's batch runs on the rest.
        dist_runner.run_batch("bank", [bank_source], seed=5, iterations=5, mode="distributed")
        assert dist_runner._pools["distributed"].wait_for_workers(3, timeout=30.0)
        hung: list = []
        hang = "import time\ntime.sleep(60)\n"
        thread = threading.Thread(
            target=lambda: hung.extend(
                dist_runner.run_batch(
                    "bank", [hang], seed=5, iterations=5, mode="distributed", timeout_seconds=3.0
                )
            )
        )
        thread.start()
        time.sleep(0.5)  # the hung task holds its worker by now
        started = time.monotonic()
        kv = dist_runner.run_batch(
            "kvstore", [get_target("kvstore").build_source()], seed=5, iterations=5, mode="distributed"
        )
        elapsed = time.monotonic() - started
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert hung[0].timed_out
        assert kv[0].completed
        assert elapsed < 2.0, f"the kvstore batch waited {elapsed:.2f}s behind the hung batch"

    def test_concurrent_batches_share_the_fleet(self, dist_runner, bank_source):
        # More threads than cores drive batches through one coordinator with
        # a short switch interval: every batch comes back whole and in order,
        # and no task goes uncounted.
        pool = dist_runner._pools.get("distributed")
        before = pool.stats()["tasks_executed"] if pool is not None else 0
        kv_source = get_target("kvstore").build_source()
        results: dict[int, list] = {}

        def drive(index: int) -> None:
            target, source = ("bank", bank_source) if index % 2 else ("kvstore", kv_source)
            results[index] = dist_runner.run_batch(
                target, [source] * 3, seed=index, iterations=3, mode="distributed"
            )

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drive, args=(index,)) for index in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(6))
        for index, observations in results.items():
            assert [o.result.target for o in observations] == ["bank" if index % 2 else "kvstore"] * 3
        assert dist_runner.distributed_stats()["tasks_executed"] - before == 18


def _processes_mentioning(text: str) -> list[str]:
    """Command lines of live processes with ``text`` as one of their arguments."""
    found = []
    for pid in os.listdir("/proc"):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
        except OSError:  # not a process, or it exited meanwhile
            continue
        if text.encode() in argv:
            found.append(b" ".join(argv).decode(errors="replace"))
    return found


class TestFleetShutdown:
    def test_shutdown_reaps_workers_and_their_sandbox_children(self, bank_source):
        distributed = DistributedConfig(workers=2, worker_capacity=2)
        with DistributedPool(max_workers=2, distributed=distributed) as pool:
            payloads = pool.run_batch("bank", [bank_source] * 4, seed=5, iterations=5)
            address = pool.connect_address
            assert _processes_mentioning(address)
        assert [payload["status"] for payload in payloads] == ["ok"] * 4
        deadline = time.monotonic() + 5.0
        while _processes_mentioning(address) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _processes_mentioning(address) == []


class TestRemoteWorkerPayloads:
    def test_a_task_quarantined_inside_a_remote_worker_keeps_its_flag(self, bank_source):
        distributed = DistributedConfig(spawn_workers=False, worker_wait_seconds=30.0)
        with DistributedPool(max_workers=1, task_timeout_seconds=5.0, distributed=distributed) as pool:
            worker = RemoteWorker(*pool.address, max_workers=1)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            payloads = pool.run_batch(
                "bank", [bank_source + EXIT_ON_LOAD, bank_source], seed=5, iterations=5
            )
        thread.join(timeout=10.0)
        assert not thread.is_alive()  # GOODBYE ended the worker and its inner pool
        assert [payload["status"] for payload in payloads] == ["error", "ok"]
        assert payloads[0]["quarantined"] is True
        assert payloads[0]["error"] == "task quarantined after killing 2 pool workers (threshold 2)"


class _ScriptedWorker:
    """An in-process peer speaking the real protocol with scripted behaviour.

    ``script`` is consumed one entry per lease: ``"ok"`` returns payloads for
    every task, ``"die"`` drops the connection mid-lease, ``"empty"`` returns
    a RESULT frame with every task missing (the chaos-drop shape), and
    ``"stall"`` sleeps past the heartbeat timeout without beating.  When the
    script runs dry the worker keeps answering ``"ok"``.
    """

    def __init__(self, pool: DistributedPool, script: tuple[str, ...] = (), capacity: int = 1):
        self.pool = pool
        self.script = list(script)
        self.capacity = capacity
        self.served: list[str] = []
        self.thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "_ScriptedWorker":
        self.thread.start()
        return self

    @staticmethod
    def payload_for(task: dict) -> dict:
        return {"status": "ok", "result": {"echo": task["source"], "seed": task["seed"]}}

    def _run(self) -> None:
        import socket

        host, port = self.pool.address
        sock = socket.create_connection((host, port), timeout=5.0)
        try:
            send_frame(sock, HelloFrame(worker_id="scripted", capacity=self.capacity))
            register = recv_frame(sock)
            assert isinstance(register, RegisterFrame)
            while True:
                frame = recv_frame(sock)
                if isinstance(frame, GoodbyeFrame):
                    return
                assert isinstance(frame, LeaseFrame)
                action = self.script.pop(0) if self.script else "ok"
                self.served.append(action)
                if action == "die":
                    return
                if action == "stall":
                    time.sleep(self.pool.distributed.heartbeat_timeout_seconds + 0.3)
                    continue
                results = {}
                if action == "ok":
                    results = {
                        str(task["task_id"]): self.payload_for(task) for task in frame.tasks
                    }
                send_frame(sock, ResultFrame(lease_id=frame.lease_id, results=results))
        except (ConnectionError, OSError):
            return
        finally:
            sock.close()


def _scripted_pool(**overrides) -> DistributedPool:
    settings = {
        "spawn_workers": False,
        "worker_wait_seconds": 5.0,
        "heartbeat_interval_seconds": 0.05,
        "heartbeat_timeout_seconds": 0.5,
    }
    settings.update(overrides.pop("distributed", {}))
    return DistributedPool(
        max_workers=2,
        task_timeout_seconds=2.0,
        distributed=DistributedConfig(**settings),
        **overrides,
    )


class TestCoordinatorSupervision:
    def test_scripted_worker_serves_a_batch_in_order(self):
        with _scripted_pool() as pool:
            _ScriptedWorker(pool).start()
            payloads = pool.run_batch("bank", ["a", "b", "c"], seed=9, iterations=1)
        assert [p["result"]["echo"] for p in payloads] == ["a", "b", "c"]
        assert pool.stats()["tasks_executed"] == 3

    def test_worker_death_requeues_onto_survivors(self):
        with _scripted_pool() as pool:
            # Registered first, the dying worker sorts first and takes the
            # first lease, so its death always has work to requeue.
            _ScriptedWorker(pool, script=("die",)).start()
            assert pool.wait_for_workers(1, timeout=5.0)
            survivor = _ScriptedWorker(pool).start()
            payloads = pool.run_batch("bank", ["a", "b"], seed=9, iterations=1)
            stats = pool.stats()
        assert [p["status"] for p in payloads] == ["ok", "ok"]
        assert stats["requeues"] >= 1
        assert stats["retries"] >= 1
        assert stats["rebalances"] >= 1
        assert "ok" in survivor.served

    def test_elastic_join_mid_batch_completes_the_work(self):
        with _scripted_pool() as pool:
            done = threading.Event()
            results: list = []

            def run():
                results.extend(pool.run_batch("bank", ["a", "b"], seed=9, iterations=1))
                done.set()

            threading.Thread(target=run, daemon=True).start()
            time.sleep(0.3)  # batch is waiting with zero workers
            _ScriptedWorker(pool).start()
            assert done.wait(timeout=5.0)
        assert [p["status"] for p in results] == ["ok", "ok"]
        assert pool.stats()["rebalances"] >= 1

    def test_retry_budget_exhaustion_fails_the_task(self):
        resilience = ResilienceConfig(task_retry_budget=2)
        with _scripted_pool(resilience=resilience) as pool:
            # Every lease comes back with the result missing (the chaos-drop
            # shape), so the task is requeued unattributed until the budget.
            _ScriptedWorker(pool, script=("empty",) * 8).start()
            payloads = pool.run_batch("bank", ["a"], seed=9, iterations=1)
            stats = pool.stats()
        assert payloads[0]["status"] == "error"
        assert "retry budget (2) is exhausted" in payloads[0]["error"]
        assert stats["retries"] == 2
        assert stats["quarantined"] == 0

    def test_repeat_killer_is_quarantined(self):
        resilience = ResilienceConfig(quarantine_threshold=2, task_retry_budget=5)
        with _scripted_pool(resilience=resilience) as pool:
            killers = [_ScriptedWorker(pool, script=("die",)) for _ in range(2)]
            for worker in killers:
                worker.start()
                time.sleep(0.05)
            payloads = pool.run_batch("bank", ["a"], seed=9, iterations=1)
            stats = pool.stats()
        assert payloads[0]["status"] == "error"
        assert payloads[0].get("quarantined") is True
        assert "quarantined after killing 2 distributed workers" in payloads[0]["error"]
        assert stats["quarantined"] == 1

    def test_missed_heartbeats_requeue_the_lease(self):
        with _scripted_pool() as pool:
            _ScriptedWorker(pool, script=("stall",)).start()
            time.sleep(0.05)
            rescuer = _ScriptedWorker(pool).start()
            payloads = pool.run_batch("bank", ["a"], seed=9, iterations=1)
            stats = pool.stats()
        assert payloads[0]["status"] == "ok"
        assert stats["requeues"] >= 1
        assert "ok" in rescuer.served

    def test_no_workers_fails_after_the_wait_budget(self):
        with _scripted_pool(distributed={"worker_wait_seconds": 0.3}) as pool:
            started = time.monotonic()
            payloads = pool.run_batch("bank", ["a", "b"], seed=9, iterations=1)
            elapsed = time.monotonic() - started
        assert [p["status"] for p in payloads] == ["error", "error"]
        assert "no distributed workers available" in payloads[0]["error"]
        assert elapsed < 4.0

    def test_shutdown_is_idempotent_and_final(self):
        pool = _scripted_pool()
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(SandboxError):
            pool.run_batch("bank", ["a"], seed=9, iterations=1)
