"""The supervision state machine, driven without processes or sockets.

``SupervisedBatch`` decides, for the local pool and the distributed
coordinator alike, which task a worker death is charged to, when a task is
requeued, when it is quarantined, and which payload is finally reported.
These tests play the transport themselves: hypothesis draws arbitrary event
schedules (results, vanished results, worker deaths alone or in a group,
late duplicate results) and the supervision guarantees are checked after
every step.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ChaosConfig, ResilienceConfig
from repro.execution.supervision import SupervisedBatch

NO_RESULT = {"status": "error", "error": "task produced no result"}


def _batch(task_count: int, counts: Counter, plane: str = "pool", **resilience) -> SupervisedBatch:
    return SupervisedBatch(
        "bank",
        [f"module_{index}" for index in range(task_count)],
        seed=7,
        iterations=3,
        timeout_seconds=2.0,
        resilience=ResilienceConfig(**resilience),
        plane=plane,
        tally=lambda counter: counts.update([counter]),
    )


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    task_count=st.integers(min_value=1, max_value=8),
    budget=st.integers(min_value=0, max_value=4),
    threshold=st.integers(min_value=1, max_value=3),
)
def test_every_schedule_keeps_the_supervision_guarantees(data, task_count, budget, threshold):
    counts: Counter = Counter()
    batch = _batch(task_count, counts, task_retry_budget=budget, quarantine_threshold=threshold)
    takes: Counter = Counter()  # how often each task was handed out
    charged: Counter = Counter()  # deaths reported while the task ran alone
    results = iter(range(10**6))  # makes every reported payload distinct

    def resolve(index: int) -> None:
        before = batch.payloads()[index]
        payload = {"status": "ok", "result": {"task": index, "n": next(results)}}
        batch.resolve(index, payload)
        # The first result wins; a task that already has a payload keeps it.
        assert batch.payloads()[index] == (payload if before == NO_RESULT else before)

    # Each take hands out at least one task, and no task is handed out more
    # than budget + 1 times, so this bound proves termination.
    for _ in range(task_count * (budget + 1)):
        if batch.done():
            break
        before = batch.payloads()
        group = batch.take(data.draw(st.integers(min_value=1, max_value=4), label="limit"))
        assert group, "an unfinished batch always has a pending task"
        assert group == sorted(set(group))
        assert len(group) == 1 or not any(batch.is_suspect(index) for index in group)
        takes.update(group)
        assert all(takes[index] <= budget + 1 for index in group)
        assert all(batch.task(index)["attempt"] == takes[index] - 1 for index in group)

        event = data.draw(st.sampled_from(("results", "death")), label="event")
        if event == "death":
            alone = len(group) == 1 and data.draw(st.booleans(), label="alone")
            for index in group:
                batch.died(index, alone=alone)
                if alone:
                    charged[index] += 1
                else:
                    assert batch.is_suspect(index) or batch.payloads()[index] != NO_RESULT
        else:
            for index in group:
                if data.draw(st.booleans(), label="vanished"):
                    batch.vanished(index)
                else:
                    resolve(index)
        if data.draw(st.booleans(), label="late duplicate"):
            resolve(data.draw(st.integers(min_value=0, max_value=task_count - 1), label="late"))

        # A payload, once set, never changes.
        after = batch.payloads()
        assert all(old == new for old, new in zip(before, after) if old != NO_RESULT)
    assert batch.done()

    payloads = batch.payloads()
    assert len(payloads) == task_count
    quarantined = [index for index, payload in enumerate(payloads) if payload.get("quarantined")]
    for index, payload in enumerate(payloads):
        if payload.get("quarantined"):
            assert charged[index] == threshold
            assert payload["error"] == (
                f"task quarantined after killing {threshold} pool workers (threshold {threshold})"
            )
        else:
            assert charged[index] < threshold
        if payload["status"] == "error" and not payload.get("quarantined"):
            assert payload["error"] == f"worker died and the task's retry budget ({budget}) is exhausted"
            assert takes[index] == budget + 1
    assert counts["quarantined"] == len(quarantined)
    assert counts["retries"] <= task_count * budget


@pytest.mark.parametrize("plane", ["pool", "distributed"])
def test_error_strings_are_pinned_for_each_plane(plane):
    counts: Counter = Counter()
    batch = _batch(3, counts, plane=plane, task_retry_budget=1, quarantine_threshold=2)
    assert batch.payloads()[0] == {"status": "error", "error": "task produced no result"}

    for _ in range(2):
        assert batch.take(1) == [0]
        batch.died(0, alone=True)
    for _ in range(2):
        assert batch.take(1) == [1]
        batch.vanished(1)
    assert batch.take(1) == [2]
    batch.resolve(2, {"status": "ok"})

    assert batch.done()
    assert batch.payloads() == [
        {
            "status": "error",
            "error": f"task quarantined after killing 2 {plane} workers (threshold 2)",
            "quarantined": True,
        },
        {"status": "error", "error": "worker died and the task's retry budget (1) is exhausted"},
        {"status": "ok"},
    ]
    assert counts == {"retries": 2, "quarantined": 1}


def test_a_group_death_makes_suspects_that_travel_alone():
    counts: Counter = Counter()
    batch = _batch(4, counts)
    assert batch.take(4) == [0, 1, 2, 3]
    batch.died(1, alone=False)
    batch.died(2, alone=False)
    batch.vanished(0)  # an unblamed requeue keeps a task groupable
    batch.vanished(3)
    assert [batch.is_suspect(index) for index in range(4)] == [False, True, True, False]
    # A suspect ends the group before it and travels alone.
    assert [batch.take(4) for _ in range(5)] == [[0], [1], [2], [3], []]
    assert counts == {"retries": 4}


def test_tasks_carry_the_chaos_plan_key_and_attempt():
    chaos = ChaosConfig(enabled=True, drop_result_probability=0.5)
    batch = SupervisedBatch(
        "kvstore", ["a", "b"], 11, 4, 3.0, ResilienceConfig(chaos=chaos), "distributed", lambda _: None
    )
    assert batch.task(1) == {
        "task_id": "1",
        "target": "kvstore",
        "source": "b",
        "seed": 11,
        "iterations": 4,
        "timeout_seconds": 3.0,
        "chaos": chaos.to_dict(),
        "chaos_key": "kvstore:11:1",
        "attempt": 0,
    }
    batch.take(2)
    batch.vanished(1)
    assert batch.task(1)["attempt"] == 1
    assert _batch(1, Counter()).task(0)["chaos"] is None


def test_fail_outstanding_fills_only_tasks_without_a_payload():
    batch = _batch(3, Counter())
    batch.take(3)
    batch.resolve(1, {"status": "ok"})
    batch.vanished(2)
    batch.fail_outstanding("coordinator shut down mid-batch")
    assert batch.take(3) == []
    assert batch.done()
    assert [payload["status"] for payload in batch.payloads()] == ["error", "ok", "error"]
    assert batch.payloads()[2]["error"] == "coordinator shut down mid-batch"
