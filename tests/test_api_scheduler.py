"""Scheduler semantics: FIFO dispatch, continuous batching, grouping, and
the submit/run_many/stream delivery surfaces."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import FaultInjectionEngine, GenerateRequest
from repro.api import DatasetRequest, Response, Scheduler, SchedulerStats, Ticket
from repro.api.scheduler import STATS_BATCH_WINDOW, ResponseHandle
from repro.errors import EngineClosedError

DESCRIPTIONS = [
    "Simulate a timeout in the transfer function causing an unhandled exception",
    "Silently corrupt the amount returned by the transfer function",
    "Make the withdraw function silently swallow errors instead of raising them",
    "Remove the overdraft validation check from withdraw",
    "Raise an unexpected exception in deposit when the amount is small",
]


def _ticket(request) -> Ticket:
    return Ticket(request=request, handle=ResponseHandle(request.request_id or "t", request.kind))


def _held_until_submitted(engine, requests):
    """Yield ``requests`` with the dispatch thread held, so ``run_many`` over
    them queues every ticket before the first dispatch."""
    with engine._scheduler.held():
        yield from requests


def _resolve_all(tickets):
    for ticket in tickets:
        ticket.handle._resolve(
            Response(request_id=ticket.handle.request_id, kind=ticket.request.kind, status="ok")
        )


class TestSchedulerCoalescing:
    """Direct scheduler tests with controllable dispatch callbacks."""

    def test_contiguous_generate_requests_coalesce_into_one_batch(self):
        dispatched: list[list[str]] = []
        started, release = threading.Event(), threading.Event()

        def dispatch_batch(tickets):
            if not dispatched:
                started.set()
                release.wait(timeout=10)
            dispatched.append([t.handle.request_id for t in tickets])
            _resolve_all(tickets)

        scheduler = Scheduler(
            dispatch_batch=dispatch_batch,
            dispatch_single=lambda t: _resolve_all([t]),
            max_batch_size=8,
        )
        first = _ticket(GenerateRequest(description="x", request_id="g0"))
        scheduler.submit(first)
        # g0 dispatches alone, without waiting for company; the five
        # requests that queue while it runs go out together as ONE batch.
        assert started.wait(timeout=10)
        rest = [
            _ticket(GenerateRequest(description="x", request_id=f"g{i}")) for i in range(1, 6)
        ]
        for ticket in rest:
            scheduler.submit(ticket)
        release.set()
        for ticket in [first, *rest]:
            ticket.handle.result(timeout=10)
        scheduler.close()
        assert dispatched == [["g0"], [f"g{i}" for i in range(1, 6)]]

    def test_max_batch_size_bounds_each_dispatch(self):
        dispatched: list[int] = []

        def dispatch_batch(tickets):
            dispatched.append(len(tickets))
            _resolve_all(tickets)

        scheduler = Scheduler(
            dispatch_batch=dispatch_batch,
            dispatch_single=lambda t: _resolve_all([t]),
            max_batch_size=3,
        )
        tickets = [
            _ticket(GenerateRequest(description="x", request_id=f"g{i}")) for i in range(7)
        ]
        with scheduler.held():
            for ticket in tickets:
                scheduler.submit(ticket)
        for ticket in tickets:
            ticket.handle.result(timeout=10)
        scheduler.close()
        assert dispatched == [3, 3, 1]

    def test_fifo_is_preserved_across_request_kinds(self):
        order: list[str] = []

        def dispatch_batch(tickets):
            order.append("generate:" + ",".join(t.handle.request_id for t in tickets))
            _resolve_all(tickets)

        def dispatch_single(ticket):
            order.append(ticket.request.kind + ":" + ticket.handle.request_id)
            _resolve_all([ticket])

        scheduler = Scheduler(
            dispatch_batch=dispatch_batch,
            dispatch_single=dispatch_single,
            max_batch_size=8,
        )
        g0 = _ticket(GenerateRequest(description="x", request_id="g0"))
        d0 = _ticket(DatasetRequest(request_id="d0"))
        g1 = _ticket(GenerateRequest(description="x", request_id="g1"))
        g2 = _ticket(GenerateRequest(description="x", request_id="g2"))
        with scheduler.held():
            for ticket in (g0, d0, g1, g2):
                scheduler.submit(ticket)
        for ticket in (g0, d0, g1, g2):
            ticket.handle.result(timeout=10)
        scheduler.close()
        # The dataset ticket is a batching barrier: g1/g2 coalesce together
        # behind it, never around it.
        assert order == ["generate:g0", "dataset:d0", "generate:g1,g2"]

    def test_dispatcher_crash_resolves_stranded_handles(self):
        def dispatch_batch(tickets):
            raise RuntimeError("dispatcher exploded")

        scheduler = Scheduler(
            dispatch_batch=dispatch_batch,
            dispatch_single=lambda t: None,
            max_batch_size=4,
        )
        ticket = _ticket(GenerateRequest(description="x", request_id="g0"))
        scheduler.submit(ticket)
        response = ticket.handle.result(timeout=10)
        assert not response.ok
        assert response.error.type == "RuntimeError"
        # The dispatch thread survived the crash and serves the next ticket.
        follow_up = _ticket(GenerateRequest(description="x", request_id="g1"))
        scheduler.submit(follow_up)
        assert not follow_up.handle.result(timeout=10).ok
        scheduler.close()
        with pytest.raises(EngineClosedError):
            scheduler.submit(_ticket(GenerateRequest(description="x", request_id="g2")))

    def test_offloaded_work_waits_for_a_slot_and_never_strands_handles(self):
        started, release = threading.Event(), threading.Event()
        busy = _ticket(GenerateRequest(description="x", request_id="busy"))
        waiting = _ticket(GenerateRequest(description="x", request_id="waiting"))

        def hold_the_slot():
            started.set()
            release.wait(timeout=10)
            _resolve_all([busy])

        def explode():
            raise RuntimeError("sandbox exploded")

        scheduler = Scheduler(
            dispatch_batch=_resolve_all,
            dispatch_single=lambda t: _resolve_all([t]),
            max_batch_size=4,
            sandbox_workers=1,
        )
        scheduler.offload(hold_the_slot, [busy])
        assert started.wait(timeout=10)
        scheduler.offload(explode, [waiting])
        assert scheduler.queue_depth == 1  # waiting for the only sandbox thread
        assert not scheduler.try_cancel("waiting")  # it already left the queue
        release.set()
        assert busy.handle.result(timeout=10).ok
        response = waiting.handle.result(timeout=10)
        assert response.error.type == "RuntimeError"
        scheduler.close()
        assert scheduler.queue_depth == 0

    def test_submit_after_close_is_rejected(self):
        scheduler = Scheduler(
            dispatch_batch=_resolve_all,
            dispatch_single=lambda t: _resolve_all([t]),
            max_batch_size=4,
        )
        scheduler.close()
        with pytest.raises(EngineClosedError):
            scheduler.submit(_ticket(GenerateRequest(description="x")))


class TestSchedulerStats:
    def test_a_dispatch_recorded_while_the_stats_are_read_leaves_the_read_whole(self):
        stats = SchedulerStats()

        class RecordsWhileCopied:
            """A batch entry whose copy records another dispatch, as the
            dispatch thread may while a handler thread serves /v1/stats."""

            def keys(self):
                stats.record("generate", 1, ["bank"])
                return ["kind", "size"]

            def __getitem__(self, key):
                return {"kind": "generate", "size": 1}[key]

        stats.record("generate", 2, ["bank"])
        stats.batches.append(RecordsWhileCopied())
        stats.record("dataset", 1, [])
        snapshot = stats.to_dict()
        # The snapshot is one instant: counters and batches agree, and the
        # dispatch recorded during the read lands after it.
        assert (snapshot["dispatched"], snapshot["batch_count"]) == (3, 2)
        assert [b["size"] for b in snapshot["batches"]] == [2, 1, 1]
        assert (stats.dispatched, stats.batch_count, len(stats.batches)) == (4, 3, 4)

    def test_concurrent_records_and_reads_lose_no_dispatch(self):
        stats = SchedulerStats()
        records_per_thread, recorders = 20000, 3
        failures: list[Exception] = []
        done = threading.Event()

        def record():
            for _ in range(records_per_thread):
                stats.record("generate", 2, ["bank"])

        def read():
            try:
                while not done.is_set():
                    snapshot = stats.to_dict()
                    assert snapshot["dispatched"] == 2 * snapshot["batch_count"]
                    assert len(snapshot["batches"]) == min(
                        snapshot["batch_count"], STATS_BATCH_WINDOW
                    )
                    assert set(stats.batch_sizes) <= {2}
            except Exception as exc:  # noqa: BLE001 - the test thread reports it
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            reader.start()
            threads = [threading.Thread(target=record) for _ in range(recorders)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            done.set()
            reader.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [reader, *threads])
        assert failures == []
        assert stats.batch_count == recorders * records_per_thread
        assert stats.dispatched == 2 * recorders * records_per_thread


class TestEngineBatchingBehaviour:
    def test_run_many_returns_responses_in_input_order(self):
        requests = [
            GenerateRequest(description=text, target="bank", request_id=f"order-{index}")
            for index, text in enumerate(DESCRIPTIONS)
        ]
        with FaultInjectionEngine() as engine:
            responses = engine.run_many(requests)
        assert [r.request_id for r in responses] == [f"order-{i}" for i in range(len(requests))]
        assert all(r.ok for r in responses)

    def test_run_many_coalesces_into_batched_forward_passes(self):
        requests = [GenerateRequest(description=text, target="bank") for text in DESCRIPTIONS]
        with FaultInjectionEngine() as engine:
            responses = engine.run_many(_held_until_submitted(engine, requests))
            stats = engine.serving_stats()
        generate_batches = [b for b in stats["batches"] if b["kind"] == "generate"]
        assert [b["size"] for b in generate_batches] == [len(requests)]
        assert [r.payload.batch_size for r in responses] == [len(requests)] * len(requests)

    def test_mixed_targets_share_one_generate_batch(self):
        requests = [
            GenerateRequest(description=DESCRIPTIONS[0], target="bank", request_id="a"),
            GenerateRequest(
                description="Simulate a timeout in the put function", target="kvstore", request_id="b"
            ),
        ]
        with FaultInjectionEngine() as engine:
            responses = engine.run_many(_held_until_submitted(engine, requests))
            stats = engine.serving_stats()
        assert all(r.ok for r in responses)
        generate_batches = [b for b in stats["batches"] if b["kind"] == "generate"]
        assert [b["targets"] for b in generate_batches] == [["bank", "kvstore"]]

    def test_stream_yields_every_response_as_it_completes(self):
        requests = [
            GenerateRequest(description=text, target="bank", request_id=f"s-{index}")
            for index, text in enumerate(DESCRIPTIONS[:4])
        ]
        with FaultInjectionEngine() as engine:
            seen = [response.request_id for response in engine.stream(requests)]
        assert sorted(seen) == sorted(f"s-{i}" for i in range(4))

    def test_submit_returns_immediately_with_a_live_handle(self):
        with FaultInjectionEngine() as engine:
            handle = engine.submit(GenerateRequest(description=DESCRIPTIONS[0], target="bank"))
            response = handle.result(timeout=30)
            assert handle.done()
            assert response.ok
            assert response.kind == "generate"
            assert response.timings.total_seconds >= 0.0
