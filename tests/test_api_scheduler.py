"""Scheduler semantics: FIFO dispatch, continuous batching, grouping, and
the submit/run_many/stream delivery surfaces."""

from __future__ import annotations

import threading

import pytest

from repro import FaultInjectionEngine, GenerateRequest, PipelineConfig
from repro.api import DatasetRequest, Response, Scheduler, Ticket
from repro.api.scheduler import ResponseHandle
from repro.config import EngineConfig
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


def _resolve_all(tickets):
    for ticket in tickets:
        ticket.handle._resolve(
            Response(request_id=ticket.handle.request_id, kind=ticket.request.kind, status="ok")
        )


class TestSchedulerCoalescing:
    """Direct scheduler tests with controllable dispatch callbacks."""

    def test_contiguous_generate_requests_coalesce_into_one_batch(self):
        dispatched: list[list[str]] = []
        release = threading.Event()

        def dispatch_batch(tickets):
            if not dispatched:
                release.wait(timeout=10)
            dispatched.append([t.handle.request_id for t in tickets])
            _resolve_all(tickets)

        scheduler = Scheduler(
            dispatch_batch=dispatch_batch,
            dispatch_single=lambda t: _resolve_all([t]),
            max_batch_size=8,
            max_queue_delay_seconds=0.01,
        )
        first = _ticket(GenerateRequest(description="x", request_id="g0"))
        scheduler.submit(first)
        # While the dispatcher is blocked on g0's batch, five more requests
        # queue up; releasing it must coalesce all five into ONE batch.
        rest = [
            _ticket(GenerateRequest(description="x", request_id=f"g{i}")) for i in range(1, 6)
        ]
        for ticket in rest:
            scheduler.submit(ticket)
        release.set()
        for ticket in [first, *rest]:
            ticket.handle.result(timeout=10)
        scheduler.close()
        # The first dispatch may have raced a prefix of the burst, but the
        # rest coalesces into one batch: at most two dispatches, FIFO order.
        assert len(dispatched) <= 2
        assert [rid for batch in dispatched for rid in batch] == [f"g{i}" for i in range(6)]

    def test_max_batch_size_bounds_each_dispatch(self):
        dispatched: list[int] = []
        release = threading.Event()

        def dispatch_batch(tickets):
            if not dispatched:
                release.wait(timeout=10)
            dispatched.append(len(tickets))
            _resolve_all(tickets)

        scheduler = Scheduler(
            dispatch_batch=dispatch_batch,
            dispatch_single=lambda t: _resolve_all([t]),
            max_batch_size=3,
            max_queue_delay_seconds=0.01,
        )
        tickets = [
            _ticket(GenerateRequest(description="x", request_id=f"g{i}")) for i in range(7)
        ]
        scheduler.submit(tickets[0])
        for ticket in tickets[1:]:
            scheduler.submit(ticket)
        release.set()
        for ticket in tickets:
            ticket.handle.result(timeout=10)
        scheduler.close()
        assert max(dispatched) <= 3
        assert sum(dispatched) == 7

    def test_fifo_is_preserved_across_request_kinds(self):
        order: list[str] = []
        release = threading.Event()

        def dispatch_batch(tickets):
            if not order:
                release.wait(timeout=10)
            order.append("generate:" + ",".join(t.handle.request_id for t in tickets))
            _resolve_all(tickets)

        def dispatch_single(ticket):
            order.append(ticket.request.kind + ":" + ticket.handle.request_id)
            _resolve_all([ticket])

        scheduler = Scheduler(
            dispatch_batch=dispatch_batch,
            dispatch_single=dispatch_single,
            max_batch_size=8,
            max_queue_delay_seconds=0.01,
        )
        g0 = _ticket(GenerateRequest(description="x", request_id="g0"))
        scheduler.submit(g0)
        d0 = _ticket(DatasetRequest(request_id="d0"))
        g1 = _ticket(GenerateRequest(description="x", request_id="g1"))
        g2 = _ticket(GenerateRequest(description="x", request_id="g2"))
        for ticket in (d0, g1, g2):
            scheduler.submit(ticket)
        release.set()
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
            max_queue_delay_seconds=0.0,
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
            max_queue_delay_seconds=0.0,
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
            max_queue_delay_seconds=0.0,
        )
        scheduler.close()
        with pytest.raises(EngineClosedError):
            scheduler.submit(_ticket(GenerateRequest(description="x")))


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
        config = PipelineConfig(engine=EngineConfig(max_queue_delay_seconds=0.2))
        requests = [GenerateRequest(description=text, target="bank") for text in DESCRIPTIONS]
        with FaultInjectionEngine(config) as engine:
            responses = engine.run_many(requests)
            stats = engine.serving_stats()
        generate_batches = [b for b in stats["batches"] if b["kind"] == "generate"]
        assert sum(b["size"] for b in generate_batches) == len(requests)
        # The whole burst coalesces into very few forward passes (one, unless
        # the dispatch thread won the race for an early ticket).
        assert len(generate_batches) <= 2
        assert max(r.payload.batch_size for r in responses) >= len(requests) - 1

    def test_mixed_targets_share_one_generate_batch(self):
        config = PipelineConfig(engine=EngineConfig(max_queue_delay_seconds=0.2))
        requests = [
            GenerateRequest(description=DESCRIPTIONS[0], target="bank", request_id="a"),
            GenerateRequest(
                description="Simulate a timeout in the put function", target="kvstore", request_id="b"
            ),
        ]
        with FaultInjectionEngine(config) as engine:
            responses = engine.run_many(requests)
            stats = engine.serving_stats()
        assert all(r.ok for r in responses)
        generate_batches = [b for b in stats["batches"] if b["kind"] == "generate"]
        assert any(set(b["targets"]) == {"bank", "kvstore"} for b in generate_batches) or len(
            generate_batches
        ) == 2

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
