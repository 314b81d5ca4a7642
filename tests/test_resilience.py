"""The resilience subsystem: retries, breakers, deadlines, supervision.

Unit tests pin the deterministic primitives (seeded retry jitter, the
breaker state machine with an injected clock, chaos decisions); integration
tests drive them through the worker pool, scheduler, and engine exactly as
serving traffic does.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import PipelineConfig
from repro.api import ErrorInfo, FaultInjectionEngine, GenerateRequest, DatasetRequest
from repro.api.responses import error_kind_for
from repro.api.scheduler import ResponseHandle, Scheduler, Ticket
from repro.config import ChaosConfig, ExecutionConfig, ResilienceConfig
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    EngineClosedError,
    ReproError,
    RequestCancelledError,
    RequestError,
)
from repro.execution import WorkerPool
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerRegistry,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    chaos_payload,
    should_inject,
)
from repro.targets import get_target

DESCRIPTION = "Simulate a timeout in the transfer function causing an unhandled exception"

#: Kills the hosting worker process outright while the module loads.
EXIT_ON_LOAD = "import os\nos._exit(7)\n"


class FakeClock:
    """A steppable monotonic clock for breaker/deadline tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRetryPolicy:
    def test_schedule_is_deterministic_and_key_dependent(self):
        policy = RetryPolicy(max_attempts=4, base_delay_seconds=0.01, seed=7)
        assert policy.schedule("bank:pool") == policy.schedule("bank:pool")
        assert policy.schedule("bank:pool") != policy.schedule("kvstore:pool")
        assert len(policy.schedule("bank:pool")) == 3

    def test_backoff_grows_exponentially_under_the_cap(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_seconds=0.1, max_delay_seconds=0.4, jitter=0.0
        )
        assert policy.schedule() == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_jitter_stays_within_the_configured_fraction(self):
        policy = RetryPolicy(max_attempts=5, base_delay_seconds=0.1, jitter=0.25)
        for attempt in range(4):
            bare = RetryPolicy(
                max_attempts=5, base_delay_seconds=0.1, jitter=0.0
            ).delay(attempt)
            assert bare <= policy.delay(attempt, "k") < bare * 1.25

    def test_run_retries_then_succeeds(self):
        sleeps: list[float] = []
        policy = RetryPolicy(max_attempts=3, base_delay_seconds=0.01, sleep=sleeps.append)
        calls = {"count": 0}

        def flaky():
            calls["count"] += 1
            if calls["count"] < 3:
                raise ReproError("transient")
            return "done"

        assert policy.run(flaky, key="bank:pool", retry_on=(ReproError,)) == "done"
        assert calls["count"] == 3
        assert sleeps == policy.schedule("bank:pool")

    def test_run_reraises_after_exhaustion(self):
        policy = RetryPolicy(max_attempts=2, base_delay_seconds=0.0, sleep=lambda _s: None)
        with pytest.raises(ReproError, match="persistent"):
            policy.run(lambda: (_ for _ in ()).throw(ReproError("persistent")))

    def test_unlisted_exceptions_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=3, sleep=lambda _s: None)
        calls = {"count": 0}

        def typed_failure():
            calls["count"] += 1
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            policy.run(typed_failure, retry_on=(ReproError,))
        assert calls["count"] == 1

    def test_expired_deadline_stops_retrying(self):
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        sleeps: list[float] = []
        policy = RetryPolicy(max_attempts=5, base_delay_seconds=0.01, sleep=sleeps.append)
        calls = {"count": 0}

        def failing():
            calls["count"] += 1
            raise ReproError("transient")

        with pytest.raises(ReproError):
            policy.run(failing, retry_on=(ReproError,), deadline=deadline)
        assert calls["count"] == 1  # no budget left → no second attempt
        assert sleeps == []

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_seconds=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)

    def test_from_config_mirrors_the_resilience_section(self):
        config = ResilienceConfig(retry_max_attempts=7, retry_seed=3, retry_jitter=0.5)
        policy = RetryPolicy.from_config(config)
        assert policy.max_attempts == 7
        assert policy.seed == 3
        assert policy.jitter == 0.5


class TestDeadline:
    def test_from_seconds_none_means_unbounded(self):
        assert Deadline.from_seconds(None) is None
        assert isinstance(Deadline.from_seconds(5.0), Deadline)

    def test_budget_accounting_with_a_stepped_clock(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired()
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_check_raises_a_typed_error(self):
        clock = FakeClock()
        deadline = Deadline(0.1, clock=clock)
        deadline.check()  # healthy: no raise
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError, match="sandbox"):
            deadline.check("sandbox batch")

    def test_clamp_bounds_layer_timeouts_by_the_budget(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.clamp(10.0) == pytest.approx(2.0)
        assert deadline.clamp(0.5) == pytest.approx(0.5)
        assert deadline.clamp(None) == pytest.approx(2.0)

    def test_rejects_non_positive_budgets(self):
        with pytest.raises(ConfigurationError):
            Deadline(0.0)


class TestCircuitBreaker:
    def _breaker(self, clock, threshold=3, recovery=5.0, probes=1):
        return CircuitBreaker(
            key="bank:pool",
            failure_threshold=threshold,
            recovery_seconds=recovery,
            half_open_calls=probes,
            clock=clock,
        )

    def test_trips_after_consecutive_failures_and_recovers(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_success_resets_the_failure_streak(self):
        breaker = self._breaker(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_probe_slots_are_reserved(self):
        clock = FakeClock()
        breaker = self._breaker(clock, probes=1)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        assert not breaker.allow()  # the single probe slot is taken

    def test_half_open_failure_reopens_immediately(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.to_dict()["trips"] == 2

    def test_check_raises_with_the_plane_key(self):
        breaker = self._breaker(FakeClock())
        for _ in range(3):
            breaker.record_failure()
        with pytest.raises(CircuitOpenError, match="bank:pool"):
            breaker.check()

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(recovery_seconds=0)

    def test_registry_keys_breakers_per_target_and_mode(self):
        registry = BreakerRegistry(ResilienceConfig(), clock=FakeClock())
        bank_pool = registry.get("bank", "pool")
        assert registry.get("bank", "pool") is bank_pool
        assert registry.get("bank", "subprocess") is not bank_pool
        bank_pool.record_failure()
        snapshot = registry.to_dict()
        assert sorted(snapshot) == ["bank:pool", "bank:subprocess"]
        assert snapshot["bank:pool"]["consecutive_failures"] == 1


class TestChaosDecisions:
    def test_decisions_are_deterministic(self):
        config = ChaosConfig(enabled=True, seed=31, worker_crash_probability=0.5)
        decisions = [should_inject(config, f"bank:0:{i}", "crash", 0) for i in range(64)]
        assert decisions == [
            should_inject(config, f"bank:0:{i}", "crash", 0) for i in range(64)
        ]
        assert any(decisions) and not all(decisions)

    def test_chaos_never_fires_after_the_first_attempt(self):
        config = ChaosConfig(
            enabled=True,
            worker_crash_probability=1.0,
            task_delay_probability=1.0,
            drop_result_probability=1.0,
        )
        for kind in ("crash", "delay", "drop"):
            assert should_inject(config, "k", kind, 0)
            assert not should_inject(config, "k", kind, 1)

    def test_disabled_config_never_fires(self):
        config = ChaosConfig(enabled=False, worker_crash_probability=1.0)
        assert not should_inject(config, "k", "crash", 0)
        assert chaos_payload(config) is None
        assert chaos_payload(None) is None

    def test_payload_round_trips_through_the_wire_form(self):
        config = ChaosConfig(enabled=True, seed=5, drop_result_probability=0.25)
        assert ChaosConfig(**chaos_payload(config)) == config

    def test_probabilities_are_validated(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(worker_crash_probability=1.5)


class TestErrorKinds:
    @pytest.mark.parametrize(
        ("exc", "kind"),
        [
            (DeadlineExceededError("x"), "timeout"),
            (RequestCancelledError("x"), "cancelled"),
            (AdmissionError("x"), "overloaded"),
            (CircuitOpenError("x", key="bank:pool"), "unavailable"),
            (EngineClosedError("x"), "unavailable"),
            (RequestError("x"), "error"),
            (ValueError("x"), "error"),
        ],
    )
    def test_exceptions_map_to_machine_readable_kinds(self, exc, kind):
        assert error_kind_for(exc) == kind
        assert ErrorInfo.from_exception(exc).kind == kind

    def test_kind_survives_the_wire_round_trip(self):
        info = ErrorInfo.from_exception(DeadlineExceededError("too slow"))
        assert ErrorInfo.from_dict(info.to_dict()) == info

    def test_pre_kind_wire_errors_decode_as_plain_errors(self):
        # Envelopes written before the kind field existed.
        assert ErrorInfo.from_dict({"type": "ReproError", "message": "m"}).kind == "error"


class TestDeadlineRequestField:
    @pytest.mark.parametrize("bad", [0, -1.5, "soon", True])
    def test_invalid_deadlines_are_rejected(self, bad):
        with pytest.raises(RequestError, match="deadline_seconds"):
            GenerateRequest(description=DESCRIPTION, deadline_seconds=bad)

    def test_deadline_round_trips_through_the_wire(self):
        request = GenerateRequest(description=DESCRIPTION, deadline_seconds=2.5)
        assert GenerateRequest.from_dict(request.to_dict()) == request


class TestResponseHandleTimeout:
    def test_result_timeout_returns_an_envelope_not_a_raw_exception(self):
        handle = ResponseHandle("req-1", "generate")
        response = handle.result(timeout=0.01)
        assert response.status == "error"
        assert response.error.kind == "timeout"
        assert not handle.done()  # the request is still in flight

    def test_a_later_result_call_still_observes_the_real_outcome(self):
        from repro.api import Response

        handle = ResponseHandle("req-1", "generate")
        assert handle.result(timeout=0.01).error is not None
        handle._resolve(Response(request_id="req-1", kind="generate", status="ok"))
        assert handle.result(timeout=1.0).ok


class TestSchedulerResilience:
    def _scheduler(self, release: threading.Event, started: threading.Event):
        def blocking_single(ticket: Ticket) -> None:
            started.set()
            release.wait(10.0)
            ticket.handle._resolve(
                __import__("repro.api", fromlist=["Response"]).Response(
                    request_id=ticket.handle.request_id, kind=ticket.request.kind, status="ok"
                )
            )

        return Scheduler(
            dispatch_batch=lambda tickets: [blocking_single(t) for t in tickets],
            dispatch_single=blocking_single,
            max_batch_size=1,
        )

    def test_cancel_recalls_a_queued_ticket(self):
        release, started = threading.Event(), threading.Event()
        scheduler = self._scheduler(release, started)
        blocker = Ticket(request=DatasetRequest(), handle=ResponseHandle("req-0", "dataset"))
        queued = Ticket(request=DatasetRequest(), handle=ResponseHandle("req-1", "dataset"))
        scheduler.submit(blocker)
        assert started.wait(5.0)
        scheduler.submit(queued)
        try:
            assert queued.handle.cancel()
            response = queued.handle.result(timeout=5.0)
            assert response.status == "cancelled"
            assert response.error.kind == "cancelled"
            assert not queued.handle.cancel()  # already resolved
        finally:
            release.set()
            scheduler.close()
        assert blocker.handle.result(timeout=5.0).ok  # executing work was untouched

    def test_cancel_cannot_recall_dispatched_work(self):
        release, started = threading.Event(), threading.Event()
        scheduler = self._scheduler(release, started)
        ticket = Ticket(request=DatasetRequest(), handle=ResponseHandle("req-0", "dataset"))
        scheduler.submit(ticket)
        try:
            assert started.wait(5.0)
            assert not ticket.handle.cancel()
        finally:
            release.set()
            scheduler.close()

    def test_expired_tickets_resolve_without_dispatching(self):
        release, started = threading.Event(), threading.Event()
        scheduler = self._scheduler(release, started)
        blocker = Ticket(request=DatasetRequest(), handle=ResponseHandle("req-0", "dataset"))
        scheduler.submit(blocker)
        assert started.wait(5.0)
        doomed = Ticket(
            request=DatasetRequest(),
            handle=ResponseHandle("req-1", "dataset"),
            deadline=Deadline(0.001),
        )
        scheduler.submit(doomed)
        time.sleep(0.01)
        release.set()
        try:
            response = doomed.handle.result(timeout=5.0)
            assert response.status == "error"
            assert response.error.kind == "timeout"
            assert "queued" in response.error.message
        finally:
            scheduler.close()


@pytest.mark.pool
class TestSupervisedPool:
    def test_poison_task_is_quarantined_not_retried_forever(self):
        bank = get_target("bank").build_source()
        resilience = ResilienceConfig(quarantine_threshold=2, task_retry_budget=3)
        with WorkerPool(max_workers=2, task_timeout_seconds=5.0, resilience=resilience) as pool:
            payloads = pool.run_batch(
                "bank", [bank, bank + EXIT_ON_LOAD, bank], seed=3, iterations=10
            )
            assert [p["status"] for p in payloads] == ["ok", "error", "ok"]
            assert payloads[1].get("quarantined") is True
            assert pool.quarantined == 1
            assert pool.pool_rebuilds >= 1
            assert pool.stats()["quarantined"] == 1
            # the pool still serves healthy work afterwards
            assert [p["status"] for p in pool.run_batch("bank", [bank], iterations=10)] == ["ok"]

    def test_liveness_check_recycles_a_dead_pool(self):
        bank = get_target("bank").build_source()
        with WorkerPool(max_workers=1, task_timeout_seconds=5.0) as pool:
            pool.run_batch("bank", [bank + EXIT_ON_LOAD], iterations=10)
            assert pool.run_batch("bank", [bank], iterations=10)[0]["status"] == "ok"


@pytest.mark.pool
class TestEngineResilience:
    def _config(self) -> PipelineConfig:
        return PipelineConfig(execution=ExecutionConfig(max_workers=2))

    def test_open_breaker_degrades_generate_requests(self):
        with FaultInjectionEngine(self._config()) as engine:
            breaker = engine._breakers.get("bank", "pool")
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            response = engine.run(
                GenerateRequest(description=DESCRIPTION, target="bank", execute=True, mode="pool")
            )
            assert response.status == "degraded"
            assert response.payload is not None  # the generated fault is still delivered
            assert response.payload.outcome is None
            assert response.error.kind == "unavailable"
            stats = engine.execution_stats()
            assert stats["breakers"]["bank:pool"]["state"] in (OPEN, HALF_OPEN)

    def test_open_breaker_fails_heavyweight_requests_fast(self):
        from repro.api import CampaignRequest

        with FaultInjectionEngine(self._config()) as engine:
            breaker = engine._breakers.get("bank", "pool")
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            response = engine.run(
                CampaignRequest(
                    target="bank", scenarios=(DESCRIPTION,), techniques=("neural",), mode="pool"
                )
            )
            assert response.status == "error"
            assert response.error.kind == "unavailable"

    def test_campaign_without_mode_consults_the_breaker_of_its_own_plane(self):
        from repro.api import CampaignRequest

        with FaultInjectionEngine(self._config()) as engine:
            # A campaign without ``mode`` runs on the default (in-process) plane,
            # so an open subprocess breaker must not turn it away.
            breaker = engine._breakers.get("bank", "subprocess")
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            response = engine.run(
                CampaignRequest(target="bank", scenarios=(DESCRIPTION,), techniques=("neural",))
            )
            assert response.status == "ok", response.error

    def test_queued_deadline_surfaces_as_a_timeout_envelope(self):
        with FaultInjectionEngine(self._config()) as engine:
            blocker = engine.submit(
                DatasetRequest(targets=("bank",), samples_per_target=2)
            )
            doomed = engine.submit(
                GenerateRequest(description=DESCRIPTION, deadline_seconds=0.001)
            )
            response = doomed.result(timeout=60.0)
            assert response.status == "error"
            assert response.error.kind == "timeout"
            assert blocker.result(timeout=120.0).ok

    def test_generous_deadlines_do_not_disturb_results(self):
        with FaultInjectionEngine(self._config()) as engine:
            bounded = engine.run(
                GenerateRequest(description=DESCRIPTION, target="bank", deadline_seconds=120.0)
            )
            unbounded = engine.run(GenerateRequest(description=DESCRIPTION, target="bank"))
            assert bounded.ok and unbounded.ok
            assert (
                bounded.payload.deterministic_dict() == unbounded.payload.deterministic_dict()
            )

    def test_execution_stats_report_pool_counters(self):
        with FaultInjectionEngine(self._config()) as engine:
            response = engine.run(
                GenerateRequest(description=DESCRIPTION, target="bank", execute=True, mode="pool")
            )
            assert response.ok
            stats = engine.execution_stats()
            assert stats["totals"]["tasks_executed"] >= 1
            assert list(stats["pools"]) == ["pool"]
