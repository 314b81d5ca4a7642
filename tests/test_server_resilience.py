"""Serving-plane resilience over live sockets: shedding, deadlines, cancel, drain.

These tests drive a real :class:`FaultInjectionServer` (and, for the drain
test, a real ``python -m repro serve`` process with self-chaos enabled)
through ``http.client`` — the exact path external clients take — and pin the
HTTP halves of the resilience contract in docs/RESILIENCE.md.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import FaultInjectionServer, PipelineConfig, ServerConfig
from repro.config import ExecutionConfig, IntegrationConfig

DESCRIPTION = "Simulate a timeout in the transfer function causing an unhandled exception"

#: A hang-prone description: the model turns it into a bank deadlock.
DEADLOCK = "Cause a deadlock in the withdraw function by acquiring the lock twice"


@pytest.fixture()
def server():
    """A fresh live server per test (admission state must not leak across tests)."""
    config = PipelineConfig(execution=ExecutionConfig(max_workers=2))
    with FaultInjectionServer(
        config=config,
        server_config=ServerConfig(port=0, max_queue_depth=1, retry_after_seconds=2.0),
    ) as live:
        yield live


def _exchange(server, method: str, path: str, body=None):
    """One HTTP exchange → (status, decoded JSON, response headers)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        payload = json.dumps(body).encode() if isinstance(body, dict) else body
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return response.status, json.loads(response.read()), dict(response.getheaders())
    finally:
        connection.close()


def _await_ticket(server, poll_path: str, timeout: float = 120.0) -> dict:
    """Poll an async ticket until its envelope arrives."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body, _headers = _exchange(server, "GET", poll_path)
        if status != 202:
            return body
        time.sleep(0.05)
    raise AssertionError(f"ticket {poll_path} never resolved")


def _await(condition, timeout: float = 60.0) -> None:
    """Wait until ``condition()`` holds."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError("condition never held")
        time.sleep(0.01)


def _assert_shed(status: int, body: dict, headers: dict) -> None:
    assert status == 429
    assert body["error"]["kind"] == "overloaded"
    assert body["error"]["type"] == "AdmissionError"
    assert headers.get("Retry-After") == "2"


class TestAdmissionControl:
    def test_saturated_queue_sheds_with_429_and_retry_after(self, server):
        with server.engine._scheduler.held():
            # The dispatch thread is held, so this ticket fills the queue.
            status, queued, _ = _exchange(
                server, "POST", "/v1/generate?async=1", {"description": DESCRIPTION}
            )
            assert status == 202
            _assert_shed(*_exchange(server, "POST", "/v1/generate", {"description": DESCRIPTION}))
        # Once the queue drains, admission opens again.
        assert _await_ticket(server, queued["poll"])["status"] == "ok"
        status, envelope, _ = _exchange(
            server, "POST", "/v1/generate", {"description": DESCRIPTION}
        )
        assert status == 200 and envelope["status"] == "ok"

    def test_execute_waiting_for_a_sandbox_slot_is_counted(self):
        config = PipelineConfig(
            execution=ExecutionConfig(max_workers=1),
            integration=IntegrationConfig(test_timeout_seconds=3.0),
        )
        server_config = ServerConfig(port=0, max_queue_depth=1, retry_after_seconds=2.0)
        execute = {"description": DESCRIPTION, "target": "bank", "execute": True}
        with FaultInjectionServer(config=config, server_config=server_config) as server:
            engine = server.engine
            status, hung, _ = _exchange(
                server, "POST", "/v1/generate?async=1", {**execute, "description": DEADLOCK}
            )
            assert status == 202
            # The plane's breaker appears once the hung group runs on the
            # only sandbox thread.
            _await(lambda: "bank:subprocess" in engine.execution_stats()["breakers"])
            status, waiting, _ = _exchange(server, "POST", "/v1/generate?async=1", execute)
            assert status == 202
            # The second request left the scheduler queue and waits for the slot.
            _await(lambda: engine.serving_stats()["dispatched"] == 2 and engine.queue_depth == 1)
            _assert_shed(*_exchange(server, "POST", "/v1/generate", {"description": DESCRIPTION}))
            status, _body, _ = _exchange(server, "DELETE", waiting["poll"])
            assert status == 409
            hung_envelope = _await_ticket(server, hung["poll"])
            assert hung_envelope["status"] == "ok"
            assert hung_envelope["payload"]["outcome"]["failure_mode"] == "hang"
            assert _await_ticket(server, waiting["poll"])["status"] == "ok"
            assert engine.queue_depth == 0


class TestRequestDeadlines:
    def test_expired_queue_deadline_maps_to_504(self, server):
        body = {"description": DESCRIPTION, "deadline_seconds": 0.005}
        with ThreadPoolExecutor(max_workers=1) as client:
            with server.engine._scheduler.held():
                pending = client.submit(_exchange, server, "POST", "/v1/generate", body)
                _await(lambda: server.engine.queue_depth == 1)
                time.sleep(0.05)  # outlive the deadline while the ticket is queued
            status, envelope, _ = pending.result(timeout=60)
        assert status == 504
        assert envelope["status"] == "error"
        assert envelope["error"]["kind"] == "timeout"

    def test_generous_deadline_serves_normally(self, server):
        status, envelope, _ = _exchange(
            server,
            "POST",
            "/v1/generate",
            {"description": DESCRIPTION, "deadline_seconds": 120.0},
        )
        assert status == 200 and envelope["status"] == "ok"


class TestCancellation:
    def test_delete_recalls_a_queued_request(self, server):
        with server.engine._scheduler.held():
            status, queued, _ = _exchange(
                server, "POST", "/v1/generate?async=1", {"description": DESCRIPTION}
            )
            assert status == 202
            status, envelope, _ = _exchange(server, "DELETE", queued["poll"])
            assert status == 200
            assert envelope["status"] == "cancelled"
            assert envelope["error"]["kind"] == "cancelled"
            # A cancelled ticket stays pollable and a second cancel is refused.
            status, polled, _ = _exchange(server, "GET", queued["poll"])
            assert status == 200 and polled["status"] == "cancelled"
            status, refused, _ = _exchange(server, "DELETE", queued["poll"])
            assert status == 409
        assert server.engine.queue_depth == 0

    def test_delete_of_finished_or_unknown_requests(self, server):
        status, ticket, _ = _exchange(
            server, "POST", "/v1/generate?async=1", {"description": DESCRIPTION}
        )
        assert status == 202
        assert _await_ticket(server, ticket["poll"])["status"] == "ok"
        status, _body, _ = _exchange(server, "DELETE", ticket["poll"])
        assert status == 409  # finished work cannot be recalled
        status, _body, _ = _exchange(server, "DELETE", "/v1/requests/no-such-id")
        assert status == 404


@pytest.mark.pool
class TestGracefulDegradation:
    def test_open_breaker_serves_degraded_envelopes_not_errors(self, server):
        breaker = server.engine._breakers.get("bank", "pool")
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        status, envelope, _ = _exchange(
            server,
            "POST",
            "/v1/generate",
            {"description": DESCRIPTION, "target": "bank", "execute": True, "mode": "pool"},
        )
        assert status == 200  # degradation is a successful (partial) response
        assert envelope["status"] == "degraded"
        assert envelope["payload"]["outcome"] is None
        assert envelope["payload"]["fault"]["fault_id"].startswith("fault-")
        assert envelope["error"]["kind"] == "unavailable"

    def test_stats_expose_the_execution_plane(self, server):
        status, envelope, _ = _exchange(
            server,
            "POST",
            "/v1/generate",
            {"description": DESCRIPTION, "target": "bank", "execute": True, "mode": "pool"},
        )
        assert status == 200
        status, stats, _ = _exchange(server, "GET", "/v1/stats")
        assert status == 200
        execution = stats["execution"]
        assert execution["totals"]["tasks_executed"] >= 1
        assert list(execution["pools"]) == ["pool"]
        assert "bank:pool" in execution["breakers"]


def _spawn_chaotic_server() -> tuple[subprocess.Popen, str, int]:
    """Start ``python -m repro serve --chaos`` on an ephemeral port."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--mode",
            "pool",
            "--max-workers",
            "2",
            "--chaos",
            "0.3",
        ],
        stderr=subprocess.PIPE,
        text=True,
    )
    seen: list[str] = []
    while True:
        line = process.stderr.readline()
        if not line:
            process.kill()
            raise RuntimeError(f"server did not start; stderr was {seen!r}")
        if "serving on " in line:
            url = line.split("serving on ")[1].split(" ")[0]
            host, port = url.removeprefix("http://").split(":")
            return process, host, int(port)
        seen.append(line.rstrip())


@pytest.mark.pool
class TestDrainUnderLoad:
    def test_sigint_with_queued_requests_and_crashing_workers_exits_cleanly(self):
        """Satellite: SIGINT mid-load resolves every ticket and exits 0.

        The server runs with ``--chaos 0.3``, so pool workers are being
        SIGKILLed mid-task while the drain happens; the in-flight sync
        exchange must still receive a complete envelope and the process
        must shut down gracefully.
        """
        process, host, port = _spawn_chaotic_server()
        sync_result: dict = {}

        def sync_call() -> None:
            connection = http.client.HTTPConnection(host, port, timeout=120)
            try:
                connection.request(
                    "POST",
                    "/v1/generate",
                    body=json.dumps(
                        {
                            "description": DESCRIPTION,
                            "target": "bank",
                            "execute": True,
                            "mode": "pool",
                        }
                    ).encode(),
                )
                response = connection.getresponse()
                sync_result["status"] = response.status
                sync_result["body"] = json.loads(response.read())
            finally:
                connection.close()

        try:
            # Queue execution-heavy async work so workers are mid-crash...
            connection = http.client.HTTPConnection(host, port, timeout=60)
            try:
                for index in range(4):
                    connection.request(
                        "POST",
                        "/v1/generate?async=1",
                        body=json.dumps(
                            {
                                "description": DESCRIPTION,
                                "target": "bank",
                                "execute": True,
                                "mode": "pool",
                                "request_id": f"drain-{index}",
                            }
                        ).encode(),
                    )
                    response = connection.getresponse()
                    response.read()
                    # 202 accepted or 429 shed — both leave the server draining
                    # under load, which is the scenario being pinned.
                    assert response.status in (202, 429)
            finally:
                connection.close()
            # ... keep one sync exchange in flight ...
            thread = threading.Thread(target=sync_call)
            thread.start()
            time.sleep(0.1)
            # ... and pull the plug.
            process.send_signal(signal.SIGINT)
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert process.wait(timeout=120) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
            process.stderr.close()
        # The in-flight exchange resolved with a complete, parseable envelope.
        assert sync_result["body"]["status"] in ("ok", "degraded", "error")
        assert sync_result["body"]["schema_version"] == "1.0"
