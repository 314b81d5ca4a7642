"""The HTTP/JSON serving front-end: codecs, routing, and live-socket behaviour.

The codec tests pin the wire contract (``from_dict(to_dict(r)) == r``, strict
unknown-field rejection, the RequestError → HTTP 400 mapping); the end-to-end
tests drive a real :class:`FaultInjectionServer` on an ephemeral port through
``http.client`` — the same path external clients take.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro import FaultInjectionServer, PipelineConfig, ServerConfig
from repro.api import (
    CacheStats,
    CampaignRequest,
    DatasetRequest,
    ErrorInfo,
    ExecutionStats,
    GenerateRequest,
    REQUEST_KINDS,
    Response,
    RLHFRequest,
    StatsSnapshot,
    Timings,
    WirePayload,
    request_from_dict,
)
from repro.config import EngineConfig, ExecutionConfig
from repro.errors import RequestError

DESCRIPTION = "Simulate a timeout in the transfer function causing an unhandled exception"
DELAY_DESCRIPTION = "Introduce a delay into the get function that slows every lookup"

REQUEST_SAMPLES = [
    GenerateRequest(description=DESCRIPTION, target="bank", execute=True, mode="pool"),
    GenerateRequest(
        description=DESCRIPTION, greedy=False, temperature=0.7, top_k=3, top_p=0.9, seed=99
    ),
    DatasetRequest(targets=("bank", "kvstore"), samples_per_target=5, run_sft=True),
    CampaignRequest(
        target="bank", scenarios=(DESCRIPTION,), techniques=("neural",), budget=2
    ),
    RLHFRequest(descriptions=(DESCRIPTION,), target="bank", iterations=2),
]


class TestRequestCodec:
    @pytest.mark.parametrize("request_obj", REQUEST_SAMPLES, ids=lambda r: r.kind)
    def test_to_dict_from_dict_round_trips(self, request_obj):
        assert type(request_obj).from_dict(request_obj.to_dict()) == request_obj

    @pytest.mark.parametrize("request_obj", REQUEST_SAMPLES, ids=lambda r: r.kind)
    def test_round_trips_through_json(self, request_obj):
        wire = json.loads(json.dumps(request_obj.to_dict()))
        assert request_from_dict(request_obj.kind, wire) == request_obj

    def test_kind_key_is_accepted_when_matching(self):
        data = {"kind": "generate", "description": DESCRIPTION}
        assert GenerateRequest.from_dict(data).description == DESCRIPTION

    def test_kind_mismatch_is_rejected(self):
        with pytest.raises(RequestError, match="kind mismatch"):
            DatasetRequest.from_dict({"kind": "generate"})

    def test_unknown_field_is_rejected_by_name(self):
        with pytest.raises(RequestError, match="bogus"):
            GenerateRequest.from_dict({"description": DESCRIPTION, "bogus": 1})

    def test_non_mapping_body_is_rejected(self):
        with pytest.raises(RequestError, match="JSON object"):
            GenerateRequest.from_dict(["not", "a", "mapping"])

    def test_wrong_field_type_maps_to_request_error(self):
        with pytest.raises(RequestError):
            GenerateRequest.from_dict(
                {"description": DESCRIPTION, "greedy": False, "temperature": "hot"}
            )

    def test_validation_errors_surface_unchanged(self):
        with pytest.raises(RequestError, match="non-empty"):
            GenerateRequest.from_dict({"description": "   "})

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(RequestError, match="unknown request kind"):
            request_from_dict("telepathy", {})

    def test_every_kind_is_dispatchable(self):
        assert set(REQUEST_KINDS) == {"generate", "dataset", "campaign", "rlhf"}


class TestResponseCodec:
    def test_error_envelope_round_trips(self):
        response = Response(
            request_id="req-1",
            kind="generate",
            status="error",
            error=ErrorInfo(type="RequestError", message="boom"),
            timings=Timings(queued_seconds=0.5, execution_seconds=0.25),
        )
        wire = response.to_dict()
        decoded = Response.from_dict(json.loads(json.dumps(wire)))
        assert decoded.to_dict() == wire
        assert decoded.error.type == "RequestError"
        assert not decoded.ok

    def test_payload_comes_back_as_wire_payload(self):
        wire = {
            "schema_version": "1.0",
            "request_id": "req-2",
            "kind": "dataset",
            "status": "ok",
            "payload": {"records": 3, "stats": {}, "sft": None, "jsonl_path": None},
            "error": None,
            "timings": {
                "queued_seconds": 0.0,
                "execution_seconds": 0.0,
                "decode_seconds": 0.0,
                "total_seconds": 0.0,
            },
        }
        decoded = Response.from_dict(wire)
        assert isinstance(decoded.payload, WirePayload)
        assert decoded.payload["records"] == 3
        assert decoded.to_dict() == wire

    def test_decode_seconds_survives_the_wire_round_trip(self):
        response = Response(
            request_id="req-3",
            kind="generate",
            status="ok",
            timings=Timings(
                queued_seconds=0.125, execution_seconds=0.75, decode_seconds=0.0625
            ),
        )
        wire = response.to_dict()
        assert wire["timings"]["decode_seconds"] == 0.0625
        # decode_seconds is a component breakdown, not part of the total.
        assert wire["timings"]["total_seconds"] == 0.875
        decoded = Response.from_dict(json.loads(json.dumps(wire)))
        assert decoded.timings.decode_seconds == 0.0625
        assert decoded.to_dict() == wire
        assert decoded.to_dict()["timings"] == wire["timings"]

    def test_envelopes_without_decode_seconds_default_to_zero(self):
        # Wire compatibility: envelopes written before the field existed.
        decoded = Timings.from_dict({"queued_seconds": 0.5, "execution_seconds": 0.25})
        assert decoded.decode_seconds == 0.0

    def test_missing_required_keys_are_rejected(self):
        with pytest.raises(RequestError, match="request_id"):
            Response.from_dict({"kind": "generate", "status": "ok"})

    def test_non_mapping_envelope_is_rejected(self):
        with pytest.raises(RequestError, match="JSON object"):
            Response.from_dict("nope")

    @pytest.mark.parametrize(
        "corruption",
        [
            {"payload": [1, 2]},
            {"error": "boom"},
            {"timings": "fast"},
            {"timings": {"queued_seconds": "slow"}},
        ],
        ids=["payload-list", "error-string", "timings-string", "timings-non-numeric"],
    )
    def test_corrupt_envelope_sections_map_to_request_error(self, corruption):
        envelope = {"request_id": "r", "kind": "generate", "status": "ok", **corruption}
        with pytest.raises(RequestError):
            Response.from_dict(envelope)


class TestStatsCodec:
    """The typed stats surface: byte-exact round-trips, strict decoding."""

    def test_cache_stats_round_trips(self):
        stats = CacheStats(hits=7, misses=2, size=5, max_size=128)
        wire = stats.to_dict()
        assert list(wire) == ["hits", "misses", "size", "max_size"]
        assert CacheStats.from_dict(json.loads(json.dumps(wire))) == stats

    def test_cache_stats_rejects_unknown_fields(self):
        with pytest.raises(RequestError, match="evictions"):
            CacheStats.from_dict({"hits": 1, "evictions": 3})

    def test_execution_stats_round_trips(self):
        stats = ExecutionStats(
            pools={"bank:pool": {"tasks_executed": 4}},
            totals={"tasks_executed": 4, "pool_rebuilds": 1},
            breakers={"bank": {"state": "closed"}},
        )
        wire = stats.to_dict()
        decoded = ExecutionStats.from_dict(json.loads(json.dumps(wire)))
        assert decoded.to_dict() == wire

    def test_execution_stats_rejects_non_mapping_sections(self):
        with pytest.raises(RequestError):
            ExecutionStats.from_dict({"totals": [1, 2]})
        with pytest.raises(RequestError, match="bogus"):
            ExecutionStats.from_dict({"bogus": {}})

    def test_snapshot_single_engine_round_trips(self):
        snapshot = StatsSnapshot(
            server={"requests_total": 3, "draining": False},
            scheduler={"queue_depth": 0, "dispatched": 3},
            execution=ExecutionStats(totals={"tasks_executed": 1}),
            caches={"extract": CacheStats(hits=1)},
        )
        wire = snapshot.to_dict()
        assert set(wire) == {"schema_version", "server", "scheduler", "execution", "caches"}
        decoded = StatsSnapshot.from_dict(json.loads(json.dumps(wire)))
        assert decoded.to_dict() == wire

    def test_snapshot_requires_a_server_section(self):
        with pytest.raises(RequestError, match="server"):
            StatsSnapshot.from_dict({"schema_version": "1.0"})

    def test_snapshot_rejects_unknown_fields(self):
        with pytest.raises(RequestError, match="telemetry"):
            StatsSnapshot.from_dict({"server": {}, "telemetry": {}})

    @pytest.mark.parametrize("section", ["shards", "aggregate"])
    def test_snapshot_rejects_the_sections_of_a_sharded_server(self, section):
        with pytest.raises(RequestError, match=section):
            StatsSnapshot.from_dict({"server": {}, section: []})

@pytest.fixture(scope="module")
def server():
    """One live server on an ephemeral port, shared by the socket tests."""
    config = PipelineConfig(
        execution=ExecutionConfig(max_workers=1),
        engine=EngineConfig(max_queue_delay_seconds=0.0),
    )
    with FaultInjectionServer(
        config=config, server_config=ServerConfig(port=0, request_retention=4)
    ) as live:
        yield live


def _exchange(server, method: str, path: str, body=None):
    """One HTTP exchange against the live server → (status, decoded JSON)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        payload = json.dumps(body).encode() if isinstance(body, dict) else body
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _poll(server, path: str, deadline_seconds: float = 60):
    """Poll an async ticket until its envelope is ready → decoded envelope."""
    deadline = time.monotonic() + deadline_seconds
    while True:
        status, body = _exchange(server, "GET", path)
        if status == 200:
            return body
        assert status == 202, body
        assert time.monotonic() < deadline, "async ticket never resolved"
        time.sleep(0.02)


class TestLiveServer:
    def test_healthz(self, server):
        status, body = _exchange(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_healthz_carries_routing_signals(self, server):
        """Pin the load-balancer contract: queue depth, draining, breakers."""
        status, body = _exchange(server, "GET", "/healthz")
        assert status == 200
        assert body["queue_depth"] == 0
        assert body["draining"] is False
        assert body["open_breakers"] == 0
        assert set(body) == {
            "status",
            "schema_version",
            "queue_depth",
            "draining",
            "open_breakers",
        }

    def test_sync_generate_returns_the_envelope(self, server):
        status, envelope = _exchange(
            server, "POST", "/v1/generate", {"description": DESCRIPTION, "target": "bank"}
        )
        assert status == 200
        assert envelope["status"] == "ok"
        assert envelope["kind"] == "generate"
        assert envelope["payload"]["fault"]["fault_id"].startswith("fault-")
        timings = envelope["timings"]
        assert 0.0 <= timings["decode_seconds"] <= timings["execution_seconds"]
        decoded = Response.from_dict(envelope)
        assert decoded.ok and decoded.to_dict() == envelope

    def test_envelope_matches_in_process_submission(self, server):
        status, envelope = _exchange(
            server, "POST", "/v1/generate", {"description": DESCRIPTION, "target": "bank"}
        )
        assert status == 200
        direct = server.engine.run(
            GenerateRequest(description=DESCRIPTION, target="bank")
        ).to_dict()
        for key in ("fault", "strategy", "logprob", "outcome"):
            assert envelope["payload"][key] == direct["payload"][key]

    def test_bad_json_body_maps_to_400(self, server):
        status, body = _exchange(server, "POST", "/v1/generate", b"{not json")
        assert status == 400
        assert body["status"] == "error"
        assert body["error"]["type"] == "RequestError"

    def test_unknown_field_maps_to_400(self, server):
        status, body = _exchange(
            server, "POST", "/v1/generate", {"description": DESCRIPTION, "bogus": 1}
        )
        assert status == 400
        assert "bogus" in body["error"]["message"]

    def test_validation_failure_maps_to_400(self, server):
        status, body = _exchange(server, "POST", "/v1/generate", {"description": "  "})
        assert status == 400
        assert body["error"]["type"] == "RequestError"

    def test_unknown_route_maps_to_404(self, server):
        status, body = _exchange(server, "GET", "/v2/everything")
        assert status == 404
        assert body["error"]["type"] == "RequestError"

    def test_wrong_method_maps_to_405(self, server):
        status, body = _exchange(server, "GET", "/v1/generate")
        assert status == 405
        status, _body = _exchange(server, "POST", "/healthz", {})
        assert status == 405

    def test_malformed_content_length_maps_to_400(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            connection.putrequest("POST", "/v1/generate")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["type"] == "RequestError"
        finally:
            connection.close()

    def test_oversized_body_maps_to_413(self, server):
        huge = {"description": "x" * (server.server_config.max_body_bytes + 1)}
        status, body = _exchange(server, "POST", "/v1/generate", huge)
        assert status == 413
        assert body["error"]["type"] == "RequestError"

    def test_async_submit_and_poll(self, server):
        status, ticket = _exchange(
            server,
            "POST",
            "/v1/generate?async=1",
            {"description": DESCRIPTION, "target": "bank", "request_id": "async-poll-1"},
        )
        assert status == 202
        assert ticket["status"] == "pending"
        assert ticket["request_id"] == "async-poll-1"
        envelope = _poll(server, ticket["poll"])
        assert envelope["status"] == "ok"
        assert envelope["request_id"] == "async-poll-1"

    def test_async_submit_without_an_id_gets_an_engine_id(self, server):
        status, ticket = _exchange(
            server, "POST", "/v1/generate?async=1", {"description": DESCRIPTION, "target": "kvstore"}
        )
        assert status == 202
        assert ticket["request_id"].startswith("req-")
        envelope = _poll(server, ticket["poll"])
        assert envelope["status"] == "ok"
        assert envelope["request_id"] == ticket["request_id"]

    def test_execute_burst_on_one_target_does_not_delay_another(self, server):
        """Executions run off the dispatch thread, one group per target: a
        generate for bank is served while kvstore's burst still executes."""
        polls = []
        for index in range(4):
            status, ticket = _exchange(
                server,
                "POST",
                "/v1/generate?async=1",
                {
                    "description": DELAY_DESCRIPTION,
                    "target": "kvstore",
                    "execute": True,
                    "mode": "inprocess",
                    "request_id": f"burst-kv-{index}",
                },
            )
            assert status == 202
            polls.append(ticket["poll"])
        started = time.monotonic()
        status, envelope = _exchange(
            server, "POST", "/v1/generate", {"description": DESCRIPTION, "target": "bank"}
        )
        elapsed = time.monotonic() - started
        assert status == 200 and envelope["status"] == "ok"
        assert elapsed < 5.0
        for poll in polls:  # leave the shared server quiescent for later tests
            assert _poll(server, poll)["status"] == "ok"

    def test_duplicate_async_request_id_maps_to_409(self, server):
        body = {"description": DESCRIPTION, "target": "bank", "request_id": "dup-1"}
        status, _ticket = _exchange(server, "POST", "/v1/generate?async=1", body)
        assert status == 202
        status, conflict = _exchange(server, "POST", "/v1/generate?async=1", body)
        assert status == 409
        assert "dup-1" in conflict["error"]["message"]

    def test_polling_an_unknown_id_maps_to_404(self, server):
        status, body = _exchange(server, "GET", "/v1/requests/never-submitted")
        assert status == 404
        assert "never-submitted" in body["error"]["message"]

    def test_stats_exposes_scheduler_caches_and_counters(self, server):
        status, stats = _exchange(server, "GET", "/v1/stats")
        assert status == 200
        assert stats["server"]["requests_total"] > 0
        assert stats["server"]["draining"] is False
        assert "queue_depth" in stats["scheduler"]
        for cache in ("extract", "encoder", "render"):
            assert {"hits", "misses", "size"} <= set(stats["caches"][cache])

    def test_single_engine_stats_wire_shape_is_unchanged(self, server):
        """Differential pin: the server emits exactly the historical
        single-engine stats document — the typed codec migration must not
        change a byte of the key structure."""
        status, stats = _exchange(server, "GET", "/v1/stats")
        assert status == 200
        assert set(stats) == {"schema_version", "server", "scheduler", "execution", "caches"}
        assert set(stats["server"]) == {
            "requests_total",
            "http_errors_total",
            "inflight",
            "draining",
            "tickets",
        }
        assert set(stats["execution"]) == {"pools", "totals", "distributed", "breakers"}
        assert set(stats["caches"]) == {"extract", "encoder", "render", "compiled"}
        for section in stats["caches"].values():
            assert set(section) == {"hits", "misses", "size", "max_size"}
        # The document decodes losslessly through the typed codec.
        decoded = StatsSnapshot.from_dict(stats)
        assert decoded.to_dict() == stats

    def test_stats_endpoint_matches_typed_snapshot(self, server):
        """`/v1/stats` is exactly ``stats_snapshot().to_dict()``."""
        assert set(server.stats()) == set(server.stats_snapshot().to_dict())

    def test_completed_tickets_are_evicted_beyond_retention(self, server):
        # retention=4 for this server: submit 6 async tickets, wait for all,
        # then trigger one more put — the oldest finished ones must age out.
        ids = [f"evict-{i}" for i in range(6)]
        for request_id in ids:
            status, _ = _exchange(
                server,
                "POST",
                "/v1/generate?async=1",
                {"description": DESCRIPTION, "target": "bank", "request_id": request_id},
            )
            assert status == 202
        deadline = time.monotonic() + 60
        while server._tickets.counts()["pending"] > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        status, _ = _exchange(
            server,
            "POST",
            "/v1/generate?async=1",
            {"description": DESCRIPTION, "target": "bank", "request_id": "evict-last"},
        )
        assert status == 202
        status, _body = _exchange(server, "GET", f"/v1/requests/{ids[0]}")
        assert status == 404


class TestDrainOnShutdown:
    def test_close_resolves_pending_tickets_and_refuses_new_work(self):
        config = PipelineConfig(
            execution=ExecutionConfig(max_workers=1),
            engine=EngineConfig(max_queue_delay_seconds=0.0),
        )
        server = FaultInjectionServer(
            config=config, server_config=ServerConfig(port=0)
        ).start()
        status, ticket = _exchange(
            server,
            "POST",
            "/v1/generate?async=1",
            {"description": DESCRIPTION, "target": "bank", "request_id": "drain-1"},
        )
        assert status == 202
        server.close()
        # Graceful drain: the queued ticket resolved before the engine closed.
        handle = server._tickets.get("drain-1")
        assert handle is not None and handle.done()
        assert handle.result().ok
        assert server.engine.closed
        with pytest.raises(OSError):
            _exchange(server, "GET", "/healthz")

    def test_close_is_idempotent(self):
        server = FaultInjectionServer(server_config=ServerConfig(port=0)).start()
        server.close()
        server.close()
        assert server.engine.closed
