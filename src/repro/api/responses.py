"""The versioned response envelope of the fault-injection service layer.

Every request — whatever its kind and however it was submitted — resolves to
one :class:`Response`: a stable envelope carrying the request id, a status, a
typed payload, a structured error (never a raw traceback), and coarse serving
timings.  ``schema_version`` lets clients detect envelope evolution.

Payload float fields that derive from model arithmetic (log-probabilities)
are rounded to ``1e-9`` in :meth:`to_dict` — the library's established
numerical oracle tolerance — so envelopes are byte-stable across batched and
solo execution (batched matmuls may differ from solo matvecs in the last
float bit).  Wall-clock measurements (sandbox durations, envelope timings)
are inherently non-deterministic and are documented as such in docs/API.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import (
    AdmissionError,
    CircuitOpenError,
    DeadlineExceededError,
    EngineClosedError,
    RequestCancelledError,
    RequestError,
)
from ..llm.generator import GenerationCandidate
from ..types import GeneratedFault, InjectionOutcome

#: Version of the response envelope layout.
SCHEMA_VERSION = "1.0"

#: Exception type → machine-readable error kind.  Anything unmapped is a
#: plain ``"error"``; HTTP front-ends map kinds to status codes (timeout →
#: 504, overloaded → 429, unavailable → 503, cancelled → 499).
_ERROR_KINDS: tuple[tuple[type[BaseException], str], ...] = (
    (DeadlineExceededError, "timeout"),
    (RequestCancelledError, "cancelled"),
    (AdmissionError, "overloaded"),
    (CircuitOpenError, "unavailable"),
    (EngineClosedError, "unavailable"),
)


def error_kind_for(exc: BaseException) -> str:
    """The machine-readable error kind for a raised exception."""
    for exc_type, kind in _ERROR_KINDS:
        if isinstance(exc, exc_type):
            return kind
    return "error"

#: Decimal places used to quantize model-arithmetic floats in envelopes.
_LOGPROB_DECIMALS = 9


@dataclass(frozen=True)
class ErrorInfo:
    """A structured, client-safe error description.

    ``kind`` is the machine-readable failure class clients should branch on
    (``"error"``, ``"timeout"``, ``"cancelled"``, ``"overloaded"``,
    ``"unavailable"``); ``type`` names the originating exception class and is
    informational.
    """

    type: str
    message: str
    kind: str = "error"

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view of the error."""
        return {"type": self.type, "message": self.message, "kind": self.kind}

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorInfo":
        """Build an error record from a raised exception."""
        return cls(type=type(exc).__name__, message=str(exc), kind=error_kind_for(exc))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ErrorInfo":
        """Decode the wire view produced by :meth:`to_dict`."""
        return cls(
            type=str(data.get("type", "")),
            message=str(data.get("message", "")),
            kind=str(data.get("kind", "error")),
        )


@dataclass(frozen=True)
class Timings:
    """Coarse serving timings of one request (wall-clock, non-deterministic).

    ``decode_seconds`` is the slice of ``execution_seconds`` the engine spent
    in constrained decoding for this request (zero for request kinds that do
    not decode); it is a component breakdown, so the wire total remains
    ``queued + execution``.
    """

    queued_seconds: float = 0.0
    execution_seconds: float = 0.0
    decode_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.queued_seconds + self.execution_seconds

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view of the timings (microsecond precision).

        The wire total is derived from the *rounded* components — not from
        ``total_seconds`` directly — so decoding an envelope and re-encoding
        it (:meth:`from_dict` → :meth:`to_dict`) is byte-exact.
        """
        queued = round(self.queued_seconds, 6)
        execution = round(self.execution_seconds, 6)
        return {
            "queued_seconds": queued,
            "execution_seconds": execution,
            "decode_seconds": round(self.decode_seconds, 6),
            "total_seconds": round(queued + execution, 6),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Timings":
        """Decode the wire view (``total_seconds`` is derived, not stored)."""
        try:
            return cls(
                queued_seconds=float(data.get("queued_seconds", 0.0)),
                execution_seconds=float(data.get("execution_seconds", 0.0)),
                decode_seconds=float(data.get("decode_seconds", 0.0)),
            )
        except (TypeError, ValueError) as exc:
            raise RequestError(f"malformed timings: {exc}") from exc


@dataclass
class GeneratePayload:
    """Typed payload of a :class:`~repro.api.GenerateRequest`."""

    fault: GeneratedFault
    strategy: str
    logprob: float
    batch_size: int = 1
    outcome: InjectionOutcome | None = None

    @classmethod
    def from_candidate(
        cls,
        candidate: GenerationCandidate,
        outcome: InjectionOutcome | None = None,
        batch_size: int = 1,
    ) -> "GeneratePayload":
        """Build the payload from a generation candidate (+ optional outcome).

        Both the engine and the determinism tests build payloads through this
        constructor, so "engine output equals solo pipeline output" is pinned
        at the payload level.
        """
        return cls(
            fault=candidate.fault,
            strategy=candidate.fault.metadata.get("strategy", ""),
            logprob=candidate.logprob,
            batch_size=batch_size,
            outcome=outcome,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-able payload with model-arithmetic floats quantized to 1e-9.

        ``batch_size`` (how many requests shared the forward pass) and the
        outcome's measured ``duration_seconds`` are serving observations, not
        part of the deterministic result; :meth:`deterministic_dict` excludes
        them.
        """
        data = self.deterministic_dict()
        data["batch_size"] = self.batch_size
        if self.outcome is not None:
            data["outcome"]["duration_seconds"] = self.outcome.duration_seconds
        return data

    def deterministic_dict(self) -> dict[str, Any]:
        """The payload fields pinned byte-identical across solo/batched runs."""
        fault = self.fault.to_dict()
        fault["logprob"] = round(fault["logprob"], _LOGPROB_DECIMALS)
        data: dict[str, Any] = {
            "fault": fault,
            "strategy": self.strategy,
            "logprob": round(self.logprob, _LOGPROB_DECIMALS),
            "outcome": None,
        }
        if self.outcome is not None:
            outcome = self.outcome.to_dict()
            outcome.pop("duration_seconds", None)
            data["outcome"] = outcome
        return data


@dataclass
class DatasetPayload:
    """Typed payload of a :class:`~repro.api.DatasetRequest`."""

    records: int
    stats: dict[str, Any]
    sft: dict[str, Any] | None = None
    jsonl_path: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-able payload (record counts and stats, not the records)."""
        return {
            "records": self.records,
            "stats": dict(self.stats),
            "sft": dict(self.sft) if self.sft is not None else None,
            "jsonl_path": self.jsonl_path,
        }


@dataclass
class CampaignPayload:
    """Typed payload of a :class:`~repro.api.CampaignRequest`."""

    target: str
    techniques: dict[str, dict[str, Any]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able payload: one comparison record per technique."""
        return {"target": self.target, "techniques": {k: dict(v) for k, v in self.techniques.items()}}


@dataclass
class RLHFPayload:
    """Typed payload of an :class:`~repro.api.RLHFRequest`."""

    report: dict[str, Any]
    prompts: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-able payload: the RLHF history plus the prompt count."""
        return {"report": dict(self.report), "prompts": self.prompts}


@dataclass(frozen=True)
class WirePayload:
    """A decoded payload as received off the wire (plain JSON data).

    Remote clients cannot rebuild the typed payload classes — those hold
    library objects (:class:`~repro.types.GeneratedFault`, outcomes) that the
    wire deliberately flattens.  :meth:`Response.from_dict` therefore wraps
    the payload object in this shim, which round-trips byte-identically
    through :meth:`to_dict`.
    """

    data: Mapping[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """The payload exactly as it appeared on the wire."""
        return dict(self.data)

    def __getitem__(self, key: str) -> Any:
        return self.data[key]


def _reject_unknown_fields(cls_name: str, data: Mapping[str, Any], known: set[str]) -> None:
    """Strict wire-codec guard shared by the stats dataclasses.

    Raises:
        RequestError: Naming the unknown fields, mirroring the request
            codecs, so clients learn exactly which key they misspelled.
    """
    unknown = sorted(set(data) - known)
    if unknown:
        raise RequestError(
            f"unknown {cls_name} fields {unknown}; known fields: {sorted(known)}"
        )


def _require_mapping(cls_name: str, data: Any) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise RequestError(f"{cls_name} must be a JSON object, got {type(data).__name__}")
    return data


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one LRU cache in the shared cache-info layout.

    Every cache in the stack (NLP extraction, feature encoding, grammar
    rendering, compiled automatons) reports exactly these four counters, so
    the wire form round-trips byte-exactly through
    :meth:`from_dict`/:meth:`to_dict`.
    """

    hits: int = 0
    misses: int = 0
    size: int = 0
    max_size: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view (identical to the runtime ``cache_info()`` layout)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "max_size": self.max_size,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CacheStats":
        """Decode the wire view; unknown fields are rejected by name.

        Raises:
            RequestError: On non-object data, unknown fields, or
                non-integer counters.
        """
        data = _require_mapping("cache stats", data)
        _reject_unknown_fields("cache stats", data, {"hits", "misses", "size", "max_size"})
        try:
            return cls(
                hits=int(data.get("hits", 0)),
                misses=int(data.get("misses", 0)),
                size=int(data.get("size", 0)),
                max_size=int(data.get("max_size", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise RequestError(f"malformed cache stats: {exc}") from exc


@dataclass(frozen=True)
class ExecutionStats:
    """Execution-plane resilience observations of one engine.

    The typed form of ``engine.execution_stats()``: per-pool supervision
    counters, their monotonic totals, the distributed-plane gauges, and the
    circuit-breaker snapshots.  The nested counter mappings are carried as
    plain data (their keys are the supervision counters documented on
    :meth:`~repro.api.FaultInjectionEngine.execution_stats`), so the wire
    form round-trips byte-exactly.
    """

    pools: Mapping[str, Any] = field(default_factory=dict)
    totals: Mapping[str, Any] = field(default_factory=dict)
    distributed: Mapping[str, Any] = field(default_factory=dict)
    breakers: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view (the historical ``execution_stats()`` dict shape)."""
        return {
            "pools": {name: dict(counters) for name, counters in self.pools.items()},
            "totals": dict(self.totals),
            "distributed": dict(self.distributed),
            "breakers": {name: dict(snapshot) for name, snapshot in self.breakers.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionStats":
        """Decode the wire view; unknown fields are rejected by name.

        Raises:
            RequestError: On non-object data, unknown fields, or non-object
                sections.
        """
        data = _require_mapping("execution stats", data)
        _reject_unknown_fields(
            "execution stats", data, {"pools", "totals", "distributed", "breakers"}
        )
        sections = {}
        for key in ("pools", "totals", "distributed", "breakers"):
            sections[key] = _require_mapping(f"execution stats {key!r}", data.get(key, {}))
        return cls(
            pools=dict(sections["pools"]),
            totals=dict(sections["totals"]),
            distributed=dict(sections["distributed"]),
            breakers=dict(sections["breakers"]),
        )


@dataclass(frozen=True)
class StatsSnapshot:
    """The typed, versioned ``GET /v1/stats`` body.

    The snapshot carries the front-end's ``server`` counters plus the
    engine's ``scheduler``/``execution``/``caches`` sections — byte-identical
    on the wire to the historical ad-hoc dict.
    """

    server: Mapping[str, Any]
    scheduler: Mapping[str, Any] | None = None
    execution: ExecutionStats | None = None
    caches: Mapping[str, CacheStats] | None = None
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view; absent sections are omitted entirely."""
        data: dict[str, Any] = {
            "schema_version": self.schema_version,
            "server": dict(self.server),
        }
        if self.scheduler is not None:
            data["scheduler"] = dict(self.scheduler)
        if self.execution is not None:
            data["execution"] = self.execution.to_dict()
        if self.caches is not None:
            data["caches"] = {name: cache.to_dict() for name, cache in self.caches.items()}
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StatsSnapshot":
        """Decode a wire stats body back into the typed snapshot.

        ``StatsSnapshot.from_dict(s.to_dict())`` round-trips byte-exactly.

        Raises:
            RequestError: On non-object data, unknown fields, a missing
                ``server`` section, or malformed nested sections.
        """
        data = _require_mapping("stats snapshot", data)
        _reject_unknown_fields(
            "stats snapshot",
            data,
            {"schema_version", "server", "scheduler", "execution", "caches"},
        )
        if "server" not in data:
            raise RequestError("stats snapshot is missing its 'server' section")
        server = dict(_require_mapping("stats snapshot 'server'", data["server"]))
        scheduler = data.get("scheduler")
        if scheduler is not None:
            scheduler = dict(_require_mapping("stats snapshot 'scheduler'", scheduler))
        execution = data.get("execution")
        if execution is not None:
            execution = ExecutionStats.from_dict(execution)
        caches = data.get("caches")
        if caches is not None:
            caches = {
                str(name): CacheStats.from_dict(cache)
                for name, cache in _require_mapping("stats snapshot 'caches'", caches).items()
            }
        return cls(
            server=server,
            scheduler=scheduler,
            execution=execution,
            caches=caches,
            schema_version=str(data.get("schema_version", SCHEMA_VERSION)),
        )


@dataclass
class Response:
    """The versioned envelope every request resolves to."""

    request_id: str
    kind: str
    status: str
    payload: GeneratePayload | DatasetPayload | CampaignPayload | RLHFPayload | WirePayload | None = None
    error: ErrorInfo | None = None
    timings: Timings = field(default_factory=Timings)
    schema_version: str = SCHEMA_VERSION

    @property
    def ok(self) -> bool:
        """Whether the request succeeded."""
        return self.status == "ok"

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view of the whole envelope."""
        return {
            "schema_version": self.schema_version,
            "request_id": self.request_id,
            "kind": self.kind,
            "status": self.status,
            "payload": self.payload.to_dict() if self.payload is not None else None,
            "error": self.error.to_dict() if self.error is not None else None,
            "timings": self.timings.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Response":
        """Decode a wire envelope (e.g. an HTTP response body) back into a
        :class:`Response`.

        The payload comes back as a :class:`WirePayload` (plain JSON data);
        everything else — ids, status, error, timings, schema version — is
        restored as typed objects.  ``Response.from_dict(r.to_dict())``
        round-trips the wire form exactly.

        Raises:
            RequestError: If ``data`` is not a JSON object or misses the
                envelope's required keys.
        """
        if not isinstance(data, Mapping):
            raise RequestError(f"envelope must be a JSON object, got {type(data).__name__}")
        missing = [key for key in ("request_id", "kind", "status") if key not in data]
        if missing:
            raise RequestError(f"envelope is missing required keys {missing}")
        payload = data.get("payload")
        if payload is not None and not isinstance(payload, Mapping):
            raise RequestError("envelope payload must be a JSON object or null")
        error = data.get("error")
        if error is not None and not isinstance(error, Mapping):
            raise RequestError("envelope error must be a JSON object or null")
        timings = data.get("timings") or {}
        if not isinstance(timings, Mapping):
            raise RequestError("envelope timings must be a JSON object")
        return cls(
            request_id=str(data["request_id"]),
            kind=str(data["kind"]),
            status=str(data["status"]),
            payload=WirePayload(dict(payload)) if payload is not None else None,
            error=ErrorInfo.from_dict(error) if error is not None else None,
            timings=Timings.from_dict(timings),
            schema_version=str(data.get("schema_version", SCHEMA_VERSION)),
        )
