"""The typed service layer: requests, responses, engine, and scheduler.

This package is the public serving surface of the library — the redesigned
API over the monolithic :class:`~repro.core.pipeline.NeuralFaultInjector`:

* :mod:`repro.api.requests` — frozen, validated request dataclasses;
* :mod:`repro.api.responses` — the versioned response envelope and typed
  payloads;
* :mod:`repro.api.engine` — :class:`FaultInjectionEngine`, the façade that
  owns one shared pipeline/worker-pool/cache stack;
* :mod:`repro.api.scheduler` — the continuous-batching request scheduler.

See docs/API.md for the request/response reference, scheduler semantics, and
the migration guide from ``NeuralFaultInjector``.
"""

from .engine import FaultInjectionEngine
from .requests import (
    CAMPAIGN_TECHNIQUES,
    REQUEST_KINDS,
    CampaignRequest,
    DatasetRequest,
    GenerateRequest,
    Request,
    RLHFRequest,
    request_from_dict,
)
from .responses import (
    SCHEMA_VERSION,
    CacheStats,
    CampaignPayload,
    DatasetPayload,
    ErrorInfo,
    ExecutionStats,
    GeneratePayload,
    Response,
    RLHFPayload,
    StatsSnapshot,
    Timings,
    WirePayload,
    error_kind_for,
)
from .scheduler import ResponseHandle, Scheduler, SchedulerStats, Ticket

__all__ = [
    "CAMPAIGN_TECHNIQUES",
    "CacheStats",
    "CampaignPayload",
    "CampaignRequest",
    "DatasetPayload",
    "DatasetRequest",
    "ErrorInfo",
    "ExecutionStats",
    "FaultInjectionEngine",
    "GeneratePayload",
    "GenerateRequest",
    "REQUEST_KINDS",
    "RLHFPayload",
    "RLHFRequest",
    "Request",
    "Response",
    "ResponseHandle",
    "SCHEMA_VERSION",
    "Scheduler",
    "SchedulerStats",
    "StatsSnapshot",
    "Ticket",
    "Timings",
    "WirePayload",
    "error_kind_for",
    "request_from_dict",
]
