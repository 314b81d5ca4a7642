"""HTTP/JSON serving front-end over the :class:`~repro.api.FaultInjectionEngine`.

This package puts a real socket server in front of the typed service layer —
the envelope was already wire-shaped, and the CLI proved the contract; the
server makes it reachable by out-of-process clients:

* ``POST /v1/generate|dataset|campaign|rlhf`` — JSON bodies decoded onto the
  frozen request dataclasses via the :func:`~repro.api.request_from_dict`
  codec, served synchronously (the response envelope) or asynchronously
  (``?async=1`` → a ticket to poll);
* ``GET /v1/requests/<id>`` — poll a submitted async ticket;
* ``GET /healthz`` and ``GET /v1/stats`` — liveness plus scheduler queue
  depth, cache hit rates, and request counters;
* structured JSON errors reusing :class:`~repro.api.ErrorInfo` — clients
  never see a traceback;
* graceful drain on shutdown: in-flight HTTP requests finish, queued engine
  tickets resolve, then the shared engine stack closes.

The implementation is stdlib-only (:class:`http.server.ThreadingHTTPServer`)
— concurrent HTTP clients coalesce through the engine's continuous-batching
scheduler exactly like in-process ``submit()`` callers, which is where the
serving throughput comes from (see ``benchmarks/bench_http_serving.py``).
Run it with ``python -m repro serve`` or embed :class:`FaultInjectionServer`;
docs/SERVING.md is the endpoint reference.

One server runs one engine: its sandbox slots (``--max-workers``, capped by
``repro.execution.worker_cap()``) bound every sandbox run it makes.
"""

from .http_server import FaultInjectionServer, serve

__all__ = [
    "FaultInjectionServer",
    "serve",
]
