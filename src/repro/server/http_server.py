"""The stdlib HTTP server mapping JSON requests onto the typed engine API.

One :class:`FaultInjectionServer` owns (or borrows) one
:class:`~repro.api.FaultInjectionEngine` and exposes it over a
:class:`http.server.ThreadingHTTPServer`.  Every handler thread submits
straight into the engine's continuous-batching scheduler, so N concurrent
HTTP clients get the same coalescing (one ``forward_batch`` pass, pooled
sandbox batches) as N in-process ``submit()`` callers.

Error contract (docs/SERVING.md):

========================  ======================================================
HTTP status               Meaning
========================  ======================================================
200                       Envelope with ``status: ok``, ``degraded`` (fault
                          generated, execution skipped behind an open
                          breaker), or ``cancelled`` (client-requested)
202                       Async ticket accepted / still pending
400                       Malformed JSON or request validation failure
404                       Unknown route or unknown ticket id
405                       Known route, wrong method (``Allow`` header set)
409                       Duplicate async ``request_id`` / cancel refused
413                       Body larger than ``ServerConfig.max_body_bytes``
429                       Load shed: scheduler queue at ``max_queue_depth``
                          (``Retry-After`` header set)
500                       Envelope with a non-request server-side error
503                       Server draining / engine closed / circuit breaker
                          open (``Retry-After`` header set)
504                       Request ``deadline_seconds`` exceeded
========================  ======================================================

Non-2xx statuses are derived from the envelope error's machine-readable
``kind`` (``timeout`` → 504, ``overloaded`` → 429, ``unavailable`` → 503)
before falling back to the exception type.  Every non-200 body carries the
same structured shape as an error envelope: ``{"status": "error", "error":
{"type": ..., "message": ..., "kind": ...}, ...}`` built from
:class:`~repro.api.ErrorInfo` — clients parse one schema everywhere.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..api import (
    REQUEST_KINDS,
    ErrorInfo,
    FaultInjectionEngine,
    ResponseHandle,
    Response,
    SCHEMA_VERSION,
    StatsSnapshot,
    request_from_dict,
)
from ..config import PipelineConfig, ServerConfig
from ..errors import AdmissionError, EngineClosedError, ReproError, RequestError

#: Error types that map to client-fault HTTP statuses.
_STATUS_BY_ERROR_TYPE = {
    RequestError.__name__: 400,
    EngineClosedError.__name__: 503,
}

#: Machine-readable error kinds that map to HTTP statuses (checked first).
_STATUS_BY_ERROR_KIND = {
    "timeout": 504,
    "overloaded": 429,
    "unavailable": 503,
}

#: Envelope statuses delivered under HTTP 200: success, graceful degradation
#: (the fault was generated but execution was skipped behind an open
#: breaker), and client-requested cancellation.
_OK_ENVELOPE_STATUSES = ("ok", "degraded", "cancelled")

#: Query-string values accepted as "true" for the ``async`` flag.
_TRUTHY = ("1", "true", "yes", "on")


class _DuplicateTicketError(RequestError):
    """An async ``request_id`` is already tracked (HTTP 409, not 400)."""


class _Reservation:
    """Placeholder tracked between id reservation and engine submission."""

    __slots__ = ("request_id", "kind")

    def __init__(self, request_id: str, kind: str) -> None:
        self.request_id = request_id
        self.kind = kind


def _http_status(response: Response) -> int:
    """The HTTP status an envelope travels under (see module docstring)."""
    if response.status in _OK_ENVELOPE_STATUSES:
        return 200
    kind_status = _STATUS_BY_ERROR_KIND.get(response.error.kind)
    if kind_status is not None:
        return kind_status
    return _STATUS_BY_ERROR_TYPE.get(response.error.type, 500)


class _TicketStore:
    """Async tickets by request id, with bounded retention of finished ones.

    Pending tickets are never evicted (a client must always be able to poll
    a submission to completion); completed envelopes beyond the retention
    bound are dropped oldest-first, so a long-lived server stays O(1).
    """

    def __init__(self, retention: int) -> None:
        self._retention = max(1, int(retention))
        self._handles: "OrderedDict[str, ResponseHandle | _Reservation]" = OrderedDict()
        self._lock = threading.Lock()

    def reserve(self, request_id: str, kind: str) -> None:
        """Atomically claim a client-chosen id before the engine submission.

        Raises:
            _DuplicateTicketError: If the id is already being tracked — the
                client reused a ``request_id`` while the previous ticket is
                still pollable.
        """
        with self._lock:
            if request_id in self._handles:
                raise _DuplicateTicketError(
                    f"request_id {request_id!r} is already tracked; "
                    "poll it or choose a fresh id"
                )
            self._handles[request_id] = _Reservation(request_id, kind)

    def release(self, request_id: str) -> None:
        """Drop a reservation whose engine submission failed."""
        with self._lock:
            if isinstance(self._handles.get(request_id), _Reservation):
                del self._handles[request_id]

    def attach(self, handle: ResponseHandle) -> None:
        """Track a submitted ticket (replacing its reservation, if any)."""
        with self._lock:
            self._handles[handle.request_id] = handle
            self._handles.move_to_end(handle.request_id)
            done = [
                rid
                for rid, entry in self._handles.items()
                if isinstance(entry, ResponseHandle) and entry.done()
            ]
            for rid in done[: max(0, len(done) - self._retention)]:
                del self._handles[rid]

    def get(self, request_id: str) -> "ResponseHandle | _Reservation | None":
        """The tracked entry, or ``None`` for unknown/evicted ids."""
        with self._lock:
            return self._handles.get(request_id)

    def counts(self) -> dict[str, int]:
        """``{"pending": ..., "completed": ...}`` ticket counts."""
        with self._lock:
            done = sum(
                1
                for entry in self._handles.values()
                if isinstance(entry, ResponseHandle) and entry.done()
            )
            return {"pending": len(self._handles) - done, "completed": done}

    def pending_handles(self) -> list[ResponseHandle]:
        """Handles that have not resolved yet (drain bookkeeping)."""
        with self._lock:
            return [
                entry
                for entry in self._handles.values()
                if isinstance(entry, ResponseHandle) and not entry.done()
            ]


class _EngineHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a reference back to the front-end."""

    daemon_threads = True
    allow_reuse_address = True

    app: "FaultInjectionServer"


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP exchanges onto the owning :class:`FaultInjectionServer`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"

    # Response headers and body are written as separate TCP segments; with
    # Nagle enabled the body segment stalls behind the peer's delayed ACK
    # (~40ms per exchange), which dwarfs a generate-only request.  TCP_NODELAY
    # is the standard HTTP-server setting.
    disable_nagle_algorithm = True

    # The request handler is chatty by default; serving logs belong to the
    # deployment (systemd, container runtime), not stderr noise per request.
    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    @property
    def app(self) -> "FaultInjectionServer":
        return self.server.app  # type: ignore[attr-defined]

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def do_DELETE(self) -> None:
        self._route("DELETE")

    # -- routing -----------------------------------------------------------------

    def _route(self, method: str) -> None:
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        with self.app._track() as accepted:
            if not accepted:
                self._send_json(
                    503,
                    self._error_body(
                        ErrorInfo("EngineClosedError", "server is draining", kind="unavailable")
                    ),
                    headers=self.app._retry_after_headers(),
                )
                return
            try:
                self._dispatch(method, path, query)
            except BrokenPipeError:  # client went away mid-response
                self.close_connection = True
            except Exception as exc:  # noqa: BLE001 - handler threads must not die loudly
                try:
                    self._send_json(500, self._error_body(ErrorInfo.from_exception(exc)))
                except Exception:  # pragma: no cover - socket already unusable
                    self.close_connection = True

    def _dispatch(self, method: str, path: str, query: dict) -> None:
        if path == "/healthz":
            self._require(method, "GET") and self._send_json(200, self.app.health())
            return
        if path == "/v1/stats":
            self._require(method, "GET") and self._send_json(200, self.app.stats())
            return
        if path.startswith("/v1/requests/"):
            request_id = path.removeprefix("/v1/requests/")
            if method == "GET":
                self._poll(request_id)
            elif method == "DELETE":
                self._cancel(request_id)
            else:
                self._send_json(
                    405,
                    self._error_body(ErrorInfo("RequestError", f"method {method} not allowed")),
                    headers={"Allow": "GET, DELETE"},
                )
            return
        if path.startswith("/v1/"):
            kind = path.removeprefix("/v1/")
            if kind in REQUEST_KINDS:
                if self._require(method, "POST"):
                    self._submit(kind, query)
                return
        self._send_json(
            404,
            self._error_body(ErrorInfo("RequestError", f"unknown route {path!r}")),
        )

    def _require(self, method: str, expected: str) -> bool:
        if method == expected:
            return True
        self._send_json(
            405,
            self._error_body(ErrorInfo("RequestError", f"method {method} not allowed")),
            headers={"Allow": expected},
        )
        return False

    # -- endpoints ---------------------------------------------------------------

    def _submit(self, kind: str, query: dict) -> None:
        """POST /v1/<kind>: decode, validate, and serve one typed request."""
        body = self._read_body()
        if body is None:
            return
        try:
            data = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(
                400, self._error_body(ErrorInfo("RequestError", f"invalid JSON body: {exc}"))
            )
            return
        wants_async = any(
            value.lower() in _TRUTHY for value in query.get("async", [])
        )
        try:
            self.app._admit()
            request = request_from_dict(kind, data)
            if wants_async:
                # Reserve a client-chosen id atomically BEFORE submitting,
                # so a racing duplicate can never reach the engine twice
                # and then be left untracked.  Engine-assigned ids come
                # from a process-unique counter and need no reservation.
                if request.request_id is not None:
                    self.app._tickets.reserve(request.request_id, kind)
                try:
                    handle = self.app.engine.submit(request)
                except BaseException:
                    if request.request_id is not None:
                        self.app._tickets.release(request.request_id)
                    raise
                self.app._tickets.attach(handle)
            else:
                response = self.app.engine.run(request)
        except AdmissionError as exc:
            self._send_json(
                429,
                self._error_body(ErrorInfo.from_exception(exc), kind=kind),
                headers=self.app._retry_after_headers(),
            )
            return
        except _DuplicateTicketError as exc:
            self._send_json(
                409, self._error_body(ErrorInfo("RequestError", str(exc)), kind=kind)
            )
            return
        except RequestError as exc:
            self._send_json(400, self._error_body(ErrorInfo.from_exception(exc), kind=kind))
            return
        except EngineClosedError as exc:
            self._send_json(
                503,
                self._error_body(ErrorInfo.from_exception(exc), kind=kind),
                headers=self.app._retry_after_headers(),
            )
            return
        except ReproError as exc:
            self._send_json(500, self._error_body(ErrorInfo.from_exception(exc), kind=kind))
            return
        if wants_async:
            self._send_json(202, self._ticket_body(handle))
            return
        self._send_envelope(response)

    def _poll(self, request_id: str) -> None:
        """GET /v1/requests/<id>: the envelope when done, the ticket while not."""
        entry = self.app._tickets.get(request_id)
        if entry is None:
            self._send_json(
                404,
                self._error_body(
                    ErrorInfo("RequestError", f"unknown request id {request_id!r}"),
                ),
            )
            return
        if isinstance(entry, _Reservation) or not entry.done():
            self._send_json(202, self._ticket_body(entry))
            return
        self._send_envelope(entry.result())

    def _cancel(self, request_id: str) -> None:
        """DELETE /v1/requests/<id>: cancel a still-queued async request.

        Cancellation is best-effort and queued-only: 200 with the
        ``status="cancelled"`` envelope when the ticket was recalled, 409
        when it already started executing or finished (poll it instead),
        404 for unknown ids.
        """
        entry = self.app._tickets.get(request_id)
        if entry is None:
            self._send_json(
                404,
                self._error_body(
                    ErrorInfo("RequestError", f"unknown request id {request_id!r}"),
                ),
            )
            return
        if isinstance(entry, _Reservation) or not entry.cancel():
            self._send_json(
                409,
                self._error_body(
                    ErrorInfo(
                        "RequestError",
                        f"request {request_id!r} is executing or finished and cannot "
                        "be cancelled; poll it instead",
                    ),
                ),
            )
            return
        self._send_envelope(entry.result())

    # -- plumbing ----------------------------------------------------------------

    def _send_envelope(self, response: Response) -> None:
        """Send an engine envelope under its mapped HTTP status."""
        status = _http_status(response)
        headers = self.app._retry_after_headers() if status in (429, 503) else None
        self._send_json(status, response.to_dict(), headers=headers)

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` after replying 400/413 to a bad one."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            self._send_json(
                400,
                self._error_body(ErrorInfo("RequestError", "malformed Content-Length header")),
            )
            return None
        limit = self.app.server_config.max_body_bytes
        if length > limit:
            # Discard the declared body in bounded chunks first — replying
            # while the client is still sending breaks its pipe mid-write —
            # then close the connection (the stream is not worth keeping).
            remaining = min(length, 64 * limit)
            while remaining > 0:
                chunk = self.rfile.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
            self.close_connection = True
            self._send_json(
                413,
                self._error_body(
                    ErrorInfo(
                        "RequestError",
                        f"request body of {length} bytes exceeds the {limit}-byte limit",
                    )
                ),
            )
            return None
        return self.rfile.read(length) if length else b""

    @staticmethod
    def _ticket_body(ticket: "ResponseHandle | _Reservation") -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "request_id": ticket.request_id,
            "kind": ticket.kind,
            "status": "pending",
            "poll": f"/v1/requests/{ticket.request_id}",
        }

    @staticmethod
    def _error_body(error: ErrorInfo, kind: str | None = None) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "error",
            "kind": kind,
            "error": error.to_dict(),
        }

    def _send_json(self, status: int, body: dict, headers: dict | None = None) -> None:
        encoded = json.dumps(body, sort_keys=True).encode("utf-8")
        if status >= 400:
            self.app._count_error()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(encoded)


class FaultInjectionServer:
    """The HTTP/JSON front-end over one shared fault-injection engine.

    The server either owns a fresh engine built from ``config`` or borrows
    an existing one (``engine=...``) — borrowed engines are *not* closed on
    shutdown, so several front-ends (or in-process callers) can share one
    stack.  ``server_config`` defaults to ``config.server``.

    Use as a context manager, or pair :meth:`start` with :meth:`close`::

        with FaultInjectionServer(server_config=ServerConfig(port=0)) as server:
            print(server.url)  # port 0 picks an ephemeral port
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        engine: FaultInjectionEngine | None = None,
        server_config: ServerConfig | None = None,
    ) -> None:
        """Bind the listening socket (serving starts with :meth:`start`).

        Args:
            config: Pipeline configuration for an owned engine; ignored when
                ``engine`` is passed (its config wins).
            engine: An existing engine to serve; stays open after shutdown.
            server_config: Host/port and serving limits; defaults to the
                effective pipeline config's ``server`` section.
        """
        self.config = engine.config if engine is not None else (config or PipelineConfig())
        self.server_config = server_config or self.config.server
        self._owns_engine = engine is None
        self.engine = engine or FaultInjectionEngine(self.config)
        self._tickets = _TicketStore(self.server_config.request_retention)
        self._lock = threading.Lock()
        self._inflight = 0
        self._idle = threading.Condition(self._lock)
        self._draining = False
        self._closed = False
        self._requests_total = 0
        self._http_errors_total = 0
        self._thread: threading.Thread | None = None
        self._httpd = _EngineHTTPServer(
            (self.server_config.host, self.server_config.port), _Handler
        )
        self._httpd.app = self

    # -- addresses ---------------------------------------------------------------

    @property
    def host(self) -> str:
        """The bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the ephemeral one when configured with port 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the serving endpoint."""
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "FaultInjectionServer":
        """Serve in a background thread and return immediately."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name="repro-http", daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (or interrupt)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        """Gracefully drain and shut down.

        The sequence: stop accepting connections, let in-flight HTTP
        exchanges finish (bounded by ``drain_timeout_seconds``), resolve
        queued async tickets, and — for owned engines — close the shared
        engine stack (its own close is graceful too).  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
        self._httpd.shutdown()
        self._httpd.server_close()
        deadline = time.monotonic() + self.server_config.drain_timeout_seconds
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(remaining)
        if self._owns_engine:
            # Graceful: queued tickets (async submissions included) resolve
            # before the scheduler thread and worker pools go away.
            self.engine.close()
        else:
            for handle in self._tickets.pending_handles():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    handle.result(timeout=remaining)
                except Exception:  # pragma: no cover - drain is best-effort
                    break

    def __enter__(self) -> "FaultInjectionServer":
        return self.start()

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -- observability -----------------------------------------------------------

    def health(self) -> dict:
        """The ``GET /healthz`` body: liveness plus routing signals.

        Beyond bare liveness, a front-end or load balancer gets what it needs
        to route around a saturated server: the scheduler's current
        ``queue_depth``, whether this server is ``draining`` (graceful
        shutdown in progress), and how many circuit breakers are currently
        ``open`` (execution planes failing fast).
        """
        with self._lock:
            draining = self._draining
        return {
            "status": "ok",
            "schema_version": SCHEMA_VERSION,
            "queue_depth": self.engine.queue_depth,
            "draining": draining,
            "open_breakers": self.engine.open_breakers(),
        }

    def stats_snapshot(self) -> StatsSnapshot:
        """The typed ``GET /v1/stats`` body (see :class:`~repro.api.StatsSnapshot`):
        front-end counters plus the engine's scheduler/execution/cache
        sections."""
        with self._lock:
            server = {
                "requests_total": self._requests_total,
                "http_errors_total": self._http_errors_total,
                "inflight": self._inflight,
                "draining": self._draining,
            }
        server["tickets"] = self._tickets.counts()
        return StatsSnapshot(
            server=server,
            scheduler=self.engine.serving_stats(),
            execution=self.engine.execution_snapshot(),
            caches=self.engine.cache_stats(),
        )

    def stats(self) -> dict:
        """Serving counters, scheduler behaviour, and cache hit rates."""
        return self.stats_snapshot().to_dict()

    # -- handler hooks -----------------------------------------------------------

    def _track(self) -> "_ExchangeTracker":
        """Context manager accounting one HTTP exchange (False while draining)."""
        return _ExchangeTracker(self)

    def _count_error(self) -> None:
        with self._lock:
            self._http_errors_total += 1

    def _admit(self) -> None:
        """Load shedding: reject new submissions while the queue is saturated.

        Raises:
            AdmissionError: When the scheduler's queue depth has reached
                ``ServerConfig.max_queue_depth`` (the handler maps it to
                HTTP 429 with a ``Retry-After`` header).  A limit of 0
                disables shedding.
        """
        limit = self.server_config.max_queue_depth
        if limit <= 0:
            return
        depth = self.engine.queue_depth
        if depth >= limit:
            raise AdmissionError(
                f"scheduler queue depth {depth} is at capacity ({limit}); "
                "retry after the queue drains"
            )

    def _retry_after_headers(self) -> dict:
        """The ``Retry-After`` header attached to 429/503 responses."""
        return {"Retry-After": str(max(1, round(self.server_config.retry_after_seconds)))}


class _ExchangeTracker:
    """Accounts one HTTP exchange against the server's in-flight counter.

    ``__enter__`` returns ``False`` (without counting) while the server is
    draining, which the handler turns into a 503.
    """

    __slots__ = ("_server", "_accepted")

    def __init__(self, server: FaultInjectionServer) -> None:
        self._server = server
        self._accepted = False

    def __enter__(self) -> bool:
        with self._server._lock:
            if self._server._draining:
                return False
            self._accepted = True
            self._server._inflight += 1
            self._server._requests_total += 1
            return True

    def __exit__(self, *_exc_info) -> None:
        if self._accepted:
            with self._server._idle:
                self._server._inflight -= 1
                self._server._idle.notify_all()


def serve(
    config: PipelineConfig | None = None,
    server_config: ServerConfig | None = None,
) -> FaultInjectionServer:
    """Build and start a server in one call (the embedding-friendly helper).

    Args:
        config: Pipeline configuration for the owned engine.
        server_config: Overrides ``config.server`` (e.g. ``port=0`` in tests).

    Returns:
        The started server; call :meth:`FaultInjectionServer.close` (or use
        it as a context manager) to drain and shut down.
    """
    return FaultInjectionServer(config=config, server_config=server_config).start()
