"""Load generation over HTTP: closed loops, the open loop and its poller.

The load comes from this one process with at most ``nproc`` threads and
connections: the closed loops run one thread per connection; the open loop
runs a sender thread (due-time schedule, ``POST ?async=1``) and a poller
thread (``GET /v1/requests/<id>``), each on its own connection.  Clocks are
``time.monotonic``, the clock the server's spans use.
"""

from __future__ import annotations

import heapq
import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Polling interval bounds for an outstanding ticket; the interval grows
#: with the ticket's age so long waits cost few polls while short ones are
#: observed promptly.  A completed poll re-polls every other outstanding
#: ticket at once, since tickets tend to resolve together with their batch.
POLL_MIN_SECONDS = 0.01
POLL_MAX_SECONDS = 1.0
POLL_AGE_SHARE = 0.1


@dataclass
class Result:
    """One measured request as the client saw it."""

    key: str
    due: float
    sent: float
    completed: float = 0.0
    http_status: int = 0
    envelope: dict[str, Any] | None = None
    polls: int = 0
    request_id: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.http_status == 200 and bool(self.envelope) and self.envelope.get("status") == "ok"


def exchange(connection: http.client.HTTPConnection, method: str, path: str,
             body: dict | None = None) -> tuple[int, dict | None]:
    """One HTTP exchange on a keep-alive connection → (status, parsed JSON)."""
    payload = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"} if payload is not None else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    try:
        return response.status, json.loads(raw) if raw else None
    except ValueError:
        return response.status, None


def _exchange_or_fail(connection, method, path, body=None) -> tuple[int, dict | None]:
    try:
        return exchange(connection, method, path, body)
    except (OSError, http.client.HTTPException) as exc:
        connection.close()  # the next request reconnects
        return 0, {"status": "error", "error": {"type": type(exc).__name__, "message": str(exc)}}


def sync_call(connection, kind: str, key: str, body: dict, reduce: Callable[[Result], None]) -> Result:
    """A blocking ``POST /v1/<kind>``; ``reduce`` keeps what is needed of the envelope."""
    sent = time.monotonic()
    status, envelope = _exchange_or_fail(connection, "POST", f"/v1/{kind}", body)
    result = Result(key, due=sent, sent=sent, completed=time.monotonic(),
                    http_status=status, envelope=envelope)
    reduce(result)
    return result


def closed_loop(server, connections: int, seconds: float,
                next_request: Callable[[], tuple[str, dict]], kind: str,
                reduce: Callable[[Result], None]) -> list[Result]:
    """``connections`` clients, each sending its next request when the last returns.

    Requests started before ``seconds`` elapse are measured to completion.
    """
    results: list[Result] = []
    lock = threading.Lock()
    end = time.monotonic() + seconds

    def client() -> None:
        connection = server.connection()
        mine = []
        try:
            while time.monotonic() < end:
                key, body = next_request()
                mine.append(sync_call(connection, kind, key, body, reduce))
        finally:
            connection.close()
            with lock:
                results.extend(mine)

    threads = [threading.Thread(target=client, name=f"closed-{i}") for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(results, key=lambda result: result.sent)


def open_loop(server, arrivals, start: float, id_prefix: str,
              reduce: Callable[[Result], None]) -> list[Result]:
    """Send each arrival at ``start + offset`` (async) and poll it to completion.

    Latency is timed from the due time (:func:`stats.due_latency`); the
    sender's lateness is kept per request as ``sent - due``.
    """
    results = [
        Result(arrival.key, due=start + arrival.offset, sent=0.0,
               request_id=f"{id_prefix}-{index}")
        for index, arrival in enumerate(arrivals)
    ]
    outstanding: list[tuple[float, int, bool]] = []  # (next poll time, index, sweep)
    cond = threading.Condition()
    sender_done = threading.Event()

    def sender() -> None:
        connection = server.connection()
        try:
            for index, (arrival, result) in enumerate(zip(arrivals, results)):
                delay = result.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                body = dict(arrival.body, request_id=result.request_id)
                result.sent = time.monotonic()
                status, ticket = _exchange_or_fail(connection, "POST", "/v1/generate?async=1", body)
                if status == 202:
                    with cond:
                        heapq.heappush(outstanding, (time.monotonic() + POLL_MIN_SECONDS, index, False))
                        cond.notify()
                else:
                    result.completed = time.monotonic()
                    result.http_status, result.envelope = status, ticket
                    reduce(result)
        finally:
            connection.close()
            sender_done.set()
            with cond:
                cond.notify()

    def poller() -> None:
        connection = server.connection()
        try:
            while True:
                with cond:
                    while True:
                        if outstanding:
                            delay = outstanding[0][0] - time.monotonic()
                            if delay <= 0:
                                _, index, sweep = heapq.heappop(outstanding)
                                break
                            cond.wait(delay)
                        elif sender_done.is_set():
                            return
                        else:
                            cond.wait()
                result = results[index]
                status, envelope = _exchange_or_fail(
                    connection, "GET", f"/v1/requests/{result.request_id}")
                result.polls += 1
                now = time.monotonic()
                if status == 202:
                    age = now - result.sent
                    interval = min(POLL_MAX_SECONDS, max(POLL_MIN_SECONDS, POLL_AGE_SHARE * age))
                    with cond:
                        heapq.heappush(outstanding, (now + interval, index, False))
                    continue
                result.completed = now
                result.http_status, result.envelope = status, envelope
                reduce(result)
                if not sweep:
                    with cond:
                        outstanding[:] = [(now, waiting, True) for _, waiting, _ in outstanding]
                        heapq.heapify(outstanding)
        finally:
            connection.close()

    threads = [threading.Thread(target=sender, name="open-sender"),
               threading.Thread(target=poller, name="open-poller")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results
