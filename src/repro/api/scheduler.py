"""Continuous batching of concurrent service requests.

The :class:`Scheduler` is the serving loop between the typed request API and
the batched substrates built in PRs 1-3.  Clients submit requests from any
thread and immediately receive a :class:`ResponseHandle`; a single dispatch
thread drains the queue and coalesces work, in the style of continuous
batching in LLM serving engines (sglang-like):

* requests are dispatched strictly FIFO, so results are reproducible and no
  request can starve;
* a contiguous run of :class:`~repro.api.GenerateRequest` tickets at the head
  of the queue is grouped into ONE model batch — a single
  ``forward_batch``-backed generation pass — up to
  ``EngineConfig.max_batch_size`` tickets.  The dispatch thread never waits
  for a batch to fill: it takes what is queued when it is free, and tickets
  that arrive while a batch runs form the next batch;
* within a batch, requests that ask for execution are grouped by target and
  run as pooled sandbox batches (``run_many``/``run_batch``), which is where
  the order-of-magnitude serving win comes from.  Each group is handed to
  a sandbox thread (:meth:`Scheduler.offload`), so the dispatch thread runs
  only NLP, the forward pass and decode, and a hung mutant holds one
  sandbox thread instead of every later request;
* dataset / campaign / RLHF tickets are heavyweight and run one per
  dispatch on the dispatch thread, in queue order, beside any execution
  groups still running on sandbox threads.

Batching never changes results: greedy decoding is batch-invariant, sampled
requests decode from per-request seeded streams, and payload envelopes
quantize model-arithmetic floats to the library's 1e-9 oracle tolerance (see
:mod:`repro.api.responses`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..errors import DeadlineExceededError, EngineClosedError, RequestCancelledError
from ..resilience import Deadline
from .requests import GenerateRequest, Request
from .responses import ErrorInfo, Response, Timings


class ResponseHandle:
    """An asynchronous handle to one submitted request."""

    def __init__(self, request_id: str, kind: str) -> None:
        self.request_id = request_id
        self.kind = kind
        self._future: "Future[Response]" = Future()
        self._scheduler: "Scheduler | None" = None

    def done(self) -> bool:
        """Whether the response is available."""
        return self._future.done()

    def result(self, timeout: float | None = None) -> Response:
        """Block until the response envelope is available and return it.

        A ``timeout`` that elapses never raises a raw
        :class:`concurrent.futures.TimeoutError` into client code: it
        returns a structured ``ErrorInfo(kind="timeout")`` envelope instead.
        The request itself stays in flight — the handle is *not* resolved,
        and a later :meth:`result` call (or the HTTP polling route) can still
        observe the real outcome.
        """
        try:
            return self._future.result(timeout=timeout)
        except FutureTimeoutError:
            return Response(
                request_id=self.request_id,
                kind=self.kind,
                status="error",
                error=ErrorInfo(
                    type="TimeoutError",
                    message=(
                        f"no response within {timeout:g}s; the request is still in flight "
                        "— call result() again to keep waiting"
                    ),
                    kind="timeout",
                ),
            )

    def cancel(self) -> bool:
        """Cancel the request if it is still queued (best-effort).

        Returns:
            ``True`` when the ticket was still waiting in the scheduler queue
            and was removed — the handle resolves immediately with a
            ``status="cancelled"`` envelope.  ``False`` when the request
            already started executing or finished (it cannot be recalled).
        """
        scheduler = self._scheduler
        if scheduler is None or self._future.done():
            return False
        return scheduler.try_cancel(self.request_id)

    def add_done_callback(self, callback: Callable[["ResponseHandle"], None]) -> None:
        """Invoke ``callback(handle)`` once the response is available."""
        self._future.add_done_callback(lambda _future: callback(self))

    def _resolve(self, response: Response) -> None:
        self._future.set_result(response)


@dataclass
class Ticket:
    """One queued request together with its delivery handle."""

    request: Request
    handle: ResponseHandle
    submitted_at: float = field(default_factory=time.monotonic)
    deadline: Deadline | None = None

    def expired(self) -> bool:
        """Whether the request's deadline elapsed before dispatch."""
        return self.deadline is not None and self.deadline.expired()


#: Most recent per-batch records retained by :class:`SchedulerStats`.
STATS_BATCH_WINDOW = 256


@dataclass
class SchedulerStats:
    """Observable batching behaviour, for tests and the serving benchmark.

    Aggregate counters cover the engine's whole lifetime; the per-batch
    detail is a sliding window of the last :data:`STATS_BATCH_WINDOW`
    dispatches, so a long-lived serving engine's stats stay O(1).  The
    dispatch thread records while other threads read, so both go through
    one lock.
    """

    dispatched: int = 0
    batch_count: int = 0
    batches: deque = field(default_factory=lambda: deque(maxlen=STATS_BATCH_WINDOW))
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def record(self, kind: str, size: int, targets: list[str]) -> None:
        """Account one dispatch."""
        with self._lock:
            self.dispatched += size
            self.batch_count += 1
            self.batches.append({"kind": kind, "size": size, "targets": targets})

    @property
    def batch_sizes(self) -> list[int]:
        """Generate-batch sizes in dispatch order (recent window)."""
        return [b["size"] for b in self.to_dict()["batches"] if b["kind"] == "generate"]

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view of the stats (per-batch detail: recent window)."""
        with self._lock:
            dispatched, batch_count, batches = self.dispatched, self.batch_count, list(self.batches)
        return {
            "dispatched": dispatched,
            "batch_count": batch_count,
            "batches": [dict(b) for b in batches],
        }


class Scheduler:
    """FIFO request queue with continuous batching of generate requests.

    The scheduler does not know how to execute requests; the owning
    :class:`~repro.api.FaultInjectionEngine` passes the two dispatch
    callbacks and hands sandbox work to the scheduler's sandbox threads
    through :meth:`offload`.  The dispatch thread is started lazily on first
    submit, sandbox threads on first offload; :meth:`close` drains and stops
    both.
    """

    def __init__(
        self,
        dispatch_batch: Callable[[list[Ticket]], None],
        dispatch_single: Callable[[Ticket], None],
        max_batch_size: int,
        sandbox_workers: int = 1,
    ) -> None:
        """Initialise the scheduler.

        Args:
            dispatch_batch: Callback executing a coalesced list of generate
                tickets (it must resolve every ticket's handle, or hand the
                ticket to :meth:`offload`).
            dispatch_single: Callback executing one non-generate ticket.
            max_batch_size: Most generate tickets coalesced per dispatch.
            sandbox_workers: Sandbox threads serving :meth:`offload`; at
                most this many offloaded tasks run at once.
        """
        self._dispatch_batch = dispatch_batch
        self._dispatch_single = dispatch_single
        self._max_batch_size = max(1, int(max_batch_size))
        self._queue: deque[Ticket] = deque()
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        self._sandbox = ThreadPoolExecutor(
            max_workers=max(1, int(sandbox_workers)), thread_name_prefix="repro-sandbox"
        )
        self._awaiting_thread = 0
        self._held = 0
        self._serving = threading.local()
        self._closed = False
        self.stats = SchedulerStats()

    # -- client side ----------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Tickets waiting for the dispatch thread or for a sandbox thread.

        Admission control sheds on this number, so a burst of execute
        requests queued behind busy sandbox threads is shed like a burst
        queued behind the dispatch thread.
        """
        with self._cond:
            return len(self._queue) + self._awaiting_thread

    def submit(self, ticket: Ticket) -> None:
        """Enqueue a ticket (thread-safe); starts the dispatch thread lazily.

        Raises:
            EngineClosedError: If the scheduler has been closed.
        """
        with self._cond:
            if self._closed:
                raise EngineClosedError("scheduler is closed; no further requests are accepted")
            ticket.handle._scheduler = self
            self._queue.append(ticket)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-scheduler", daemon=True
                )
                self._thread.start()
            self._cond.notify_all()

    def try_cancel(self, request_id: str) -> bool:
        """Remove a still-queued ticket and resolve it as cancelled.

        Args:
            request_id: The id the ticket's handle carries.

        Returns:
            ``True`` when the ticket was found in the queue (its handle now
            holds a ``status="cancelled"`` envelope); ``False`` when it
            already left the queue — executing work is never interrupted.
        """
        with self._cond:
            found = None
            for ticket in self._queue:
                if ticket.handle.request_id == request_id:
                    found = ticket
                    break
            if found is None:
                return False
            self._queue.remove(found)
        found.handle._resolve(
            Response(
                request_id=found.handle.request_id,
                kind=found.request.kind,
                status="cancelled",
                error=ErrorInfo.from_exception(
                    RequestCancelledError("request cancelled while queued")
                ),
                timings=Timings(queued_seconds=time.monotonic() - found.submitted_at),
            )
        )
        return True

    def close(self) -> None:
        """Drain the queue and the sandbox threads, and reject new submits.

        Already-queued tickets are still executed (close is graceful), so
        every handle obtained before ``close`` resolves: the dispatch thread
        drains the queue first, then every offloaded task runs to completion.
        A :meth:`held` queue is released.  Idempotent.

        Called on a serving thread (see :meth:`on_serving_thread`), close
        cannot wait for the threads it drains: it only rejects new submits,
        and the dispatch thread shuts the sandbox threads down once the
        queue is empty.
        """
        with self._cond:
            self._closed = True
            thread = self._thread
            self._cond.notify_all()
        if self.on_serving_thread():
            return
        if thread is not None:
            thread.join()
        self._sandbox.shutdown(wait=True)

    def on_serving_thread(self) -> bool:
        """Whether the caller runs on the dispatch thread or a sandbox thread
        — as a handle's done-callback may."""
        return getattr(self._serving, "active", False)

    @contextmanager
    def held(self) -> Iterator[None]:
        """Keep the dispatch thread from taking tickets while the block runs.

        A test seam: tickets submitted inside the block stay queued — so
        they count toward :attr:`queue_depth`, can expire, and can be
        cancelled — until the block exits.  A ticket the dispatch thread
        already took is not recalled.
        """
        with self._cond:
            self._held += 1
        try:
            yield
        finally:
            with self._cond:
                self._held -= 1
                self._cond.notify_all()

    def offload(self, work: Callable[[], None], tickets: list[Ticket]) -> None:
        """Run ``work`` on a sandbox thread; it must resolve every ticket.

        Until a sandbox thread picks the task up, its tickets count toward
        :attr:`queue_depth`.  They have left the queue, so they can no
        longer be cancelled.  Should ``work`` raise, every ticket it left
        unresolved resolves with an error envelope.
        """
        with self._cond:
            self._awaiting_thread += len(tickets)
        try:
            self._sandbox.submit(self._run_offloaded, work, tickets)
        except RuntimeError:  # the sandbox threads were shut down
            with self._cond:
                self._awaiting_thread -= len(tickets)
            raise

    def _run_offloaded(self, work: Callable[[], None], tickets: list[Ticket]) -> None:
        self._serving.active = True
        with self._cond:
            self._awaiting_thread -= len(tickets)
        self._dispatch(work, tickets)

    # -- dispatch loop ---------------------------------------------------------------

    def _loop(self) -> None:
        self._serving.active = True
        while True:
            with self._cond:
                while not self._closed and (self._held or not self._queue):
                    self._cond.wait()
                if not self._queue:
                    # Closed and drained: nothing offloads any more.
                    self._sandbox.shutdown(wait=False)
                    return
                taken = self._collect()
            batch = [t for t in taken if not self._expire(t)]
            if not batch:
                continue
            head = batch[0]
            if isinstance(head.request, GenerateRequest):
                self.stats.record(
                    "generate", len(batch), sorted({t.request.target or "" for t in batch})
                )
                self._dispatch(lambda: self._dispatch_batch(batch), batch)
            else:
                self.stats.record(head.request.kind, 1, [])
                self._dispatch(lambda: self._dispatch_single(head), [head])

    def _expire(self, ticket: Ticket) -> bool:
        """Resolve a ticket whose deadline elapsed while it queued."""
        if not ticket.expired():
            return False
        ticket.handle._resolve(
            Response(
                request_id=ticket.handle.request_id,
                kind=ticket.request.kind,
                status="error",
                error=ErrorInfo.from_exception(
                    DeadlineExceededError("deadline exceeded while the request was queued")
                ),
                timings=Timings(queued_seconds=time.monotonic() - ticket.submitted_at),
            )
        )
        return True

    def _dispatch(self, work: Callable[[], None], tickets: list[Ticket]) -> None:
        """Run dispatch or sandbox work, resolving stranded handles on failure.

        Expected errors are turned into error envelopes inside the engine's
        callbacks; this is the last line of defence so an unexpected
        exception can never kill a serving thread or leave a client
        blocked on an unresolved handle forever.
        """
        try:
            work()
        except Exception as exc:  # noqa: BLE001 - serving loop must survive anything
            for ticket in tickets:
                if not ticket.handle.done():
                    ticket.handle._resolve(
                        Response(
                            request_id=ticket.handle.request_id,
                            kind=ticket.request.kind,
                            status="error",
                            error=ErrorInfo.from_exception(exc),
                        )
                    )

    def _collect(self) -> list[Ticket]:
        """Take the head ticket, and behind a generate head every generate
        ticket already queued after it.

        Called with the condition lock held and a non-empty queue; it never
        waits.  Collection stops at ``max_batch_size`` tickets or at the first
        non-generate ticket (FIFO is never violated).
        """
        batch = [self._queue.popleft()]
        if isinstance(batch[0].request, GenerateRequest):
            while (
                len(batch) < self._max_batch_size
                and self._queue
                and isinstance(self._queue[0].request, GenerateRequest)
            ):
                batch.append(self._queue.popleft())
        return batch
