"""The distributed coordinator: a machine-spanning :class:`DistributedPool`.

``DistributedPool`` exposes the batch interface of
:class:`repro.execution.WorkerPool` — ``run_batch`` over module sources with
submission-ordered payload dicts, ``stats()`` supervision counters,
``shutdown()`` — but executes on **remote sandbox workers** that dial in over
TCP (:mod:`repro.distributed.protocol`) instead of forked local processes.
``ExecutionConfig.default_mode = "distributed"`` (or ``mode="distributed"``
on any request) routes every existing ``run_batch`` / ``run_many`` call site
through it unchanged.

Scheduling is lease-based: idle workers are handed LEASE frames of up to
``capacity`` tasks, each with a wall-clock budget derived from the per-task
sandbox timeout (itself clamped upstream by the request
:class:`~repro.resilience.Deadline`).  Workers heartbeat while executing; a
missed heartbeat, an expired lease, or a dropped connection is reported to
the same :class:`~repro.execution.supervision.SupervisedBatch` state machine
the local pool drives — ``ResilienceConfig.task_retry_budget`` caps
re-executions and a task repeatedly charged worker deaths is quarantined; a
death is charged to a task only when it held a one-task lease.  Workers may
join and leave **mid-campaign**: a joiner is handed pending work on its next
scheduler pass, a leaver's lease is requeued, and the ``rebalances`` counter
records every membership change observed during an active batch.

Determinism is the hard guarantee: tasks are keyed by submission index,
results are reassembled in submission order, and the sandbox workload itself
is untouched by scheduling — so a distributed campaign is **byte-identical**
to pooled single-process execution regardless of which worker ran what, which
workers died, and in what order results arrived (pinned by the differential
suite in ``tests/test_chaos_differential.py``).
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from typing import Any

from ..config import DistributedConfig, ResilienceConfig
from ..errors import RequestError, SandboxError
from ..execution.pool import resolve_workers
from ..execution.supervision import SupervisedBatch
from ..resilience.retry import RetryPolicy
from .protocol import (
    Frame,
    GoodbyeFrame,
    HeartbeatFrame,
    HelloFrame,
    LeaseFrame,
    RegisterFrame,
    ResultFrame,
    recv_frame,
    send_frame,
)

#: Extra wall-clock grace on a lease beyond the sum of its task budgets —
#: covers the one-time interpreter/import/pool-spawn cost of a fresh worker.
_LEASE_GRACE_SECONDS = 15.0

#: How long a connecting peer gets to complete the HELLO handshake.
_HANDSHAKE_TIMEOUT_SECONDS = 10.0


class _WorkerLink:
    """Coordinator-side state of one connected worker."""

    __slots__ = ("worker_id", "capacity", "sock", "send_lock", "last_seen", "lease", "alive", "ready")

    def __init__(self, worker_id: str, capacity: int, sock: socket.socket) -> None:
        self.worker_id = worker_id
        self.capacity = capacity
        self.sock = sock
        self.send_lock = threading.Lock()
        self.last_seen = time.monotonic()
        self.lease: "_Lease | None" = None
        self.alive = True
        self.ready = False  # REGISTER reply confirmed on the wire


class _Lease:
    """Task indices of one batch assigned to one worker."""

    __slots__ = ("lease_id", "link", "batch", "indices", "deadline")

    def __init__(
        self, lease_id: int, link: _WorkerLink, batch: SupervisedBatch, indices: list[int], deadline: float
    ) -> None:
        self.lease_id = lease_id
        self.link = link
        self.batch = batch
        self.indices = indices
        self.deadline = deadline


class DistributedPool:
    """Machine-spanning work queue with the local ``WorkerPool`` interface.

    The pool binds its coordinator socket at construction time (``port=0``
    picks an ephemeral port, published as :attr:`address`) and accepts
    worker connections immediately, so external workers — launched with
    ``python -m repro worker --connect HOST:PORT`` on any machine — can dial
    in before, during, or between batches.  With
    ``DistributedConfig.spawn_workers`` (the default) the first batch also
    spawns a localhost fleet sized from ``max_workers``, which is what makes
    ``mode="distributed"`` a drop-in replacement on one box.  Several
    threads may run batches at once: each lease carries its batch, and idle
    workers go to whichever batch plans next, so a hung task holds only the
    worker running it.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        task_timeout_seconds: float = 10.0,
        resilience: ResilienceConfig | None = None,
        distributed: DistributedConfig | None = None,
    ) -> None:
        """Bind the coordinator socket and start accepting workers.

        Args:
            max_workers: Requested total capacity; sizes the auto-spawned
                localhost fleet (clamped by
                :func:`repro.execution.resolve_workers`).
            task_timeout_seconds: Default per-task sandbox budget.
            resilience: Retry budget / quarantine threshold / chaos, exactly
                as for the local pool.
            distributed: Transport and fleet behaviour; defaults to
                :class:`~repro.config.DistributedConfig`.

        Raises:
            SandboxError: If ``task_timeout_seconds`` is not positive.
        """
        if task_timeout_seconds <= 0:
            raise SandboxError("task_timeout_seconds must be positive")
        self.max_workers = resolve_workers(max_workers)
        self.task_timeout_seconds = float(task_timeout_seconds)
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.distributed = distributed if distributed is not None else DistributedConfig()

        self.tasks_executed = 0
        self.pool_rebuilds = 0  # localhost fleet workers respawned
        self.retries = 0  # tasks re-executed after a disruption
        self.quarantined = 0
        self.leases_issued = 0
        self.requeues = 0  # lease-level requeue events (death / expiry / drop)
        self.rebalances = 0  # membership changes observed during an active batch

        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._fleet_lock = threading.Lock()
        self._workers: dict[str, _WorkerLink] = {}
        self._active_leases: dict[int, _Lease] = {}
        self._active_batches = 0
        self._last_activity = time.monotonic()  # the starvation clock
        self._lease_ids = itertools.count(1)
        self._closed = False
        self._fleet = None
        self._send_retry = RetryPolicy.from_config(self.resilience)

        self._listener = socket.create_server(
            (self.distributed.host, self.distributed.port), backlog=16
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-dist-accept", daemon=True
        )
        self._accept_thread.start()

    # -- addresses / lifecycle ------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The coordinator's bound ``(host, port)``."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    @property
    def connect_address(self) -> str:
        """The ``HOST:PORT`` string workers pass to ``--connect``."""
        host, port = self.address
        return f"{host}:{port}"

    def worker_count(self) -> int:
        """Currently registered (alive) workers."""
        with self._lock:
            return len(self._workers)

    def wait_for_workers(self, count: int, timeout: float) -> bool:
        """Block until at least ``count`` workers have registered.

        Returns:
            Whether ``count`` workers were ready to take leases before
            ``timeout`` seconds passed.
        """
        with self._wake:
            return self._wake.wait_for(
                lambda: sum(link.ready for link in self._workers.values()) >= count, timeout
            )

    def stats(self) -> dict[str, int]:
        """Supervision + distribution counters for ``/v1/stats``.

        The first four keys mirror :meth:`repro.execution.WorkerPool.stats`
        (``pool_rebuilds`` counts localhost fleet respawns); the remaining
        four are the distributed plane's own gauges and counters.
        """
        return {
            "tasks_executed": self.tasks_executed,
            "pool_rebuilds": self.pool_rebuilds,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "workers": self.worker_count(),
            "leases": self.leases_issued,
            "requeues": self.requeues,
            "rebalances": self.rebalances,
        }

    def shutdown(self) -> None:
        """Say GOODBYE to every worker and release all sockets (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            self._workers.clear()
            self._wake.notify_all()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        for link in workers:
            try:
                with link.send_lock:
                    send_frame(link.sock, GoodbyeFrame(reason="coordinator shutting down"))
            except (OSError, RequestError):
                pass
            try:
                link.sock.close()
            except OSError:  # pragma: no cover
                pass
        fleet, self._fleet = self._fleet, None
        if fleet is not None:
            fleet.shutdown()

    def __enter__(self) -> "DistributedPool":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.shutdown()
        except Exception:
            pass

    # -- execution ------------------------------------------------------------------

    def run_batch(
        self,
        target_name: str,
        module_sources: list[str],
        seed: int = 0,
        iterations: int = 25,
        timeout_seconds: float | None = None,
    ) -> list[dict[str, Any]]:
        """Execute every source on the worker fleet, preserving input order.

        The signature, payload dialect, chaos keying, and supervision
        semantics all match :meth:`repro.execution.WorkerPool.run_batch`, so
        results are byte-identical to pooled local execution for the same
        inputs (modulo measured wall-clock fields).

        Args:
            target_name: Registry name of the target system to drive.
            module_sources: Module sources, one task each.
            seed: Workload seed shared by every task.
            iterations: Workload iterations per task.
            timeout_seconds: Per-task override of the pool's default budget
                (already clamped to the request deadline by the engine).

        Returns:
            One payload dict per source, in submission order.

        Raises:
            SandboxError: If the pool is shut down.
        """
        if self._closed:
            raise SandboxError("distributed pool is shut down")
        if not module_sources:
            return []
        timeout = float(timeout_seconds if timeout_seconds is not None else self.task_timeout_seconds)
        batch = SupervisedBatch(
            target_name, module_sources, seed, iterations, timeout,
            self.resilience, plane="distributed", tally=self._tally_locked,
        )
        with self._fleet_lock:
            self._ensure_fleet()
        with self._lock:
            self._active_batches += 1
            self._last_activity = time.monotonic()
        try:
            self._drive(batch, timeout)
        finally:
            with self._lock:
                self._active_batches -= 1
        with self._lock:
            self.tasks_executed += len(module_sources)
        return batch.payloads()

    # -- scheduler loop ---------------------------------------------------------------

    def _drive(self, batch: SupervisedBatch, timeout: float) -> None:
        """The scheduling loop: assign, watch liveness, requeue, repeat."""
        while True:
            stale = self._collect_stale()
            for link in stale:
                self._worker_lost(link, "missed heartbeats / lease expired")
            assignments = self._plan_assignments(batch, timeout)
            for link, lease in assignments:
                self._dispatch_lease(link, lease, batch)
            with self._lock:
                if batch.done():
                    return
                if self._closed:
                    batch.fail_outstanding("coordinator shut down mid-batch")
                    return
                self._wake.wait(timeout=0.05)
            self._maintain_fleet()
            self._check_starvation(batch)

    def _plan_assignments(
        self, batch: SupervisedBatch, timeout: float
    ) -> list[tuple[_WorkerLink, _Lease]]:
        """Carve pending tasks into leases for idle workers (under the lock).

        Suspect tasks — victims of a multi-task lease whose worker died, so
        the killer among them is unknown — always travel alone (see
        :meth:`SupervisedBatch.take`), making any further death attributable.
        """
        assignments: list[tuple[_WorkerLink, _Lease]] = []
        lease_cap = self.distributed.lease_size
        with self._lock:
            for link in sorted(self._workers.values(), key=lambda l: l.worker_id):
                if link.lease is not None or not link.alive or not link.ready:
                    continue
                indices = batch.take(lease_cap if lease_cap > 0 else link.capacity)
                if not indices:
                    continue
                deadline = time.monotonic() + timeout * len(indices) + _LEASE_GRACE_SECONDS
                lease = _Lease(next(self._lease_ids), link, batch, indices, deadline)
                link.lease = lease
                self._active_leases[lease.lease_id] = lease
                self.leases_issued += 1
                assignments.append((link, lease))
        return assignments

    def _dispatch_lease(self, link: _WorkerLink, lease: _Lease, batch: SupervisedBatch) -> None:
        """Send one LEASE frame, retrying transient send failures.

        Sends ride the engine-wide :class:`~repro.resilience.RetryPolicy`
        (deterministic seeded backoff), so a flapping worker connection
        degrades exactly like a crashed local worker: bounded retries, then
        the worker is declared lost and its lease is requeued.
        """
        frame = LeaseFrame(
            lease_id=lease.lease_id,
            tasks=tuple(batch.task(index) for index in lease.indices),
            deadline_seconds=max(lease.deadline - time.monotonic(), 0.001),
        )

        def send() -> None:
            with link.send_lock:
                send_frame(link.sock, frame)

        try:
            self._send_retry.run(send, key=f"distributed:{link.worker_id}", retry_on=(OSError,))
        except (OSError, RequestError):
            self._worker_lost(link, "lease send failed")

    def _collect_stale(self) -> list[_WorkerLink]:
        """Workers whose heartbeats stopped or whose lease ran out of budget."""
        now = time.monotonic()
        horizon = self.distributed.heartbeat_timeout_seconds
        stale: list[_WorkerLink] = []
        with self._lock:
            for link in self._workers.values():
                if link.lease is None:
                    continue
                if now - link.last_seen > horizon or now > link.lease.deadline:
                    stale.append(link)
        return stale

    def _maintain_fleet(self) -> None:
        if self._fleet is not None:
            self.pool_rebuilds += self._fleet.maintain()

    def _check_starvation(self, batch: SupervisedBatch) -> None:
        """Fail outstanding tasks when no worker can ever serve them."""
        wait = self.distributed.worker_wait_seconds
        with self._lock:
            if self._workers or batch.done():
                return
            if time.monotonic() - self._last_activity <= wait:
                return
            batch.fail_outstanding(
                f"no distributed workers available within {wait:g}s; "
                "connect workers with `python -m repro worker --connect "
                f"{self.connect_address}`",
            )
            self._wake.notify_all()

    def _tally_locked(self, counter: str) -> None:
        """Count one requeue or quarantine (batch events run under the lock)."""
        setattr(self, counter, getattr(self, counter) + 1)

    # -- worker events (reader threads) ----------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _address = self._listener.accept()
            except OSError:  # listener closed by shutdown
                return
            threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name="repro-dist-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        """Handshake one peer, then pump its frames until it goes away."""
        link: _WorkerLink | None = None
        try:
            sock.settimeout(_HANDSHAKE_TIMEOUT_SECONDS)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = recv_frame(sock)
            if not isinstance(hello, HelloFrame):
                send_frame(sock, GoodbyeFrame(reason=f"expected hello, got {hello.kind}"))
                sock.close()
                return
            link = self._register(hello, sock)
            if link is None:
                return
            sock.settimeout(None)
            while True:
                frame = recv_frame(sock)
                if not self._on_frame(link, frame):
                    break
        except (ConnectionError, OSError, RequestError):
            pass
        finally:
            if link is not None:
                self._worker_lost(link, "connection closed")
            else:
                try:
                    sock.close()
                except OSError:
                    pass

    def _register(self, hello: HelloFrame, sock: socket.socket) -> _WorkerLink | None:
        with self._lock:
            if self._closed:
                return None
            worker_id = hello.worker_id
            suffix = itertools.count(2)
            while worker_id in self._workers:
                worker_id = f"{hello.worker_id}-{next(suffix)}"
            link = _WorkerLink(worker_id, hello.capacity, sock)
            # Reserve the id now, but leave the link not-ready: the REGISTER
            # reply must hit the wire before the scheduler may send a LEASE,
            # because the worker requires REGISTER as its first frame.
            self._workers[worker_id] = link
        send_frame(
            sock,
            RegisterFrame(
                worker_id=worker_id,
                heartbeat_interval_seconds=self.distributed.heartbeat_interval_seconds,
            ),
        )
        with self._lock:
            if self._closed or self._workers.get(worker_id) is not link:
                return None
            link.ready = True
            if self._active_batches:
                self.rebalances += 1
                self._last_activity = time.monotonic()
            self._wake.notify_all()
        return link

    def _on_frame(self, link: _WorkerLink, frame: Frame) -> bool:
        """Handle one worker frame; returns False when the peer is leaving."""
        if isinstance(frame, HeartbeatFrame):
            with self._lock:
                link.last_seen = time.monotonic()
            return True
        if isinstance(frame, ResultFrame):
            self._on_result(link, frame)
            return True
        if isinstance(frame, GoodbyeFrame):
            return False
        raise RequestError(f"unexpected {frame.kind!r} frame from worker {link.worker_id}")

    def _on_result(self, link: _WorkerLink, frame: ResultFrame) -> None:
        with self._lock:
            link.last_seen = time.monotonic()
            lease = self._active_leases.pop(frame.lease_id, None)
            if lease is None:
                # A lease we already expired and requeued; the re-execution
                # owns the slot now and workloads are deterministic anyway.
                return
            if link.lease is lease:
                link.lease = None
            self._last_activity = time.monotonic()
            for index in lease.indices:
                payload = frame.results.get(str(index))
                if payload is not None:
                    lease.batch.resolve(index, dict(payload))
                else:
                    # Computed-then-lost (a chaos drop): requeue without
                    # charging a worker death.
                    lease.batch.vanished(index)
            self._wake.notify_all()

    def _worker_lost(self, link: _WorkerLink, reason: str) -> None:
        """A worker died, wedged, or left: forget it and requeue its lease."""
        with self._lock:
            if not link.alive:
                return
            link.alive = False
            self._workers.pop(link.worker_id, None)
            lease, link.lease = link.lease, None
            if lease is not None:
                self._active_leases.pop(lease.lease_id, None)
            if self._active_batches:
                self.rebalances += 1
                self._last_activity = time.monotonic()
            if lease is not None and lease.batch.unresolved(lease.indices):
                self.requeues += 1
                # A solo lease makes the death attributable to its one
                # task; a grouped lease only yields suspects.
                for index in lease.indices:
                    lease.batch.died(index, alone=len(lease.indices) == 1)
            self._wake.notify_all()
        try:
            link.sock.close()
        except OSError:
            pass

    # -- localhost fleet ---------------------------------------------------------------

    def _ensure_fleet(self) -> None:
        if self._fleet is not None or not self.distributed.spawn_workers:
            return
        from .launcher import LocalWorkerFleet

        workers = self.distributed.workers or self.max_workers
        self._fleet = LocalWorkerFleet(
            self.connect_address,
            workers=workers,
            capacity=self.distributed.worker_capacity,
        )
        self._fleet.start()
