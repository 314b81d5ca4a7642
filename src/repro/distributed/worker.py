"""The remote sandbox worker: ``python -m repro worker --connect HOST:PORT``.

A :class:`RemoteWorker` dials the coordinator, announces its capacity with a
HELLO frame, and then serves LEASE frames until the coordinator says GOODBYE
(or the connection drops).  Leased tasks run on a local
:class:`~repro.execution.WorkerPool` whose payloads travel back unchanged, so
every isolation property of local pooled execution — per-task ``SIGALRM``
budgets, requeue-on-death supervision of the inner pool, poison-task
quarantine and its ``"quarantined": true`` flag — holds on the remote side;
the worker only adds the network hop.

While a lease executes, a background thread heartbeats the coordinator every
``heartbeat_interval_seconds`` (assigned by the REGISTER frame), which is how
a wedged or killed worker is detected and its lease requeued.

Worker-plane self-chaos (:mod:`repro.resilience.chaos`) is acted out *here*,
at the process boundary the distributed plane adds: a scheduled ``crash``
SIGKILLs this whole worker process (the localhost fleet then reaps the
sandbox children left in its process group), a ``delay`` stalls before
execution, and a
``drop`` silently omits the computed result from the RESULT frame.  Decisions
are the same pure ``(seed, key, attempt)`` hashes as local chaos and fire
only on attempt 0, so supervised requeues always converge on clean results.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from typing import Any, Mapping

from ..config import IntegrationConfig
from ..errors import RequestError, SandboxError
from ..execution.pool import WorkerPool
from ..resilience.chaos import CRASH, DELAY, DROP, should_inject
from .protocol import (
    GoodbyeFrame,
    HeartbeatFrame,
    HelloFrame,
    LeaseFrame,
    RegisterFrame,
    ResultFrame,
    recv_frame,
    send_frame,
)

#: How often a worker retries the initial connect (coordinator may still be
#: binding when the launcher spawns the fleet).
_CONNECT_ATTEMPTS = 20
_CONNECT_BACKOFF_SECONDS = 0.25


def default_worker_id() -> str:
    """A reasonably unique worker identity: ``host-pid``."""
    return f"{socket.gethostname()}-{os.getpid()}"


class RemoteWorker:
    """One remote sandbox worker process serving leases from a coordinator."""

    def __init__(
        self,
        host: str,
        port: int,
        max_workers: int = 1,
        worker_id: str | None = None,
        integration: IntegrationConfig | None = None,
    ) -> None:
        """Configure the worker; nothing connects until :meth:`run`.

        Args:
            host: Coordinator address to dial.
            port: Coordinator port.
            max_workers: Inner sandbox pool size — the capacity this worker
                advertises in its HELLO frame.
            worker_id: Stable identity; defaults to ``host-pid``.  The
                coordinator may uniquify it in the REGISTER reply.
            integration: Supplies the default task budget,
                ``test_timeout_seconds``; per-lease task timeouts override
                it.

        Raises:
            SandboxError: If ``max_workers`` is not positive.
        """
        if max_workers <= 0:
            raise SandboxError("max_workers must be positive")
        self.host = host
        self.port = int(port)
        self.capacity = int(max_workers)
        self.worker_id = worker_id or default_worker_id()
        # The inner pool supervises itself but never injects chaos (it keeps
        # the default resilience): the coordinator schedules chaos at the
        # worker-process level and double application would break the
        # attempt-0-only guarantee.
        self._pool = WorkerPool(
            max_workers=self.capacity,
            task_timeout_seconds=(integration or IntegrationConfig()).test_timeout_seconds,
        )
        self._sock: socket.socket | None = None
        self._send_lock = threading.Lock()
        self._heartbeat_interval = 1.0
        self.leases_served = 0
        self.tasks_executed = 0

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release the socket and the inner sandbox pool (idempotent)."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._pool.shutdown()

    def __enter__(self) -> "RemoteWorker":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -- main loop ----------------------------------------------------------------

    def connect(self) -> None:
        """Dial the coordinator and complete the HELLO/REGISTER handshake.

        Raises:
            ConnectionError: If the coordinator cannot be reached after
                bounded retries, or rejects the handshake.
        """
        last_error: Exception | None = None
        for attempt in range(_CONNECT_ATTEMPTS):
            try:
                self._sock = socket.create_connection((self.host, self.port), timeout=10.0)
                break
            except OSError as exc:
                last_error = exc
                time.sleep(_CONNECT_BACKOFF_SECONDS)
        else:
            raise ConnectionError(
                f"cannot reach coordinator at {self.host}:{self.port}: {last_error}"
            )
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_frame(self._sock, HelloFrame(worker_id=self.worker_id, capacity=self.capacity))
        frame = recv_frame(self._sock)
        if not isinstance(frame, RegisterFrame):
            raise ConnectionError(
                f"coordinator answered HELLO with {frame.kind!r}, expected 'register'"
            )
        self.worker_id = frame.worker_id
        self._heartbeat_interval = float(frame.heartbeat_interval_seconds)

    def run(self) -> int:
        """Serve leases until GOODBYE or disconnect; returns an exit code.

        Returns:
            0 after a graceful GOODBYE (either side), 1 when the connection
            was lost unexpectedly.
        """
        try:
            self.connect()
        except (ConnectionError, RequestError):
            self.close()
            raise
        code = 1
        try:
            while True:
                try:
                    frame = recv_frame(self._sock)
                except (ConnectionError, OSError):
                    break
                if isinstance(frame, LeaseFrame):
                    self._serve_lease(frame)
                elif isinstance(frame, GoodbyeFrame):
                    code = 0
                    break
                # Heartbeats from the coordinator are not part of the
                # protocol; anything else was already rejected by the codec.
        finally:
            self.close()
        return code

    # -- lease execution ----------------------------------------------------------

    def _serve_lease(self, lease: LeaseFrame) -> None:
        """Execute one lease and report a RESULT frame, heartbeating throughout."""
        stop = threading.Event()
        beater = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease.lease_id, stop),
            name=f"heartbeat-{self.worker_id}",
            daemon=True,
        )
        beater.start()
        try:
            results = self._execute_tasks(list(lease.tasks))
        finally:
            stop.set()
            beater.join(timeout=self._heartbeat_interval * 2)
        self.leases_served += 1
        self.tasks_executed += len(results)
        self._send(ResultFrame(lease_id=lease.lease_id, results=results))

    def _heartbeat_loop(self, lease_id: int, stop: threading.Event) -> None:
        while not stop.wait(self._heartbeat_interval):
            try:
                self._send(HeartbeatFrame(worker_id=self.worker_id, lease_id=lease_id))
            except OSError:  # coordinator went away; the main loop will notice
                return

    def _execute_tasks(self, tasks: list[Mapping[str, Any]]) -> dict[str, dict[str, Any]]:
        """Run a lease's tasks on the inner pool, acting out chaos.

        Returns:
            ``task_id -> payload`` for every task that produced a result;
            chaos-dropped tasks are omitted so the coordinator requeues them.
        """
        dropped: set[str] = set()
        for task in tasks:
            self._apply_chaos(task, dropped)
        results: dict[str, dict[str, Any]] = {}
        # Group by everything except the source so one lease becomes as few
        # sandbox batches as possible (leases are per-target in practice).
        groups: dict[tuple, list[Mapping[str, Any]]] = {}
        for task in tasks:
            key = (
                str(task.get("target")),
                int(task.get("seed", 0)),
                int(task.get("iterations", 1)),
                float(task.get("timeout_seconds") or 0.0) or None,
            )
            groups.setdefault(key, []).append(task)
        for (target, seed, iterations, timeout), members in groups.items():
            try:
                payloads = self._pool.run_batch(
                    target,
                    [str(task.get("source", "")) for task in members],
                    seed=seed,
                    iterations=iterations,
                    timeout_seconds=timeout,
                )
            except Exception as exc:  # noqa: BLE001 - a lease must never kill the worker
                payloads = [{"status": "error", "error": f"{type(exc).__name__}: {exc}"} for _ in members]
            for task, payload in zip(members, payloads):
                task_id = str(task["task_id"])
                if task_id not in dropped:
                    results[task_id] = payload
        return results

    def _apply_chaos(self, task: Mapping[str, Any], dropped: set[str]) -> None:
        """Act out the chaos the coordinator scheduled for one task.

        A ``crash`` shuts the inner sandbox pool down and then SIGKILLs the
        worker — from the coordinator's side an abrupt connection loss,
        exactly like a machine death.
        """
        payload = task.get("chaos")
        if not payload:
            return
        from ..config import ChaosConfig

        config = ChaosConfig(**dict(payload))
        key = str(task.get("chaos_key", ""))
        attempt = int(task.get("attempt", 0))
        if should_inject(config, key, DELAY, attempt):
            time.sleep(config.task_delay_seconds)
        if should_inject(config, key, CRASH, attempt):
            self._pool.shutdown()
            os.kill(os.getpid(), signal.SIGKILL)
        if should_inject(config, key, DROP, attempt):
            dropped.add(str(task["task_id"]))

    def _send(self, frame) -> None:
        with self._send_lock:
            if self._sock is None:
                raise OSError("worker socket is closed")
            send_frame(self._sock, frame)


def run_worker(
    connect: str,
    max_workers: int = 1,
    worker_id: str | None = None,
) -> int:
    """Entry point behind ``python -m repro worker`` — serve until GOODBYE.

    Args:
        connect: Coordinator address as ``HOST:PORT``.
        max_workers: Inner sandbox pool size (advertised capacity).
        worker_id: Stable identity override.

    Returns:
        The worker's exit code (0 on graceful shutdown).
    """
    from .launcher import parse_address

    host, port = parse_address(connect)
    worker = RemoteWorker(host, port, max_workers=max_workers, worker_id=worker_id)
    return worker.run()
