"""Localhost worker fleets: ``python -m repro launch-workers -n N``.

The launcher is the harness that makes ``mode="distributed"`` usable on a
single box — and testable/benchmarkable without a second machine.
:class:`LocalWorkerFleet` spawns N ``python -m repro worker`` subprocesses
pointed at a coordinator address, watches them, and **respawns** any that die
(a deliberate chaos kill, an OOM, a crash) so capacity recovers — each
respawn is what the coordinator reports as a ``pool_rebuild``.

Each worker runs in its own session, so the sandbox children its inner pool
forks share its process group.  The fleet signals whole groups — when it
reaps a dead worker and when it shuts down — so no sandbox child outlives
the worker that forked it, however that worker died.

The same class backs three surfaces: the coordinator's auto-spawned fleet
(``DistributedConfig.spawn_workers``), the ``launch-workers`` CLI command for
manual topologies, and the differential/benchmark suites.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

from ..errors import ConfigurationError


def parse_address(value: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` connect string.

    Args:
        value: The address, e.g. ``127.0.0.1:7001``.  IPv6 literals use the
            usual bracket form ``[::1]:7001``.

    Returns:
        ``(host, port)``.

    Raises:
        ConfigurationError: If the string has no port, the port is not an
            integer, or it is outside 1–65535.
    """
    text = str(value).strip()
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(f"worker connect address must be HOST:PORT, got {value!r}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"worker connect address port must be an integer, got {port_text!r}"
        ) from None
    if not 1 <= port <= 65535:
        raise ConfigurationError(f"worker connect address port must be 1-65535, got {port}")
    return host, port


def worker_command(connect: str, capacity: int = 1) -> list[str]:
    """The argv that starts one remote worker against ``connect``."""
    return [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--connect",
        connect,
        "--max-workers",
        str(capacity),
    ]


def _worker_environment() -> dict[str, str]:
    """A child environment whose ``PYTHONPATH`` can import :mod:`repro`.

    The fleet must work from a source checkout without installation, so the
    package's own location is prepended to whatever ``PYTHONPATH`` the parent
    already had.
    """
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    parts = [package_root] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class LocalWorkerFleet:
    """N localhost worker subprocesses kept at strength until shutdown."""

    def __init__(self, connect: str, workers: int = 4, capacity: int = 1) -> None:
        """Configure the fleet; nothing spawns until :meth:`start`.

        Args:
            connect: Coordinator ``HOST:PORT`` the workers dial.
            workers: Fleet size to maintain.
            capacity: Inner sandbox pool size per worker.

        Raises:
            ConfigurationError: If ``workers`` or ``capacity`` is not
                positive, or ``connect`` is malformed.
        """
        if workers <= 0:
            raise ConfigurationError("fleet workers must be positive")
        if capacity <= 0:
            raise ConfigurationError("fleet worker capacity must be positive")
        parse_address(connect)  # validate early; workers re-parse at startup
        self.connect = connect
        self.workers = int(workers)
        self.capacity = int(capacity)
        self.respawns = 0
        self._processes: list[subprocess.Popen] = []
        self._closed = False

    def start(self) -> None:
        """Spawn the fleet up to its configured strength (idempotent)."""
        if self._closed:
            raise ConfigurationError("fleet is shut down")
        while len(self._processes) < self.workers:
            self._processes.append(self._spawn())

    def _spawn(self) -> subprocess.Popen:
        return subprocess.Popen(
            worker_command(self.connect, self.capacity),
            env=_worker_environment(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )

    def maintain(self) -> int:
        """Reap dead workers and respawn replacements.

        Returns:
            How many workers were respawned this call — the coordinator
            accumulates this into its ``pool_rebuilds`` counter.
        """
        if self._closed:
            return 0
        survivors = []
        for process in self._processes:
            if process.poll() is None:
                survivors.append(process)
            else:
                _signal_group(process, signal.SIGKILL)  # sandbox children of the dead worker
        respawned = 0
        while len(survivors) < self.workers:
            survivors.append(self._spawn())
            respawned += 1
        self._processes = survivors
        self.respawns += respawned
        return respawned

    def shutdown(self, grace_seconds: float = 2.0) -> None:
        """Stop maintaining the fleet and terminate every worker group (idempotent).

        Every worker's process group gets SIGTERM, then SIGKILL once the
        worker exited or ``grace_seconds`` ran out — including the groups of
        workers that had already died, whose sandbox children may remain.

        Args:
            grace_seconds: How long to wait for SIGTERM before SIGKILL.
        """
        if self._closed:
            return
        self._closed = True
        processes, self._processes = self._processes, []
        for process in processes:
            _signal_group(process, signal.SIGTERM)
        deadline = time.monotonic() + grace_seconds
        for process in processes:
            remaining = deadline - time.monotonic()
            try:
                process.wait(timeout=max(remaining, 0.05))
            except subprocess.TimeoutExpired:
                pass
            _signal_group(process, signal.SIGKILL)
            process.wait()

    def __enter__(self) -> "LocalWorkerFleet":
        self.start()
        return self

    def __exit__(self, *_exc_info) -> None:
        self.shutdown()


def _signal_group(process: subprocess.Popen, signum: int) -> None:
    """Send ``signum`` to the process group ``process`` leads, if any member is left."""
    try:
        os.killpg(process.pid, signum)
    except ProcessLookupError:
        pass


def launch_workers(connect: str, workers: int = 4, capacity: int = 1) -> "LocalWorkerFleet":
    """Entry point behind ``python -m repro launch-workers``.

    Spawns the fleet and returns it; the CLI blocks on it until interrupted.

    Args:
        connect: Coordinator ``HOST:PORT``.
        workers: Fleet size.
        capacity: Inner sandbox pool size per worker.

    Returns:
        The started fleet.
    """
    fleet = LocalWorkerFleet(connect, workers=workers, capacity=capacity)
    fleet.start()
    return fleet
