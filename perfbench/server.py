"""Lifecycle of one ``repro serve`` process: spawn, readiness, memory, drain.

The server runs in its own session with stdout/stderr sent to a log file,
never to a pipe nobody reads: in-process and pool mutants print to the
server's stdout, and a full pipe would stall the server.  Readiness is the
``serving on`` banner in that log, then ``GET /healthz`` answering 200.
:meth:`ServerProcess.stop` drains with SIGINT; the drain only counts as
clean when the server exits 0 and no process of its session outlives it
(leftovers are killed so the benchmark never leaks processes).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time

BANNER = "serving on "
READY_TIMEOUT_SECONDS = 120.0
DRAIN_TIMEOUT_SECONDS = 90.0


def session_members(session_id: int) -> list[int]:
    """Live pids whose session is ``session_id`` (the server's own pid)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the ")" that closes comm: state, ppid, pgrp, session, ...
        if fields[0] != "Z" and int(fields[3]) == session_id:
            members.append(int(entry))
    return members


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set size (``VmHWM``) of ``pid`` in KiB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServerProcess:
    """One spawned server, plain (``python -m repro serve``) or traced."""

    def __init__(self, root: str, workdir: str, name: str, spans_path: str | None = None) -> None:
        self.root = root
        self.workdir = workdir
        self.log_path = os.path.join(workdir, f"{name}.log")
        self.spans_path = spans_path
        self.process: subprocess.Popen | None = None
        self.host = ""
        self.port = 0

    def start(self) -> None:
        tmp = os.path.join(self.workdir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        # Sandbox scratch files stay inside the checkout.
        env["TMPDIR"] = tmp
        serve = ["serve", "--port", "0"]
        if self.spans_path is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_serve.py")
            command = [sys.executable, launcher, "--spans", self.spans_path, "--", *serve]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )

    def wait_ready(self) -> None:
        """Block until the banner is logged and ``/healthz`` answers 200."""
        deadline = time.monotonic() + READY_TIMEOUT_SECONDS
        while not self.port:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}: {self._log_tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"server printed no banner: {self._log_tail()}")
            with open(self.log_path, encoding="utf-8", errors="replace") as stream:
                for line in stream:
                    if BANNER in line:
                        url = line.split(BANNER, 1)[1].split()[0]
                        host, port = url.removeprefix("http://").rsplit(":", 1)
                        self.host, self.port = host, int(port)
            time.sleep(0.005)
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)

    def connection(self, timeout: float = 120.0) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=timeout)

    def get(self, path: str) -> tuple[int, dict]:
        connection = self.connection(timeout=30.0)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus its live children, in MiB."""
        return sum(vm_hwm_kb(pid) for pid in session_members(self.process.pid)) / 1024.0

    def stop(self) -> list[str]:
        """SIGINT drain; returns the problems seen (empty when clean)."""
        problems = []
        if self.process is None:
            return problems
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=DRAIN_TIMEOUT_SECONDS)
            except subprocess.TimeoutExpired:
                problems.append("server did not drain in time")
        if self.process.returncode != 0:
            problems.append(f"server exited with {self.process.returncode}: {self._log_tail()}")
        leftovers = session_members(self.process.pid)
        if leftovers:
            problems.append(f"processes outlived the drain: {leftovers}")
        self.kill()
        return problems

    def kill(self) -> None:
        """Kill the server's whole session and wait until it is gone."""
        if self.process is None:
            return
        pid = self.process.pid
        if self.process.poll() is None or session_members(pid):
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 30
        while session_members(pid) and time.monotonic() < deadline:
            time.sleep(0.05)

    def _log_tail(self) -> str:
        try:
            with open(self.log_path, encoding="utf-8", errors="replace") as stream:
                return stream.read()[-2000:]
        except OSError:
            return ""
