"""BENCH_HTTP_SERVING — concurrent HTTP clients vs the serial legacy API.

The HTTP/JSON front-end exists so out-of-process clients get the same
continuous-batching wins as in-process ``submit()`` callers.  This benchmark
pins that: an actual ``python -m repro serve`` process is spawned (the real
deployment artifact, not an in-process shortcut), ``CLIENT_THREADS``
concurrent HTTP clients submit generate+execute requests asynchronously
(``POST /v1/generate?async=1``) and poll their tickets — the full network
round trip a serving deployment pays — and the wall clock is compared with
the same workload run serially through the deprecated blocking
:class:`NeuralFaultInjector` surface (one generation pass and one
fresh-interpreter subprocess run per request, its documented defaults).

Two invariants are enforced:

* throughput — the concurrent HTTP path must be >= 3x the serial legacy
  path;
* byte identity — for every request, the deterministic payload fields that
  travel over the wire (fault, strategy, logprob, outcome minus wall-clock)
  must serialize to exactly the same JSON bytes as a payload built from the
  legacy path's candidate and outcome.  HTTP serving must not buy drift.

``BENCH_QUICK=1`` shrinks the request count for CI smoke runs.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

from repro import NeuralFaultInjector, PipelineConfig
from repro.api import GeneratePayload
from repro.config import ExecutionConfig, IntegrationConfig
from repro.targets import get_target

from conftest import write_result

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

BANK_SCENARIOS = [
    "Simulate a timeout in the transfer function causing an unhandled exception",
    "Make the withdraw function silently swallow errors instead of raising them",
    "Remove the overdraft validation check from withdraw",
    "Silently corrupt the amount returned by the transfer function",
    "Make transfer return a wrong value without raising",
    "Raise an unexpected exception in deposit when the amount is small",
    "Invert the overdraft condition in withdraw",
    "Swallow the gateway error raised during transfer",
    "Introduce a delay into apply_interest that slows every statement run",
    "Make deposit double-count the amount occasionally",
]
KVSTORE_SCENARIOS = [
    "Simulate a timeout in the put function causing an unhandled exception",
    "Make the get function silently swallow errors instead of raising them",
    "Silently corrupt the value returned by the get function",
    "Raise an unexpected exception in delete when the key is missing",
    "Make the compact function return a wrong value without raising",
    "Remove the validation check from put",
]

REQUEST_COUNT = 6 if QUICK else 24
CLIENT_THREADS = 2 if QUICK else 4
MIN_SPEEDUP = 3.0
POLL_INTERVAL_SECONDS = 0.02


def _workload() -> list[tuple[str, str]]:
    """(description, target) pairs: distinct requests across two targets."""
    pairs = [(text, "bank") for text in BANK_SCENARIOS] + [
        (text, "kvstore") for text in KVSTORE_SCENARIOS
    ]
    while len(pairs) < REQUEST_COUNT:
        pairs = pairs + pairs
    return pairs[:REQUEST_COUNT]


def _config() -> PipelineConfig:
    return PipelineConfig(
        integration=IntegrationConfig(workload_iterations=25, test_timeout_seconds=5),
        execution=ExecutionConfig(max_workers=2, default_mode="pool"),
    )


def _canonical_payload(payload: dict) -> str:
    """Wire payload → canonical JSON of its deterministic fields only.

    Serving observations are excluded: ``batch_size`` (how many requests
    shared the forward pass), the outcome's measured ``duration_seconds``,
    and ``details.mode`` (which sandbox flavour the scheduler picked — the
    legacy path's documented default is ``subprocess``, the server runs
    ``pool``).  Everything else — the fault, strategy, logprobs, activation,
    failure mode, execution details — must be byte-identical between paths.
    """
    data = dict(payload)
    data.pop("batch_size", None)
    if data.get("outcome"):
        outcome = {k: v for k, v in data["outcome"].items() if k != "duration_seconds"}
        if isinstance(outcome.get("details"), dict):
            details = {k: v for k, v in outcome["details"].items() if k != "mode"}
            if isinstance(details.get("reason"), str):
                # Degraded-mode reasons embed measured durations ("run took
                # 0.405s versus a baseline of 0.002s") — mask the numbers,
                # keep the text.
                details["reason"] = re.sub(r"\d+(?:\.\d+)?s\b", "<wall-clock>s", details["reason"])
            outcome["details"] = details
        data["outcome"] = outcome
    return json.dumps(data, sort_keys=True)


def _serial_legacy(workload, execute: bool):
    """One blocking client on the deprecated surface, old-API defaults."""
    payloads = []
    with NeuralFaultInjector(_config()) as injector:
        sources = {name: get_target(name).build_source() for name in ("bank", "kvstore")}
        started = time.perf_counter()
        for description, target in workload:
            spec, context = injector.define_fault(description, code=sources[target])
            prompt = injector.build_prompt(spec, context)
            candidate = injector.generate_fault(prompt)
            outcome = None
            if execute:
                outcome = injector.integrate_and_test(
                    candidate.fault, target, mode="subprocess"
                ).outcome
            payloads.append(
                _canonical_payload(
                    GeneratePayload.from_candidate(candidate, outcome=outcome).to_dict()
                )
            )
        elapsed = time.perf_counter() - started
    return elapsed, payloads


def _spawn_server() -> tuple[subprocess.Popen, str]:
    """Start ``python -m repro serve`` on an ephemeral port and return its URL."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--mode",
            "pool",
            "--max-workers",
            "2",
        ],
        stderr=subprocess.PIPE,
        text=True,
    )
    # The banner may be preceded by interpreter/library warnings on stderr;
    # scan until it appears (EOF means the process died before serving).
    seen: list[str] = []
    while True:
        line = process.stderr.readline()
        if not line:
            process.kill()
            raise RuntimeError(f"server did not start; stderr was {seen!r}")
        if "serving on " in line:
            return process, line.split("serving on ")[1].split(" ")[0]
        seen.append(line.rstrip())


def _http(connection: http.client.HTTPConnection, method: str, path: str, body=None):
    """One HTTP exchange over a persistent connection → (status, JSON body)."""
    payload = json.dumps(body).encode("utf-8") if body is not None else None
    connection.request(method, path, body=payload, headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def _concurrent_http(url: str, workload, execute: bool, tag: str):
    """CLIENT_THREADS HTTP clients against the spawned server.

    Execute requests go through the asynchronous surface (``POST
    /v1/generate?async=1`` + ticket polling) — sandbox runs take long enough
    that holding an HTTP response open per request would serialize on the
    connection, and polling overhead is noise next to execution time.
    Generation-only requests use the blocking ``POST /v1/generate``: decoding
    is milliseconds, so the poll interval would dominate the measurement and
    hide the batching win the scheduler actually delivers.
    """
    host_port = url.removeprefix("http://")
    host, port = host_port.rsplit(":", 1)
    bodies = [
        {
            "description": description,
            "target": target,
            "execute": execute,
            "mode": "pool" if execute else None,
            "request_id": f"{tag}-{index}",
        }
        for index, (description, target) in enumerate(workload)
    ]
    payloads: list[str | None] = [None] * len(bodies)
    errors: list[str] = []

    def client(offset: int) -> None:
        connection = http.client.HTTPConnection(host, int(port), timeout=120)
        try:
            mine = list(range(offset, len(bodies), CLIENT_THREADS))
            if not execute:
                for index in mine:
                    status, envelope = _http(
                        connection, "POST", "/v1/generate", bodies[index]
                    )
                    if status != 200 or envelope["status"] != "ok":
                        errors.append(f"generate {index}: HTTP {status} {envelope}")
                        return
                    payloads[index] = _canonical_payload(envelope["payload"])
                return
            for index in mine:
                status, ticket = _http(
                    connection, "POST", "/v1/generate?async=1", bodies[index]
                )
                if status != 202:
                    errors.append(f"submit {index}: HTTP {status} {ticket}")
                    return
            for index in mine:
                while True:
                    status, envelope = _http(
                        connection, "GET", f"/v1/requests/{tag}-{index}"
                    )
                    if status == 202:
                        time.sleep(POLL_INTERVAL_SECONDS)
                        continue
                    if status != 200 or envelope["status"] != "ok":
                        errors.append(f"poll {index}: HTTP {status} {envelope}")
                        return
                    payloads[index] = _canonical_payload(envelope["payload"])
                    break
        finally:
            connection.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    assert not errors, errors
    assert all(payload is not None for payload in payloads)
    return elapsed, payloads


def test_http_serving_throughput():
    workload = _workload()
    process, url = _spawn_server()
    try:
        # Warm the per-target worker pools outside the timed region (the
        # serial path's interpreter is likewise already warm); deployments
        # pay pool startup once per process, not per burst.
        _concurrent_http(url, [(workload[0][0], "bank"), (workload[0][0], "kvstore")],
                         execute=True, tag="warm")

        concurrent_seconds, concurrent_payloads = _concurrent_http(
            url, workload, execute=True, tag="bench"
        )
        gen_concurrent_seconds, gen_concurrent_payloads = _concurrent_http(
            url, workload, execute=False, tag="gen"
        )

        connection = http.client.HTTPConnection(
            url.removeprefix("http://").rsplit(":", 1)[0],
            int(url.rsplit(":", 1)[1]),
            timeout=30,
        )
        _, stats = _http(connection, "GET", "/v1/stats")
        connection.close()
    finally:
        process.send_signal(signal.SIGINT)
        exit_code = process.wait(timeout=60)
    assert exit_code == 0, f"server did not drain cleanly (exit {exit_code})"

    serial_seconds, serial_payloads = _serial_legacy(workload, execute=True)
    gen_serial_seconds, gen_serial_payloads = _serial_legacy(workload, execute=False)

    # Byte identity: HTTP serving must not change a single deterministic
    # payload byte relative to the legacy blocking path.
    assert concurrent_payloads == serial_payloads
    assert gen_concurrent_payloads == gen_serial_payloads

    speedup = serial_seconds / concurrent_seconds
    generation_speedup = gen_serial_seconds / gen_concurrent_seconds
    batch_sizes = [b["size"] for b in stats["scheduler"]["batches"] if b["kind"] == "generate"]

    payload = {
        "quick": QUICK,
        "requests": len(workload),
        "client_threads": CLIENT_THREADS,
        "min_speedup": MIN_SPEEDUP,
        "serving": {
            "serial_legacy_seconds": round(serial_seconds, 3),
            "concurrent_http_seconds": round(concurrent_seconds, 3),
            "speedup": round(speedup, 2),
            "serial_rps": round(len(workload) / serial_seconds, 2),
            "concurrent_rps": round(len(workload) / concurrent_seconds, 2),
        },
        "generation_only": {
            "serial_legacy_seconds": round(gen_serial_seconds, 3),
            "concurrent_http_seconds": round(gen_concurrent_seconds, 3),
            "speedup": round(generation_speedup, 2),
        },
        "scheduler_batch_sizes": batch_sizes,
        "server_requests_total": stats["server"]["requests_total"],
    }
    table_rows = [
        f"{'workload':<18} {'serial (s)':>11} {'http (s)':>10} {'speedup':>8}",
        f"{'generate+execute':<18} {serial_seconds:>11.3f} {concurrent_seconds:>10.3f} {speedup:>7.1f}x",
        f"{'generate only':<18} {gen_serial_seconds:>11.3f} {gen_concurrent_seconds:>10.3f} {generation_speedup:>7.1f}x",
        f"scheduler batches: {batch_sizes}",
    ]
    write_result("http_serving", payload, table="\n".join(table_rows))

    assert speedup >= MIN_SPEEDUP, (
        f"concurrent HTTP serving speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor"
    )
