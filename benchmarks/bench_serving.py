"""BENCH_SERVING — concurrent clients through the engine vs the old blocking API.

The service-layer redesign exists so many clients can share one pipeline
stack: the continuous-batching scheduler coalesces concurrent
:class:`GenerateRequest` submissions into single batched forward passes and
pooled sandbox batches, where the old :class:`NeuralFaultInjector` surface
served every caller with blocking per-call methods (one generation pass and
one fresh-interpreter subprocess run per request — its documented defaults).

Two workloads are timed over the same request list (distinct descriptions
across two targets, each request asking for generation *and* execution — the
full Fig. 1 pass a serving deployment performs per request):

* ``serial-old-api`` — requests handled one at a time through the old
  blocking surface: ``inject()`` then ``integrate_and_test()`` per request;
* ``concurrent-engine`` — the same requests submitted by ``CLIENT_THREADS``
  concurrent client threads to one :class:`FaultInjectionEngine` (pool
  execution), gathered from response handles.

The concurrent path must be >= 3x the serial old-API throughput AND produce
identical faults and outcomes (ids, activation, failure modes) — batching
must not buy drift.  A generation-only comparison (no execution) is also
recorded for visibility into the model-side batching win.  ``BENCH_QUICK=1``
shrinks the request count for CI smoke runs.
"""

from __future__ import annotations

import os
import threading
import time

from repro import FaultInjectionEngine, GenerateRequest, NeuralFaultInjector, PipelineConfig
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


def _fingerprint(fault, outcome) -> tuple:
    """Order-insensitive determinism key, excluding wall-clock noise."""
    if outcome is None:
        return (fault.fault_id, fault.actions.get("template"), None, None)
    return (
        fault.fault_id,
        fault.actions.get("template"),
        outcome.activated,
        outcome.failure_mode.value,
    )


def _serial_old_api(workload, execute: bool):
    """One blocking client on the deprecated surface, old-API defaults."""
    results = []
    with NeuralFaultInjector(_config()) as injector:
        sources = {name: get_target(name).build_source() for name in ("bank", "kvstore")}
        started = time.perf_counter()
        for description, target in workload:
            fault = injector.inject(description, code=sources[target])
            outcome = None
            if execute:
                outcome = injector.integrate_and_test(fault, target, mode="subprocess").outcome
            results.append(_fingerprint(fault, outcome))
        elapsed = time.perf_counter() - started
    return elapsed, results


def _concurrent_engine(workload, execute: bool):
    """CLIENT_THREADS concurrent clients sharing one engine via the scheduler."""
    requests = [
        GenerateRequest(
            description=description,
            target=target,
            execute=execute,
            mode="pool" if execute else None,
            request_id=f"bench-{index}",
        )
        for index, (description, target) in enumerate(workload)
    ]
    with FaultInjectionEngine(_config()) as engine:
        # Warm the worker pools outside the timed region (the serial path's
        # interpreter is likewise already warm); serving deployments pay pool
        # startup once per process, not per burst.
        if execute:
            for name in ("bank", "kvstore"):
                engine.run(
                    GenerateRequest(
                        description=workload[0][0], target=name, execute=True, mode="pool"
                    )
                )
        handles = [None] * len(requests)
        started = time.perf_counter()

        def client(offset: int) -> None:
            for index in range(offset, len(requests), CLIENT_THREADS):
                handles[index] = engine.submit(requests[index])

        threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENT_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        responses = [handle.result(timeout=300) for handle in handles]
        elapsed = time.perf_counter() - started
        stats = engine.serving_stats()
    results = []
    for response in responses:
        assert response.ok, response.error
        payload = response.payload
        results.append(_fingerprint(payload.fault, payload.outcome))
    return elapsed, results, stats


def test_serving_throughput():
    workload = _workload()

    serial_seconds, serial_results = _serial_old_api(workload, execute=True)
    concurrent_seconds, concurrent_results, stats = _concurrent_engine(workload, execute=True)
    speedup = serial_seconds / concurrent_seconds

    gen_serial_seconds, gen_serial_results = _serial_old_api(workload, execute=False)
    gen_concurrent_seconds, gen_concurrent_results, _ = _concurrent_engine(workload, execute=False)
    generation_speedup = gen_serial_seconds / gen_concurrent_seconds

    # Determinism: batching must not change a single fault or outcome.
    assert concurrent_results == serial_results
    assert gen_concurrent_results == gen_serial_results

    generate_batches = [b["size"] for b in stats["batches"] if b["kind"] == "generate"]
    payload = {
        "quick": QUICK,
        "requests": len(workload),
        "client_threads": CLIENT_THREADS,
        "min_speedup": MIN_SPEEDUP,
        "serving": {
            "serial_old_api_seconds": round(serial_seconds, 3),
            "concurrent_engine_seconds": round(concurrent_seconds, 3),
            "speedup": round(speedup, 2),
            "serial_rps": round(len(workload) / serial_seconds, 2),
            "concurrent_rps": round(len(workload) / concurrent_seconds, 2),
        },
        "generation_only": {
            "serial_old_api_seconds": round(gen_serial_seconds, 3),
            "concurrent_engine_seconds": round(gen_concurrent_seconds, 3),
            "speedup": round(generation_speedup, 2),
        },
        "scheduler_batch_sizes": generate_batches,
    }
    table_rows = [
        f"{'workload':<18} {'serial (s)':>11} {'concurrent (s)':>15} {'speedup':>8}",
        f"{'generate+execute':<18} {serial_seconds:>11.3f} {concurrent_seconds:>15.3f} {speedup:>7.1f}x",
        f"{'generate only':<18} {gen_serial_seconds:>11.3f} {gen_concurrent_seconds:>15.3f} {generation_speedup:>7.1f}x",
        f"scheduler batches: {generate_batches}",
    ]
    write_result("serving", payload, table="\n".join(table_rows))

    assert speedup >= MIN_SPEEDUP, (
        f"concurrent serving speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor"
    )
