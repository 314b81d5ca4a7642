"""Serve concurrent clients through the typed service layer.

Four client threads submit generate+execute requests to one shared
:class:`FaultInjectionEngine`; the continuous-batching scheduler coalesces
their work into batched forward passes and pooled sandbox batches, and each
client gets back a versioned response envelope.  The CLI equivalent of one
of these requests is::

    python -m repro generate --target bank --execute --mode pool \
        --description "Simulate a timeout in the transfer function" --json

Run with:
    PYTHONPATH=src python examples/serving_engine.py
"""

from __future__ import annotations

import threading

from repro import FaultInjectionEngine, GenerateRequest, PipelineConfig
from repro.config import ExecutionConfig

SCENARIOS = [
    ("Simulate a timeout in the transfer function causing an unhandled exception", "bank"),
    ("Make the withdraw function silently swallow errors instead of raising them", "bank"),
    ("Silently corrupt the amount returned by the transfer function", "bank"),
    ("Remove the overdraft validation check from withdraw", "bank"),
    ("Simulate a timeout in the put function causing an unhandled exception", "kvstore"),
    ("Make the get function silently swallow errors instead of raising them", "kvstore"),
    ("Silently corrupt the value returned by the get function", "kvstore"),
    ("Raise an unexpected exception in delete when the key is missing", "kvstore"),
]
CLIENTS = 4


def main() -> None:
    config = PipelineConfig(execution=ExecutionConfig(max_workers=2, default_mode="pool"))
    with FaultInjectionEngine(config) as engine:
        requests = [
            GenerateRequest(
                description=text, target=target, execute=True, request_id=f"client-{index}"
            )
            for index, (text, target) in enumerate(SCENARIOS)
        ]
        handles = [None] * len(requests)

        def client(offset: int) -> None:
            for index in range(offset, len(requests), CLIENTS):
                handles[index] = engine.submit(requests[index])

        threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for handle in handles:
            response = handle.result(timeout=120)
            if not response.ok:
                print(f"[{response.request_id}] ERROR {response.error.type}: {response.error.message}")
                continue
            payload = response.payload
            print(
                f"[{response.request_id}] {payload.fault.fault_id} "
                f"template={payload.fault.actions.get('template')} "
                f"failure={payload.outcome.failure_mode.value} "
                f"batch={payload.batch_size} "
                f"({response.timings.total_seconds * 1000:.0f}ms)"
            )

        sizes = [b["size"] for b in engine.serving_stats()["batches"] if b["kind"] == "generate"]
        print(f"scheduler generate-batch sizes: {sizes}")


if __name__ == "__main__":
    main()
