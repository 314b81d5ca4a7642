"""Talk to the HTTP/JSON serving front-end from plain stdlib clients.

By default this script starts its own server on an ephemeral port (so it is
self-contained); point ``--url`` at a running ``python -m repro serve`` to
use an external one.  It demonstrates the three client patterns from
docs/SERVING.md:

* synchronous ``POST /v1/generate`` — block for the response envelope;
* asynchronous ``POST /v1/generate?async=1`` + ``GET /v1/requests/<id>`` —
  submit a burst from several client threads, poll the tickets (the burst
  coalesces in the engine's continuous-batching scheduler);
* ``GET /v1/stats`` — observe the batching that served the burst.

Wire JSON is decoded through the typed codecs — ``Response.from_dict`` for
envelopes and ``StatsSnapshot.from_dict`` for the stats document — so a typo
in a field name fails loudly instead of returning ``None``.

Run with:
    PYTHONPATH=src python examples/http_client.py
"""

from __future__ import annotations

import argparse
import json
import threading
import time
import urllib.request

from repro.api import Response, StatsSnapshot

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


def call(url: str, path: str, body: dict | None = None) -> tuple[int, dict]:
    """One JSON exchange: POST when ``body`` is given, GET otherwise."""
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None, help="base URL of a running server")
    args = parser.parse_args()

    server = None
    url = args.url
    if url is None:
        from repro import PipelineConfig, ServerConfig
        from repro.config import EngineConfig
        from repro.server import serve

        server = serve(
            config=PipelineConfig(engine=EngineConfig(max_queue_delay_seconds=0.02)),
            server_config=ServerConfig(port=0),
        )
        url = server.url
        print(f"started embedded server on {url}")

    try:
        # 1. Synchronous: one request, one typed envelope.
        status, body = call(
            url, "/v1/generate", {"description": SCENARIOS[0][0], "target": "bank"}
        )
        envelope = Response.from_dict(body)
        payload = envelope.payload
        print(f"sync HTTP {status}: {payload['fault']['fault_id']} ({payload['strategy']})")

        # 2. Asynchronous burst from CLIENTS threads, then poll the tickets.
        def submit(offset: int) -> None:
            for index in range(offset, len(SCENARIOS), CLIENTS):
                description, target = SCENARIOS[index]
                call(
                    url,
                    "/v1/generate?async=1",
                    {"description": description, "target": target, "request_id": f"burst-{index}"},
                )

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(len(SCENARIOS)):
            while True:
                status, body = call(url, f"/v1/requests/burst-{index}")
                if status == 200:
                    break
                time.sleep(0.02)
            envelope = Response.from_dict(body)
            print(f"burst-{index}: {envelope.payload['fault']['fault_id']}")

        # 3. Serving observability, decoded into the typed stats document.
        _, body = call(url, "/v1/stats")
        stats = StatsSnapshot.from_dict(body)
        sizes = [b["size"] for b in stats.scheduler["batches"] if b["kind"] == "generate"]
        print(f"requests_total={stats.server['requests_total']} generate-batches={sizes}")
    finally:
        if server is not None:
            server.close()
            print("embedded server drained and closed")


if __name__ == "__main__":
    main()
