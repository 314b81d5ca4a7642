"""Command-line interface over the typed service layer.

``python -m repro <command>`` builds a typed request, runs it through a
:class:`~repro.api.FaultInjectionEngine`, and prints either a human-readable
summary or — with ``--json`` — the full versioned response envelope, so the
CLI speaks exactly the same contract as library clients:

* ``python -m repro generate --target bank --description "..."``
* ``python -m repro dataset --target bank --samples 5``
* ``python -m repro campaign --target bank --scenario "..." --scenario "..."``
* ``python -m repro serve --port 8080`` — the HTTP/JSON front-end
  (docs/SERVING.md) speaking the same envelopes over a socket

See docs/API.md for the request/response reference and
``examples/serving_engine.py`` for the library-level equivalent.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterator, Sequence

from .api import CampaignRequest, DatasetRequest, FaultInjectionEngine, GenerateRequest, Response
from .config import PipelineConfig
from .errors import ReproError
from .targets import target_names


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Neural fault injection: generate software faults from natural language.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=None, help="pipeline seed override")
    shared.add_argument("--json", action="store_true", help="print the full response envelope as JSON")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", parents=[shared], help="generate one faulty code snippet")
    generate.add_argument("--description", required=True, help="natural-language fault description")
    generate.add_argument("--target", choices=target_names(), default=None, help="target system")
    generate.add_argument("--code-file", default=None, help="file with explicit target code")
    generate.add_argument("--sample", action="store_true", help="sample instead of greedy decoding")
    generate.add_argument("--temperature", type=float, default=None, help="sampling temperature")
    generate.add_argument("--request-seed", type=int, default=None, help="per-request decode seed")
    generate.add_argument("--execute", action="store_true", help="integrate and test against the target")
    generate.add_argument("--mode", default=None, help="sandbox mode: inprocess|subprocess|pool|distributed")

    dataset = commands.add_parser("dataset", parents=[shared], help="generate an SFI fine-tuning dataset")
    dataset.add_argument("--target", action="append", default=None, help="target name (repeatable)")
    dataset.add_argument("--samples", type=int, default=None, help="samples per target")
    dataset.add_argument("--validate", action="store_true", help="validate candidates in the sandbox")
    dataset.add_argument("--jsonl", default=None, help="stream records to this JSONL file")

    campaign = commands.add_parser("campaign", parents=[shared], help="run the neural-vs-baselines comparison")
    campaign.add_argument("--target", required=True, help="target system the campaign runs against")
    campaign.add_argument("--scenario", action="append", required=True, help="scenario text (repeatable)")
    campaign.add_argument("--technique", action="append", default=None, help="technique (repeatable)")
    campaign.add_argument("--budget", type=int, default=None, help="baseline fault budget")
    campaign.add_argument("--mode", default=None, help="sandbox mode: inprocess|subprocess|pool|distributed")

    serve = commands.add_parser(
        "serve",
        help="serve the engine over HTTP/JSON (see docs/SERVING.md)",
        description=(
            "Serve the engine over HTTP/JSON.  The server flags are aliases "
            "for ServerConfig fields and are applied through the single "
            "validated ServerConfig.from_args entry point; prefer configuring "
            "ServerConfig directly when embedding."
        ),
    )
    serve.add_argument("--seed", type=int, default=None, help="pipeline seed override")
    serve.add_argument(
        "--host", default=None, help="bind address (alias for ServerConfig.host)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port, 0 = ephemeral (alias for ServerConfig.port)",
    )
    serve.add_argument("--mode", default=None, help="default sandbox mode: inprocess|subprocess|pool|distributed")
    serve.add_argument("--max-workers", type=int, default=None, help="sandbox worker pool size")
    serve.add_argument(
        "--chaos",
        type=float,
        default=None,
        metavar="P",
        help=(
            "self-chaos: inject worker crashes, task delays, and dropped results "
            "each with probability P (supervision makes results byte-identical; "
            "see docs/RESILIENCE.md)"
        ),
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=None, help="chaos decision seed (default: 31)"
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help=(
            "admission control: shed request submissions with HTTP 429 while the "
            "scheduler already holds N queued tickets (0 disables shedding; "
            "alias for ServerConfig.max_queue_depth, surfaced on GET /healthz "
            "as queue_depth)"
        ),
    )

    worker = commands.add_parser(
        "worker", help="run one remote sandbox worker (see docs/DISTRIBUTED.md)"
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help=(
            "coordinator address to dial; the worker registers its capacity, "
            "executes leased task batches through the sandbox runner, and "
            "heartbeats while running"
        ),
    )
    worker.add_argument(
        "--max-workers",
        type=int,
        default=1,
        metavar="K",
        help="inner sandbox pool size — the capacity advertised to the coordinator",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity (default: hostname-pid; coordinator may uniquify)",
    )

    launch = commands.add_parser(
        "launch-workers",
        help="spawn and maintain a localhost worker fleet (see docs/DISTRIBUTED.md)",
    )
    launch.add_argument(
        "-n",
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="fleet size to keep at strength (dead workers are respawned)",
    )
    launch.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address every worker dials",
    )
    launch.add_argument(
        "--max-workers",
        type=int,
        default=1,
        metavar="K",
        help="inner sandbox pool size per worker",
    )
    return parser


def _serve_command(args: argparse.Namespace) -> int:
    """Run ``python -m repro serve``: serve until interrupted, then drain."""
    from dataclasses import replace

    from .config import ServerConfig
    from .server import FaultInjectionServer

    try:
        config = PipelineConfig(seed=args.seed) if args.seed is not None else PipelineConfig()
        execution = config.execution
        if args.mode is not None:
            execution = replace(execution, default_mode=args.mode)
        if args.max_workers is not None:
            execution = replace(execution, max_workers=args.max_workers)
        resilience = config.resilience
        if args.chaos is not None:
            from .config import ChaosConfig

            chaos = ChaosConfig(
                enabled=True,
                seed=args.chaos_seed if args.chaos_seed is not None else 31,
                worker_crash_probability=args.chaos,
                task_delay_probability=args.chaos,
                drop_result_probability=args.chaos,
            )
            resilience = replace(resilience, chaos=chaos)
        config = replace(config, execution=execution, resilience=resilience)
        # All server flags funnel through the one validated entry point
        # (the individual flags are aliases for ServerConfig fields).
        server_config = ServerConfig.from_args(args, base=config.server)
        config = replace(config, server=server_config)
        server = FaultInjectionServer(config=config, server_config=server_config)
    except (ReproError, OSError) as exc:
        # OSError covers socket binding (port in use, privileged port).
        print(f"cannot start server: {exc}", file=sys.stderr)
        return 2
    print(f"serving on {server.url} (Ctrl-C to drain and stop)", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining...", file=sys.stderr)
    finally:
        server.close()
    return 0


def _worker_command(args: argparse.Namespace) -> int:
    """Run ``python -m repro worker``: serve leases until GOODBYE."""
    from .distributed import run_worker

    try:
        return run_worker(args.connect, max_workers=args.max_workers, worker_id=args.worker_id)
    except (ReproError, ConnectionError, OSError) as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 2


def _launch_workers_command(args: argparse.Namespace) -> int:
    """Run ``python -m repro launch-workers``: keep a fleet up until Ctrl-C."""
    import time

    from .distributed import launch_workers

    try:
        fleet = launch_workers(args.connect, workers=args.workers, capacity=args.max_workers)
    except (ReproError, OSError) as exc:
        print(f"cannot launch workers: {exc}", file=sys.stderr)
        return 2
    print(
        f"maintaining {fleet.workers} workers (capacity {fleet.capacity}) "
        f"against {fleet.connect} (Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        while True:
            time.sleep(1.0)
            fleet.maintain()
    except KeyboardInterrupt:
        print("stopping workers...", file=sys.stderr)
    finally:
        fleet.shutdown()
    return 0


def _request_from_args(args: argparse.Namespace):
    if args.command == "generate":
        code = None
        if args.code_file:
            with open(args.code_file, "r", encoding="utf-8") as stream:
                code = stream.read()
        return GenerateRequest(
            description=args.description,
            target=args.target,
            code=code,
            greedy=not args.sample,
            temperature=args.temperature,
            seed=args.request_seed,
            execute=args.execute,
            mode=args.mode,
        )
    if args.command == "dataset":
        return DatasetRequest(
            targets=tuple(args.target or ()),
            samples_per_target=args.samples,
            validate_candidates=True if args.validate else None,
            jsonl_path=args.jsonl,
        )
    return CampaignRequest(
        target=args.target,
        scenarios=tuple(args.scenario),
        techniques=tuple(args.technique) if args.technique else ("neural", "predefined-model", "random"),
        budget=args.budget,
        mode=args.mode,
    )


def _summarize(response: Response) -> str:
    if not response.ok:
        return f"[{response.request_id}] ERROR {response.error.type}: {response.error.message}"
    payload = response.payload
    if response.kind == "generate":
        lines = [
            f"[{response.request_id}] fault {payload.fault.fault_id} "
            f"(template={payload.fault.actions.get('template')}, strategy={payload.strategy})",
            payload.fault.code.rstrip("\n"),
        ]
        if payload.outcome is not None:
            lines.append(
                f"outcome: {payload.outcome.failure_mode.value} "
                f"(activated={payload.outcome.activated})"
            )
        return "\n".join(lines)
    if response.kind == "dataset":
        destination = f" -> {payload.jsonl_path}" if payload.jsonl_path else ""
        return f"[{response.request_id}] {payload.records} records{destination}"
    rows = [f"[{response.request_id}] campaign on {payload.target}"]
    for name, result in payload.techniques.items():
        effectiveness = result["effectiveness"]
        rows.append(
            f"  {name}: exposure={effectiveness['failure_exposure_rate']:.3f} "
            f"effort={result['effort_minutes']:.1f}min"
        )
    return "\n".join(rows)


@contextlib.contextmanager
def _stdout_reserved_for_payload() -> Iterator[None]:
    """Route fd 1 to stderr while the engine works, so ``--json`` stays pure.

    Sandboxed workloads (in-process runs, forked pool workers) print straight
    to the inherited stdout; redirecting the file descriptor — not just
    ``sys.stdout`` — keeps those prints visible on stderr while reserving
    stdout for the single JSON envelope.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        os.dup2(2, 1)
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        return _serve_command(args)
    if args.command == "worker":
        return _worker_command(args)
    if args.command == "launch-workers":
        return _launch_workers_command(args)
    config = PipelineConfig(seed=args.seed) if args.seed is not None else PipelineConfig()
    try:
        request = _request_from_args(args)
    except ReproError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    if args.json:
        with _stdout_reserved_for_payload():
            with FaultInjectionEngine(config) as engine:
                response = engine.run(request)
    else:
        with FaultInjectionEngine(config) as engine:
            response = engine.run(request)
    if args.json:
        print(json.dumps(response.to_dict(), indent=2, sort_keys=True))
    else:
        print(_summarize(response))
    return 0 if response.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
