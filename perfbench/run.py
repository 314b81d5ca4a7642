"""Client-side benchmark of ``repro serve`` on the default configuration.

Run from the repository root::

    python3 perfbench/run.py --workload generate --seed 1 --seconds 20 --trace 0

It spawns ``python -m repro serve --port 0`` (default ``PipelineConfig``;
``src/`` must be present), warms it up, drives one seeded workload over HTTP
(see :mod:`workloads`), checks every response against the committed golden
(:mod:`golden`), drains the server with SIGINT, and prints a table followed
by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` (spawn until
``/healthz`` is 200 and the warm-up is done) is the median of
:data:`SETUPS` set-ups, each on a fresh server; the last one is measured.

``--trace 1`` runs the workload twice, once on a plain server and once on
the :mod:`traced_serve` launcher, and reports the per-layer metrics of
:mod:`layers` plus the tracing overhead (traced/untraced ``requests_per_s``
and ``latency_p50_ms``).

``--capture-golden`` re-records ``perfbench/golden/<workload>.json``.

Scratch files (server logs, sandbox temp files, spans) go to
``.bench_build/perfbench/`` inside the checkout and are removed after a
clean run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

import golden
import workloads
from client import Result, closed_loop, open_loop, sync_call
from server import ServerProcess
from stats import due_latency, percentile, send_lag, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fresh-server set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
#: Latency limits of ``slo_attainment`` (``None``: no limit for campaigns).
SLO_SECONDS = {"generate": 0.05, "execute": 2.0, "campaign": None}
#: An open-loop run whose sender fell behind its schedule by more than this
#: (p99) is invalid: the offered load was not the stated one.
SEND_LAG_BOUND_MS = 250.0

#: (name, unit) of the end-to-end metrics the JSON line carries.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("faults_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


@dataclass
class Phase:
    """One server's measured run plus everything the reports need."""

    workload: str
    open_loop: bool = False
    setups: list[float] = field(default_factory=list)
    results: list[Result] = field(default_factory=list)
    warm: list[Result] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    trace: dict | None = None

    @property
    def ok(self) -> list[Result]:
        return [result for result in self.results if result.ok]

    @property
    def duration(self) -> float:
        return max(1e-9, self.window[1] - self.window[0])

    @property
    def latencies_ms(self) -> list[float]:
        return [due_latency(result.due, result.completed) * 1000.0 for result in self.ok]

    @property
    def latency_p50_ms(self) -> float:
        latencies = self.latencies_ms
        return percentile(latencies, 50) if latencies else 0.0

    @property
    def tail(self) -> tuple[float | None, float | None]:
        """(percentile, latency) by the tail rule at this run's request count."""
        q = tail_percentile(len(self.results))
        latencies = self.latencies_ms
        if q is None or not latencies:
            return None, None
        return q, percentile(latencies, q)

    @property
    def requests_per_s(self) -> float:
        return len(self.ok) / self.duration

    @property
    def faults_per_s(self) -> float:
        return sum(result.extra.get("faults", 0) for result in self.ok) / self.duration

    @property
    def error_rate(self) -> float:
        return (len(self.results) - len(self.ok)) / max(1, len(self.results))

    @property
    def slo_attainment(self) -> float | None:
        limit = SLO_SECONDS[self.workload]
        if limit is None:
            return None
        met = sum(1 for latency in self.latencies_ms if latency <= limit * 1000.0)
        return met / max(1, len(self.results))

    @property
    def send_lag_p99_ms(self) -> float:
        lags = [send_lag(r.due, r.sent) * 1000.0 for r in self.results if r.sent]
        return percentile(lags, 99) if lags else 0.0

    @property
    def failed(self) -> int:
        return len(self.results) - len(self.ok) + len(self.mismatches)


# -- envelope reduction (runs on client threads; keeps only what is reported) --

def _compact(result: Result) -> dict:
    envelope = result.envelope or {}
    result.extra["timings"] = envelope.get("timings") or {}
    if envelope.get("request_id"):
        result.request_id = envelope["request_id"]
    result.envelope = {"status": envelope.get("status"), "error": envelope.get("error")}
    return envelope


def reduce_generate(result: Result) -> None:
    envelope = _compact(result)
    result.extra["fields"] = golden.generate_fields(envelope)
    result.extra["faults"] = 1
    outcome = (envelope.get("payload") or {}).get("outcome")
    if outcome is not None:
        result.extra["executed"] = 1
        if outcome.get("failure_mode") == "hang":
            result.extra["hangs"] = 1
            result.extra["hang_seconds"] = outcome.get("duration_seconds", 0.0)
        else:
            result.extra["workload_seconds"] = [outcome.get("duration_seconds", 0.0)]


def reduce_campaign_call(call: workloads.CampaignCall):
    def reduce(result: Result) -> None:
        envelope = _compact(result)
        result.extra["fields"] = golden.FIELDS[call.kind](envelope)
        payload = envelope.get("payload") or {}
        if call.kind == "campaign":
            techniques = (payload.get("techniques") or {}).values()
            faults = sum((t.get("effectiveness") or {}).get("total", 0) for t in techniques)
            result.extra["hangs"] = sum(
                ((t.get("effectiveness") or {}).get("by_mode") or {}).get("hang", 0)
                for t in techniques)
            result.extra["executed"] = faults
        elif call.kind == "dataset":
            faults = payload.get("records", 0)
            result.extra["executed"] = (payload.get("stats") or {}).get("validated", 0)
        else:
            faults = call.faults
            result.extra["executed"] = faults
        result.extra["faults"] = faults

    return reduce


# -- workloads ------------------------------------------------------------------

def _async_batch(server, entries: list[tuple[str, dict]], prefix: str) -> list[Result]:
    arrivals = [workloads.Arrival(key, body, 0.0) for key, body in entries]
    return open_loop(server, arrivals, time.monotonic(), prefix, reduce_generate)


def warm_up(workload: str, server) -> list[Result]:
    """One request per target and kind, before anything is measured."""
    if workload == "execute":
        return _async_batch(server, workloads.execute_warmup(), "warm")
    connection = server.connection(timeout=600)
    try:
        if workload == "generate":
            return [sync_call(connection, "generate", key, body, reduce_generate)
                    for key, body in workloads.generate_warmup()]
        return [sync_call(connection, call.kind, call.key, call.body, reduce_campaign_call(call))
                for call in workloads.campaign_warmup()]
    finally:
        connection.close()


def measure(workload: str, server, seed: int, seconds: float, gold: dict) -> tuple[list[Result], tuple]:
    """Drive the measured phase; returns results and the (start, end) window."""
    if workload == "generate":
        catalog = workloads.generate_catalog()
        usable = [i for i, entry in enumerate(gold.get("catalog", ())) if entry is not None]
        if not usable:
            raise RuntimeError("the generate golden is missing; run --capture-golden generate")
        source = workloads.GenerateSource(seed, catalog, usable)
        results = closed_loop(server, workloads.GENERATE_CONNECTIONS, seconds, source.next,
                              "generate", reduce_generate)
        start = min(result.sent for result in results)
    elif workload == "execute":
        arrivals = workloads.execute_schedule(seed, seconds)
        start = time.monotonic() + 0.05
        results = open_loop(server, arrivals, start, f"s{seed}", reduce_generate)
    else:
        results = []
        connection = server.connection(timeout=600)
        start = time.monotonic()
        try:
            for cycle in range(workloads.CAMPAIGN_MAX_CYCLES):
                elapsed = time.monotonic() - start
                # Whole cycles only; stop when another would overrun by > half.
                if cycle and elapsed + 0.5 * elapsed / cycle > seconds:
                    break
                for call in workloads.campaign_cycle(seed, cycle):
                    key = f"{call.key}@{cycle}" if call.kind == "campaign" else call.key
                    results.append(sync_call(connection, call.kind, key, call.body,
                                             reduce_campaign_call(call)))
        finally:
            connection.close()
    end = max((result.completed for result in results), default=start)
    return results, (start, end)


def check(workload: str, gold: dict, results: list[Result]) -> list[str]:
    return golden.mismatches(workload, gold, ((r.key, r.extra.get("fields")) for r in results))


def run_phase(workload: str, seed: int, seconds: float, workdir: str, traced: bool,
              setups: int) -> Phase:
    """``setups`` fresh servers (all but the last drained right away), then measure."""
    gold = golden.load(workload)
    phase = Phase(workload, open_loop=workload == "execute")
    for index in range(setups):
        name = f"{'traced' if traced else 'plain'}-{index}"
        spans = os.path.join(workdir, f"{name}.spans.json") if traced else None
        server = ServerProcess(ROOT, workdir, name, spans_path=spans)
        try:
            started = time.monotonic()
            server.start()
            server.wait_ready()
            warm = warm_up(workload, server)
            phase.setups.append(time.monotonic() - started)
            phase.warm.extend(warm)
            if index < setups - 1:
                phase.problems.extend(server.stop())
                continue
            _, phase.stats_before = server.get("/v1/stats")
            phase.results, phase.window = measure(workload, server, seed, seconds, gold)
            _, phase.stats_after = server.get("/v1/stats")
            _, phase.health = server.get("/healthz")
            phase.peak_rss_mb = server.peak_rss_mb()
            phase.problems.extend(server.stop())
        finally:
            server.kill()
        if traced:
            with open(spans, encoding="utf-8") as stream:
                phase.trace = json.load(stream)
    phase.mismatches = check(workload, gold, phase.ok)  # failed requests count once
    warm_bad = check(workload, gold, phase.warm) + [
        f"warm-up {r.key} failed: {r.envelope}" for r in phase.warm if not r.ok]
    phase.problems.extend(warm_bad)
    if phase.open_loop and phase.send_lag_p99_ms > SEND_LAG_BOUND_MS:
        phase.problems.append(
            f"invalid open loop: sender p99 lag {phase.send_lag_p99_ms:.1f} ms "
            f"> {SEND_LAG_BOUND_MS} ms")
    return phase


# -- reporting --------------------------------------------------------------------

def end_to_end(phase: Phase) -> dict[str, float]:
    return {
        "setup_s": statistics.median(phase.setups),
        "latency_p50_ms": phase.latency_p50_ms,
        "requests_per_s": phase.requests_per_s,
        "faults_per_s": phase.faults_per_s,
        "peak_rss_mb": phase.peak_rss_mb,
    }


def table(phase: Phase, label: str) -> list[str]:
    """All eight end-to-end metrics of a phase, by name and unit."""
    q, tail = phase.tail
    slo = phase.slo_attainment
    limit = SLO_SECONDS[phase.workload]
    rows = [
        ("setup_s", f"{statistics.median(phase.setups):.4f}", "s",
         f"median of {len(phase.setups)}: " + ", ".join(f"{s:.3f}" for s in phase.setups)),
        ("latency_p50_ms", f"{phase.latency_p50_ms:.3f}", "ms", ""),
        ("latency_tail_ms", f"{tail:.3f}" if tail is not None else "omitted", "ms",
         f"p{q:g}, {len(phase.results)} requests" if q is not None
         else f"no percentile above the median has 10 of {len(phase.results)} samples beyond it"),
        ("requests_per_s", f"{phase.requests_per_s:.3f}", "1/s", f"over {phase.duration:.2f} s"),
        ("faults_per_s", f"{phase.faults_per_s:.3f}", "1/s", ""),
        ("error_rate", f"{phase.error_rate:.4f}", "ratio",
         f"{len(phase.results) - len(phase.ok)} of {len(phase.results)}"),
        ("slo_attainment", f"{slo:.4f}" if slo is not None else "omitted", "ratio",
         f"within {limit * 1000:g} ms" if limit is not None else "no latency limit"),
        ("peak_rss_mb", f"{phase.peak_rss_mb:.2f}", "MiB", "server + live children VmHWM"),
    ]
    lines = [f"[{phase.workload} {label}]"]
    lines += [f"  {name:<18} {value:>14} {unit:<6} {note}" for name, value, unit, note in rows]
    return lines


def provenance(workload: str, seed: int, seconds: float, phases: list[Phase]) -> dict[str, Any]:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None  # the checkout need not be a git repository
    source = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                source.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as stream:
                    source.update(stream.read())
    last = phases[-1]
    q, _ = last.tail
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit, "src_sha256": source.hexdigest()[:16],
        "requests": [len(p.results) for p in phases],
        "warmup_requests": [len(p.warm) for p in phases],
        "tail_percentile": q,
        "hang_share": workloads.hang_share(workloads.execute_schedule(seed, seconds))
        if workload == "execute" else 0.0,
    }


def _capture_generate_pass(server, order: list[int]) -> tuple[dict, list]:
    """Warm-up and every catalog entry in ``order`` → (warm digests, digests)."""
    import threading

    warm = {r.key: golden.digest(r.extra["fields"]) for r in warm_up("generate", server)}
    catalog = workloads.generate_catalog()
    pending = iter(order)
    lock = threading.Lock()
    digests: list[str | None] = [None] * len(catalog)

    def worker() -> None:
        connection = server.connection()
        try:
            while True:
                with lock:
                    index = next(pending, None)
                if index is None:
                    return
                result = sync_call(connection, "generate", str(index), catalog[index],
                                   reduce_generate)
                if result.ok:
                    digests[index] = golden.digest(result.extra["fields"])
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(workloads.GENERATE_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return warm, digests


def capture(workload: str, workdir: str) -> int:
    """Re-record the golden of ``workload`` from the current code.

    The generate catalog is captured twice, forward and reversed, on fresh
    servers; an entry whose result depends on the requests served before
    it gets no golden and is never sent.
    """
    data: dict[str, Any] = {}
    problems: list[str] = []
    if workload == "generate":
        passes = []
        size = len(workloads.generate_catalog())
        for name, order in (("forward", range(size)), ("reverse", reversed(range(size)))):
            server = ServerProcess(ROOT, workdir, f"capture-{name}")
            try:
                server.start()
                server.wait_ready()
                passes.append(_capture_generate_pass(server, list(order)))
                problems += server.stop()
            finally:
                server.kill()
        (warm, first), (warm_again, second) = passes
        data["warm"] = {key: value for key, value in warm.items() if warm_again.get(key) == value}
        data["catalog"] = [a if a == b else None for a, b in zip(first, second)]
        unstable = sum(1 for a, b in zip(first, second) if a != b)
        print(f"captured {sum(d is not None for d in data['catalog'])} of {size} entries "
              f"({unstable} differed between passes)")
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        print(f"wrote {golden.save(workload, data)}")
        return 0
    server = ServerProcess(ROOT, workdir, "capture")
    try:
        server.start()
        server.wait_ready()
        if workload == "execute":
            results = _async_batch(server, list(workloads.execute_entries().items()), "cap")
            for result in results:
                if not result.ok:
                    raise RuntimeError(f"{result.key} failed: {result.envelope}")
                data[result.key] = result.extra["fields"]
        else:
            for result in warm_up(workload, server):
                data[result.key] = result.extra["fields"]
            connection = server.connection(timeout=600)
            try:
                for cycle in range(workloads.CAMPAIGN_MAX_CYCLES):
                    calls = [workloads.campaign_entry(t, v) for t in workloads.TARGETS for v in (0, 1)]
                    if cycle == 0:
                        calls += [workloads.dataset_entry(t) for t in workloads.DATASET_TARGETS]
                    calls.append(workloads.rlhf_entry(cycle))
                    for call in calls:
                        key = f"{call.key}@{cycle}" if call.kind == "campaign" else call.key
                        result = sync_call(connection, call.kind, key, call.body,
                                           reduce_campaign_call(call))
                        if not result.ok:
                            raise RuntimeError(f"{key} failed: {result.envelope}")
                        data[key] = result.extra["fields"]
                    print(f"captured campaign cycle {cycle}", flush=True)
            finally:
                connection.close()
            # An entry whose result no RLHF update moved is stored once.
            for entry in {key.split("@")[0] for key in data if "@" in key}:
                cycles = [data[f"{entry}@{cycle}"] for cycle in range(workloads.CAMPAIGN_MAX_CYCLES)]
                if all(fields == cycles[0] for fields in cycles):
                    data[entry] = cycles[0]
                    for cycle in range(workloads.CAMPAIGN_MAX_CYCLES):
                        del data[f"{entry}@{cycle}"]
        problems = server.stop()
    finally:
        server.kill()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(f"wrote {golden.save(workload, data)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Client-side benchmark of repro serve.")
    parser.add_argument("--workload", required=True, choices=("generate", "execute", "campaign"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-golden", action="store_true",
                        help="re-record perfbench/golden/<workload>.json and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to benchmark: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    if args.capture_golden:
        return capture(args.workload, workdir)

    try:
        if args.trace == 0:
            phases = [run_phase(args.workload, args.seed, args.seconds, workdir, False, SETUPS)]
            metrics = end_to_end(phases[0])
            units = dict(END_TO_END)
        else:
            from layers import PER_LAYER, per_layer

            untraced = run_phase(args.workload, args.seed, args.seconds, workdir, False, 1)
            traced = run_phase(args.workload, args.seed, args.seconds, workdir, True, 1)
            phases = [untraced, traced]
            metrics = per_layer(traced, untraced, traced.trace)
            units = {name: unit for name, unit, _ in PER_LAYER}
    except Exception:  # noqa: BLE001 - report and fail the run without a result line
        traceback.print_exc()
        print(f"benchmark failed; logs kept in {workdir}", file=sys.stderr)
        return 1

    lines = []
    for phase, label in zip(phases, ("untraced", "traced") if args.trace else ("",)):
        lines += table(phase, label)
    if args.trace:
        lines.append(f"[{args.workload} per-layer, traced]")
        lines += [f"  {name:<38} {metrics[name]:>14.4f} {units[name]}" for name in metrics]
    problems = [p for phase in phases for p in phase.problems + phase.mismatches[:20]]
    lines += [f"PROBLEM: {problem}" for problem in problems]
    print("\n".join(lines))
    print(json.dumps({"provenance": provenance(args.workload, args.seed, args.seconds, phases)}))

    measured = phases[-1]
    correct = not problems and all(phase.failed == 0 for phase in phases)
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
    else:
        failures = [f"{r.key}: {r.envelope}" for p in phases for r in p.results if not r.ok]
        with open(os.path.join(workdir, "problems.txt"), "w", encoding="utf-8") as stream:
            stream.write("\n".join(problems + failures) + "\n")
        print(f"run not correct; details in {workdir}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(measured.results),
        "failed": measured.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
