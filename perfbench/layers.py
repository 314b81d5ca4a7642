"""Per-layer metrics of a traced run, reduced from outside the program.

Sources: the launcher's spans and engine submit→resolve records
(:mod:`traced_serve`), envelope ``timings`` and outcomes kept by the client,
``/v1/stats`` deltas over the measured phase, and ``/healthz`` at its end.
``*_ms`` metrics are self time per completed request.
"""

from __future__ import annotations

from stats import Span, percentile, self_time_by_name
from traced_serve import ENGINE_LAYERS

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("server.overhead_ms", "ms", "lower"),
    ("api.queue_wait_p50_ms", "ms", "lower"),
    ("api.queue_wait_p99_ms", "ms", "lower"),
    ("api.execution_p50_ms", "ms", "lower"),
    ("api.execution_p99_ms", "ms", "lower"),
    ("api.batch_size_mean", "count", "higher"),
    ("api.dispatches", "count", "lower"),
    ("api.decode_ms", "ms", "lower"),
    ("api.serialize_ms", "ms", "lower"),
    ("nlp.extract_ms", "ms", "lower"),
    ("nlp.analyze_ms", "ms", "lower"),
    ("nlp.prompt_ms", "ms", "lower"),
    ("nlp.extract_hit_rate", "ratio", "higher"),
    ("llm.encode_ms", "ms", "lower"),
    ("llm.forward_ms", "ms", "lower"),
    ("llm.compile_ms", "ms", "lower"),
    ("llm.decode_ms", "ms", "lower"),
    ("llm.render_ms", "ms", "lower"),
    ("llm.encoder_hit_rate", "ratio", "higher"),
    ("llm.render_hit_rate", "ratio", "higher"),
    ("llm.compiled_hit_rate", "ratio", "higher"),
    ("integration.integrate_ms", "ms", "lower"),
    ("integration.sandbox_ms", "ms", "lower"),
    ("integration.sandbox_batch", "count", "higher"),
    ("integration.classify_ms", "ms", "lower"),
    ("integration.runs_by_mode.inprocess", "runs/req", "lower"),
    ("integration.runs_by_mode.subprocess", "runs/req", "lower"),
    ("integration.runs_by_mode.pool", "runs/req", "lower"),
    ("integration.timeout_share", "ratio", "lower"),
    ("integration.timeout_s", "s", "lower"),
    ("targets.workload_p50_ms", "ms", "lower"),
    ("execution.tasks_executed", "count", "lower"),
    ("execution.pool_rebuilds", "count", "lower"),
    ("execution.retries", "count", "lower"),
    ("execution.quarantined", "count", "lower"),
    ("resilience.open_breakers", "count", "lower"),
    ("core.define_ms", "ms", "lower"),
    ("core.technique_ms.neural", "ms", "lower"),
    ("core.technique_ms.predefined", "ms", "lower"),
    ("core.technique_ms.random", "ms", "lower"),
    ("injection.plan_ms", "ms", "lower"),
    ("dataset.generate_ms", "ms", "lower"),
    ("rlhf.run_ms", "ms", "lower"),
    ("client.send_lag_p99_ms", "ms", "lower"),
    ("client.polls_per_request", "count", "lower"),
    ("trace.rps_ratio", "ratio", "higher"),
    ("trace.latency_p50_ratio", "ratio", "lower"),
    ("trace.engine_self_share", "ratio", "lower"),
)

#: Span name → self-time metric (the rest of PER_LAYER comes from elsewhere).
SPAN_METRICS = {
    "api.decode": "api.decode_ms",
    "api.serialize": "api.serialize_ms",
    "nlp.extract": "nlp.extract_ms",
    "nlp.analyze": "nlp.analyze_ms",
    "nlp.prompt": "nlp.prompt_ms",
    "llm.encode": "llm.encode_ms",
    "llm.forward": "llm.forward_ms",
    "llm.compile": "llm.compile_ms",
    "llm.decode": "llm.decode_ms",
    "llm.render": "llm.render_ms",
    "integration.integrate": "integration.integrate_ms",
    "integration.sandbox": "integration.sandbox_ms",
    "integration.classify": "integration.classify_ms",
    "core.define": "core.define_ms",
    "core.technique.neural": "core.technique_ms.neural",
    "core.technique.predefined": "core.technique_ms.predefined",
    "core.technique.random": "core.technique_ms.random",
    "injection.plan": "injection.plan_ms",
    "dataset.generate": "dataset.generate_ms",
    "rlhf.run": "rlhf.run_ms",
}

_CACHE_METRICS = {
    "nlp.extract_hit_rate": "extract",
    "llm.encoder_hit_rate": "encoder",
    "llm.render_hit_rate": "render",
    "llm.compiled_hit_rate": "compiled",
}


def window_spans(trace: dict, start: float, end: float) -> tuple[list[Span], list[dict]]:
    """Spans (seconds) that lie inside the measured window, plus their attrs."""
    spans, attrs = [], []
    for span_id, parent, name, begin_ns, end_ns, extra in trace["spans"]:
        begin, finish = begin_ns / 1e9, end_ns / 1e9
        if begin >= start and finish <= end:
            spans.append(Span(span_id, parent, name, begin, finish))
            attrs.append(extra or {})
    return spans, attrs


def _delta(after: dict, before: dict, *path: str) -> float:
    def dig(data):
        for key in path:
            data = (data or {}).get(key)
        return data or 0

    return float(dig(after)) - float(dig(before))


def _hit_rate(before: dict, after: dict, cache: str) -> float:
    hits = _delta(after, before, "caches", cache, "hits")
    misses = _delta(after, before, "caches", cache, "misses")
    return hits / (hits + misses) if hits + misses else 0.0


def _p(values, q) -> float:
    return percentile(values, q) if values else 0.0


def per_layer(phase, untraced, trace: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced phase.

    ``phase`` is the traced :class:`run.Phase`, ``untraced`` the untraced
    phase of the same run (for the tracing-overhead ratios), ``trace`` the
    launcher's dump.
    """
    ok = phase.ok
    completed = max(1, len(ok))
    start, end = phase.window
    spans, attrs = window_spans(trace, start, end)
    own = self_time_by_name(spans)
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    for name, seconds in own.items():
        metrics[SPAN_METRICS[name]] = seconds * 1000.0 / completed

    sandbox = [extra for span, extra in zip(spans, attrs) if span.name == "integration.sandbox"]
    if sandbox:
        metrics["integration.sandbox_batch"] = sum(extra["n"] for extra in sandbox) / len(sandbox)
    for mode in ("inprocess", "subprocess", "pool"):
        runs = sum(extra["n"] for extra in sandbox if extra["mode"] == mode)
        metrics[f"integration.runs_by_mode.{mode}"] = runs / completed

    engine = {rid: (done - submitted) / 1e9 for rid, submitted, done in trace["requests"]}
    matched = [(result, engine[result.request_id]) for result in ok if result.request_id in engine]
    if matched:
        metrics["server.overhead_ms"] = 1000.0 * sum(
            (result.completed - result.sent) - seconds for result, seconds in matched
        ) / len(matched)
        engine_total = sum(seconds for _, seconds in matched)
        engine_self = sum(
            seconds for name, seconds in own.items() if name.split(".")[0] in ENGINE_LAYERS
        )
        metrics["trace.engine_self_share"] = engine_self / engine_total if engine_total else 0.0

    queued = [result.extra["timings"]["queued_seconds"] * 1000 for result in ok]
    executed = [result.extra["timings"]["execution_seconds"] * 1000 for result in ok]
    metrics["api.queue_wait_p50_ms"] = _p(queued, 50)
    metrics["api.queue_wait_p99_ms"] = _p(queued, 99)
    metrics["api.execution_p50_ms"] = _p(executed, 50)
    metrics["api.execution_p99_ms"] = _p(executed, 99)

    before, after = phase.stats_before, phase.stats_after
    batches = _delta(after, before, "scheduler", "batch_count")
    metrics["api.dispatches"] = batches
    if batches:
        metrics["api.batch_size_mean"] = _delta(after, before, "scheduler", "dispatched") / batches
    for metric, cache in _CACHE_METRICS.items():
        metrics[metric] = _hit_rate(before, after, cache)
    for counter in ("tasks_executed", "pool_rebuilds", "retries", "quarantined"):
        metrics[f"execution.{counter}"] = _delta(after, before, "execution", "totals", counter)
    metrics["resilience.open_breakers"] = float((phase.health or {}).get("open_breakers", 0))

    executed_faults = sum(result.extra.get("executed", 0) for result in ok)
    hangs = sum(result.extra.get("hangs", 0) for result in ok)
    if executed_faults:
        metrics["integration.timeout_share"] = hangs / executed_faults
    if hangs:
        # Sandbox seconds charged per HANG outcome (generate envelopes carry them).
        metrics["integration.timeout_s"] = sum(
            result.extra.get("hang_seconds", 0.0) for result in ok) / hangs
    workload = [d * 1000 for result in ok for d in result.extra.get("workload_seconds", ())]
    metrics["targets.workload_p50_ms"] = _p(workload, 50)

    if phase.open_loop:
        metrics["client.send_lag_p99_ms"] = phase.send_lag_p99_ms
        metrics["client.polls_per_request"] = sum(r.polls for r in phase.results) / len(phase.results)

    if untraced.requests_per_s:
        metrics["trace.rps_ratio"] = phase.requests_per_s / untraced.requests_per_s
    if untraced.latency_p50_ms:
        metrics["trace.latency_p50_ratio"] = phase.latency_p50_ms / untraced.latency_p50_ms
    return metrics
