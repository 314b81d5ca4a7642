"""BENCH_RESILIENCE — the price and the payoff of worker-pool supervision.

Two promises from docs/RESILIENCE.md are measured and gated:

* ``fault_free`` — the supervised pool (liveness checks, the
  ``SupervisedBatch`` bookkeeping, chaos hooks compiled in but disabled)
  must cost **under 10% wall-clock overhead** against the simplest
  alternative on a healthy pool: a bare ``ProcessPoolExecutor`` of the same
  size running the pool's own ``_execute_task`` with ``_pool_initializer``
  (no liveness check, no recycling, no retries).  Supervised and bare
  batches alternate within one run, their order swapping every pair, so a
  drift in background load hits both sides alike.  The gate is the median
  over pairs of ``reference / supervised`` wall-clock, ``ratio >= 0.9``;
  each side's median and interquartile range are reported next to it.
* ``chaos_recovery`` — with the self-chaos harness SIGKILLing workers,
  stalling tasks, and dropping results, the supervised pool must still
  produce **byte-identical** payloads to a fault-free run (``identical`` is
  1.0 only when every payload matches; gated at 1.0).  The recovery
  counters and the chaotic wall-clock are reported alongside.

``BENCH_QUICK=1`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

from repro.config import ChaosConfig, ResilienceConfig
from repro.execution import WorkerPool
from repro.execution.pool import _execute_task, _pool_initializer
from repro.targets import get_target

from conftest import write_result

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

BATCH_SIZE = 4 if QUICK else 8
ITERATIONS = 10 if QUICK else 25
REPEATS = 3 if QUICK else 5
WORKERS = 2
#: Supervised/bare batch pairs timed for the fault-free ratio.  A 10 ms
#: batch is mostly scheduler noise, so the ratio needs many pairs.
FAULT_FREE_PAIRS = 100 if QUICK else 200
FAULT_FREE_BATCH_SIZE = 8
#: bare-executor/supervised wall-clock; 0.9 bounds supervision overhead ~10%.
MIN_FAULT_FREE_RATIO = 0.9

CHAOS = ChaosConfig(
    enabled=True,
    seed=31,
    worker_crash_probability=0.3,
    task_delay_probability=0.3,
    task_delay_seconds=0.02,
    drop_result_probability=0.3,
)


def _stable(payload: dict) -> dict:
    """A pool payload with the wall-clock measurement stripped."""
    stable = {k: v for k, v in payload.items() if k != "result"}
    stable["result"] = {
        k: v for k, v in payload.get("result", {}).items() if k != "duration_seconds"
    }
    return stable


def _run_batches(resilience: ResilienceConfig, sources: list[str]) -> tuple[list[float], list[list[dict]], dict]:
    """Timed repeated batches on one pool → (seconds per batch, payloads, stats)."""
    seconds: list[float] = []
    payload_runs: list[list[dict]] = []
    with WorkerPool(
        max_workers=WORKERS, task_timeout_seconds=30.0, resilience=resilience
    ) as pool:
        # One throwaway batch so worker spawn / import cost is not measured.
        pool.run_batch("bank", sources[:1], seed=0, iterations=ITERATIONS)
        for repeat in range(REPEATS):
            started = time.perf_counter()
            payloads = pool.run_batch("bank", sources, seed=repeat, iterations=ITERATIONS)
            seconds.append(time.perf_counter() - started)
            payload_runs.append(payloads)
        stats = pool.stats()
    return seconds, payload_runs, stats


def _bare_batch(executor: ProcessPoolExecutor, sources: list[str], seed: int) -> list[dict]:
    """One batch on the bare reference executor: the same task dicts and
    worker function as the pool, with none of its supervision."""
    tasks = [
        {
            "target": "bank",
            "source": source,
            "seed": seed,
            "iterations": ITERATIONS,
            "timeout_seconds": 30.0,
            "chaos": None,
        }
        for source in sources
    ]
    futures = [executor.submit(_execute_task, task) for task in tasks]
    return [future.result() for future in futures]


def _iqr(samples: list[float]) -> float:
    quartiles = statistics.quantiles(samples, n=4)
    return quartiles[2] - quartiles[0]


def measure_fault_free_overhead(sources: list[str]) -> dict:
    """Supervised pool (chaos off) vs a bare executor, alternating batches."""
    supervised_seconds: list[float] = []
    reference_seconds: list[float] = []
    with WorkerPool(max_workers=WORKERS, task_timeout_seconds=30.0) as pool, ProcessPoolExecutor(
        max_workers=WORKERS, initializer=_pool_initializer
    ) as executor:
        # One throwaway batch each so worker spawn / import cost is not measured.
        pool.run_batch("bank", sources, seed=0, iterations=ITERATIONS)
        _bare_batch(executor, sources, seed=0)
        for pair in range(FAULT_FREE_PAIRS):
            sides = ["supervised", "reference"] if pair % 2 == 0 else ["reference", "supervised"]
            for side in sides:
                started = time.perf_counter()
                if side == "supervised":
                    supervised_payloads = pool.run_batch("bank", sources, seed=pair, iterations=ITERATIONS)
                    supervised_seconds.append(time.perf_counter() - started)
                else:
                    reference_payloads = _bare_batch(executor, sources, seed=pair)
                    reference_seconds.append(time.perf_counter() - started)
            assert [_stable(p) for p in supervised_payloads] == [_stable(p) for p in reference_payloads]
    supervised_median = statistics.median(supervised_seconds)
    reference_median = statistics.median(reference_seconds)
    ratio = statistics.median(ref / sup for ref, sup in zip(reference_seconds, supervised_seconds))
    return {
        "batch_size": len(sources),
        "pairs": FAULT_FREE_PAIRS,
        "reference": "bare ProcessPoolExecutor running the pool's _execute_task",
        "supervised_seconds": round(supervised_median, 4),
        "supervised_iqr_seconds": round(_iqr(supervised_seconds), 4),
        "reference_seconds": round(reference_median, 4),
        "reference_iqr_seconds": round(_iqr(reference_seconds), 4),
        "ratio": round(ratio, 3),
        "overhead_percent": round((1.0 / ratio - 1.0) * 100.0, 1),
    }


def measure_chaos_recovery(sources: list[str]) -> dict:
    """Chaotic batches must converge on the fault-free payload bytes."""
    baseline_seconds, baseline_runs, _ = _run_batches(ResilienceConfig(), sources)
    chaos_seconds, chaos_runs, chaos_stats = _run_batches(ResilienceConfig(chaos=CHAOS), sources)
    identical = all(
        [_stable(p) for p in chaotic] == [_stable(p) for p in clean]
        for chaotic, clean in zip(chaos_runs, baseline_runs)
    )
    disrupted = chaos_stats["retries"] + chaos_stats["pool_rebuilds"]
    return {
        "batch_size": len(sources),
        "repeats": REPEATS,
        "identical": 1.0 if identical else 0.0,
        "baseline_seconds": round(statistics.median(baseline_seconds), 4),
        "chaos_seconds": round(statistics.median(chaos_seconds), 4),
        "retries": chaos_stats["retries"],
        "pool_rebuilds": chaos_stats["pool_rebuilds"],
        "quarantined": chaos_stats["quarantined"],
        "disruptions": disrupted,
    }


def test_resilience_overhead_and_recovery():
    source = get_target("bank").build_source()
    fault_free = measure_fault_free_overhead([source] * FAULT_FREE_BATCH_SIZE)
    chaos_recovery = measure_chaos_recovery([source] * BATCH_SIZE)

    rows = [
        "metric                      supervised-s   reference-s     value",
        (
            f"fault_free ratio           {fault_free['supervised_seconds']:>11.4f}"
            f"   {fault_free['reference_seconds']:>11.4f}   {fault_free['ratio']:>7.3f}"
        ),
        (
            f"fault_free IQR             {fault_free['supervised_iqr_seconds']:>11.4f}"
            f"   {fault_free['reference_iqr_seconds']:>11.4f}"
        ),
        (
            f"chaos identical            {chaos_recovery['chaos_seconds']:>11.4f}"
            f"   {chaos_recovery['baseline_seconds']:>11.4f}"
            f"   {chaos_recovery['identical']:>7.1f}"
        ),
        f"chaos disruptions recovered: {chaos_recovery['disruptions']}",
    ]
    payload = {
        "quick": QUICK,
        "min_fault_free_ratio": MIN_FAULT_FREE_RATIO,
        "fault_free": fault_free,
        "chaos_recovery": chaos_recovery,
    }
    write_result("resilience", payload, table="\n".join(rows))

    # The acceptance bars: supervision is (near-)free on a healthy pool, and
    # chaos never changes results.
    assert fault_free["ratio"] >= MIN_FAULT_FREE_RATIO, payload
    assert chaos_recovery["identical"] == 1.0, payload
    assert chaos_recovery["disruptions"] > 0, payload
