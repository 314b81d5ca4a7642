#!/usr/bin/env python
"""Benchmark-regression gate: fail if any committed speedup floor regresses.

The repo commits the benchmark trajectory under ``benchmarks/results/*.json``
and promises floors in ROADMAP.md (pooled execution >= 3x, pooled dataset
generation >= 2x, batched policy inference >= 3x, compiled grammar decode
>= 3x, concurrent engine serving >= 3x, concurrent HTTP serving >= 3x,
4-shard serving >= 2.5x with byte-identical payloads,
supervised execution overhead <= ~10%, chaos recovery byte-identical).
CI runs this script against the
committed full-mode numbers *and* against the quick-mode smoke output
(``benchmarks/results/quick``), so a regression fails the build instead of
silently re-measuring lower.

Usage::

    python benchmarks/check_floors.py                       # committed numbers
    python benchmarks/check_floors.py --results benchmarks/results \
        --results benchmarks/results/quick                  # + quick-run output

The first ``--results`` directory is the committed baseline: every gated
result file must exist there.  Later directories (quick-mode output) are
checked only for the files they contain — CI's smoke profile runs a subset
of the benchmarks.  Exit code 0 = all floors hold; 1 = regression/missing.

Stdlib-only on purpose: the gate must run before (and regardless of) any
dependency installation step.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_RESULTS = Path(__file__).resolve().parent / "results"

#: (file, metric label, key path into the JSON, floor). One row per promise.
FLOORS: list[tuple[str, str, tuple[str, ...], float]] = [
    (
        "throughput.json",
        "pooled execution vs serial subprocess",
        ("configs", "pool", "speedup_vs_serial_subprocess"),
        3.0,
    ),
    (
        "dataset_gen.json",
        "pooled validated dataset generation vs serial",
        ("configs", "pool", "speedup_vs_serial_subprocess"),
        2.0,
    ),
    (
        "policy_inference.json",
        "batched multi-prompt generation vs per-sample",
        ("workloads", "generation", "speedup"),
        3.0,
    ),
    (
        "policy_inference.json",
        "batched SFT epoch vs per-sample",
        ("workloads", "sft_epoch", "speedup"),
        3.0,
    ),
    (
        "policy_inference.json",
        "batched RLHF round vs per-sample",
        ("workloads", "rlhf_round", "speedup"),
        3.0,
    ),
    (
        "compiled_decode.json",
        "compiled grammar decode vs interpreted (generation)",
        ("workloads", "generation_decode", "speedup"),
        3.0,
    ),
    (
        "compiled_decode.json",
        "cached automaton compilation vs recompiling",
        ("workloads", "compile_cache", "speedup"),
        3.0,
    ),
    (
        "serving.json",
        "concurrent engine clients vs serial old API",
        ("serving", "speedup"),
        3.0,
    ),
    (
        "http_serving.json",
        "concurrent HTTP clients vs serial legacy API",
        ("serving", "speedup"),
        3.0,
    ),
    (
        "sharded_serving.json",
        "4-shard serving vs single engine",
        ("serving", "speedup"),
        2.5,
    ),
    (
        "sharded_serving.json",
        "sharded payloads byte-identical to single engine",
        ("serving", "identical"),
        1.0,
    ),
    (
        "distributed.json",
        "distributed localhost workers vs serial subprocess",
        ("configs", "distributed", "speedup_vs_serial_subprocess"),
        3.0,
    ),
    (
        "distributed.json",
        "distributed chaos recovery byte-identical results",
        ("chaos_recovery", "identical"),
        1.0,
    ),
    (
        "resilience.json",
        "supervised fault-free pool vs bare executor",
        ("fault_free", "ratio"),
        0.9,
    ),
    (
        "resilience.json",
        "chaos recovery byte-identical results",
        ("chaos_recovery", "identical"),
        1.0,
    ),
]


def _lookup(data: dict, path: tuple[str, ...]):
    """Walk a key path into nested dicts; ``None`` when any key is absent."""
    node = data
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def check_directory(results_dir: Path, require_all: bool) -> tuple[list[str], list[str]]:
    """Check every floor against one results directory.

    Args:
        results_dir: Directory holding ``*.json`` benchmark outputs.
        require_all: Whether a missing gated file is a violation (the
            committed baseline) or merely skipped (partial quick output).

    Returns:
        ``(report_lines, violations)`` — human-readable rows plus the
        violation messages (empty when the directory passes).
    """
    lines: list[str] = []
    violations: list[str] = []
    for filename, label, path, floor in FLOORS:
        source = results_dir / filename
        where = f"{source.parent.name}/{filename}"
        if not source.is_file():
            if require_all:
                violations.append(f"{where}: missing gated result file")
                lines.append(f"  FAIL {label}: {where} missing")
            else:
                lines.append(f"  skip {label}: {where} not produced by this run")
            continue
        try:
            data = json.loads(source.read_text())
        except json.JSONDecodeError as exc:
            violations.append(f"{where}: unreadable JSON ({exc})")
            lines.append(f"  FAIL {label}: unreadable JSON")
            continue
        value = _lookup(data, path)
        if not isinstance(value, (int, float)):
            violations.append(f"{where}: {'.'.join(path)} missing from result JSON")
            lines.append(f"  FAIL {label}: {'.'.join(path)} missing")
            continue
        if value < floor:
            violations.append(
                f"{where}: {label} regressed to {value:.2f}x (floor {floor:.1f}x)"
            )
            lines.append(f"  FAIL {label}: {value:.2f}x < floor {floor:.1f}x")
        else:
            lines.append(f"  ok   {label}: {value:.2f}x >= {floor:.1f}x")
    return lines, violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results",
        action="append",
        type=Path,
        default=None,
        help="results directory (repeatable; first = committed baseline, "
        "must contain every gated file; later dirs are partial quick output)",
    )
    args = parser.parse_args(argv)
    directories = args.results or [DEFAULT_RESULTS]

    all_violations: list[str] = []
    for index, results_dir in enumerate(directories):
        require_all = index == 0
        print(f"[{results_dir}] ({'baseline' if require_all else 'partial run'})")
        if not results_dir.is_dir():
            if require_all:
                all_violations.append(f"{results_dir}: baseline results directory missing")
                print("  FAIL: directory missing")
            else:
                print("  skip: directory missing (no quick output)")
            continue
        lines, violations = check_directory(results_dir, require_all=require_all)
        print("\n".join(lines))
        all_violations.extend(violations)

    if all_violations:
        print("\nbenchmark floor regressions:", file=sys.stderr)
        for violation in all_violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    print("\nall benchmark floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
