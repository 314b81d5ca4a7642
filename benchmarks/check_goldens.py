#!/usr/bin/env python
"""Paper-science gate: the six paper benches must reproduce their pinned results.

``bench_comparative``, ``bench_fig1_workflow``, ``bench_ablations``,
``bench_rlhf_iterations``, ``bench_running_example`` and
``bench_nlp_extraction`` regenerate the paper's experiments.  Their full-mode
results are committed under ``benchmarks/results/``; this script compares a
fresh run (CI runs the six benches with ``BENCH_QUICK=1``, which writes to
``benchmarks/results/quick/`` with the same workload) against them, so a
refactor cannot silently change the science:

* keys whose name contains ``seconds`` are timings and are skipped;
* floats compare to an absolute 1e-9;
* everything else (ints, strings, booleans, list lengths, key sets) compares
  exactly.

Every path that differs is printed.  Usage::

    python benchmarks/check_goldens.py                      # quick vs committed
    python benchmarks/check_goldens.py --expected benchmarks/results \\
        --actual benchmarks/results/quick

Exit code 0 = every result matches; 1 = a difference or a missing file.
Stdlib-only on purpose, like ``check_floors.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any

RESULTS = Path(__file__).resolve().parent / "results"

#: The result files of the paper benches, by ``write_result`` name.
GOLDENS = (
    "comparative",
    "fig1_workflow",
    "ablations",
    "rlhf_iterations",
    "running_example",
    "nlp_extraction",
)

TOLERANCE = 1e-9


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def differences(expected: Any, actual: Any, path: str = "") -> list[str]:
    """One line per path where ``actual`` departs from ``expected``."""
    where = path or "<root>"
    if isinstance(expected, dict) and isinstance(actual, dict):
        lines = []
        for key in sorted(set(expected) | set(actual)):
            if "seconds" in key:
                continue
            child = f"{path}.{key}" if path else key
            if key not in actual:
                lines.append(f"{child}: missing")
            elif key not in expected:
                lines.append(f"{child}: unexpected")
            else:
                lines.extend(differences(expected[key], actual[key], child))
        return lines
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(expected)} items expected, got {len(actual)}"]
        lines = []
        for index, (want, got) in enumerate(zip(expected, actual)):
            lines.extend(differences(want, got, f"{path}[{index}]"))
        return lines
    if (isinstance(expected, float) or isinstance(actual, float)) and (
        _is_number(expected) and _is_number(actual)
    ):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if abs(expected - actual) <= TOLERANCE:
            return []
        return [f"{where}: expected {expected!r}, got {actual!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: expected {expected!r}, got {actual!r}"]
    return []


def check(expected_dir: Path, actual_dir: Path, names=GOLDENS) -> list[str]:
    """Every difference between the two result directories, per file."""
    lines = []
    for name in names:
        expected_path = expected_dir / f"{name}.json"
        actual_path = actual_dir / f"{name}.json"
        missing = [str(p) for p in (expected_path, actual_path) if not p.is_file()]
        if missing:
            lines.extend(f"{name}.json: missing {path}" for path in missing)
            continue
        expected = json.loads(expected_path.read_text())
        actual = json.loads(actual_path.read_text())
        lines.extend(f"{name}.json: {line}" for line in differences(expected, actual))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expected", type=Path, default=RESULTS, help="committed results")
    parser.add_argument("--actual", type=Path, default=RESULTS / "quick", help="fresh results")
    args = parser.parse_args(argv)
    lines = check(args.expected, args.actual)
    for line in lines:
        print(f"DIFFERS  {line}")
    if lines:
        print(f"{len(lines)} difference(s) from the pinned paper results")
        return 1
    print(f"all {len(GOLDENS)} paper bench results match {args.expected}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
