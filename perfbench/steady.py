"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload execute --seeds 1 2 3 4 5

For every end-to-end metric it prints the median and the interquartile
range as a share of the median, next to a third of the metric's bound in
``BENCHMARK.json`` (the spread a steady benchmark should stay under).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        spec = json.load(stream)
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        output = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(output.stdout.strip().splitlines()[-1])
        values_now = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values_now}", flush=True)
        if not result["correct"]:
            problems = [line for line in output.stdout.splitlines() if line.startswith("PROBLEM")]
            print("\n".join(problems + [output.stderr[-2000:]]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        bound = bounds.get(name)
        limit = f"{bound / 3:.3f}" if bound else "-"
        line = f"{name:<36} median {statistics.median(series):12.4f}"
        if len(series) >= 2:
            line += f"  spread {spread(series):.3f} (a third of the bound: {limit})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
