"""Deterministic envelope fields and the committed goldens they must match.

Only fields that do not depend on timing or batching are compared:
``fault_id``, template, target function, ``failure_mode`` and ``activated``
for generate envelopes; coverage and effectiveness counts per technique for
campaigns; record counts for datasets; prompt and iteration counts for
RLHF.  ``timings``, ``duration_seconds``, ``batch_size`` and
``outcome.details.mode`` are masked by never being read.

Goldens live in ``perfbench/golden/<workload>.json`` and are written by
``python3 perfbench/run.py --capture-golden <workload>``.  The generate
catalog is large, so its golden stores an 8-hex digest per catalog index
(``null`` for an entry that failed, or differed between the forward and
reversed capture passes, and is therefore never sent); the other workloads
store the fields themselves.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def generate_fields(envelope: dict[str, Any]) -> dict[str, Any]:
    """``fault_id``, template, target function (+ outcome class when executed)."""
    payload = envelope.get("payload") or {}
    fault = payload.get("fault") or {}
    fields = {
        "status": envelope.get("status"),
        "fault_id": fault.get("fault_id"),
        "template": (fault.get("actions") or {}).get("template"),
        "function": ((fault.get("spec") or {}).get("target") or {}).get("function"),
    }
    outcome = payload.get("outcome")
    if outcome is not None:
        fields["failure_mode"] = outcome.get("failure_mode")
        fields["activated"] = outcome.get("activated")
    return fields


def digest(fields: dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:8]


_COVERAGE_KEYS = ("covered_fault_types", "satisfied_scenarios", "total_scenarios")
_EFFECTIVENESS_KEYS = ("total", "activated", "failures", "distinct_failure_modes", "by_mode")


def technique_fields(result: dict[str, Any]) -> dict[str, Any]:
    coverage = result.get("coverage") or {}
    effect = result.get("effectiveness") or {}
    return {
        "coverage": {key: coverage.get(key) for key in _COVERAGE_KEYS},
        "effectiveness": {key: effect.get(key) for key in _EFFECTIVENESS_KEYS},
    }


def campaign_fields(envelope: dict[str, Any]) -> dict[str, Any]:
    """Per-technique coverage/effectiveness counts of a campaign envelope."""
    payload = envelope.get("payload") or {}
    techniques = payload.get("techniques") or {}
    return {
        "status": envelope.get("status"),
        "techniques": {name: technique_fields(result) for name, result in sorted(techniques.items())},
    }


def dataset_fields(envelope: dict[str, Any]) -> dict[str, Any]:
    payload = envelope.get("payload") or {}
    return {"status": envelope.get("status"), "records": payload.get("records")}


def rlhf_fields(envelope: dict[str, Any]) -> dict[str, Any]:
    """Counts only: ratings of sampled candidates depend on their run times."""
    payload = envelope.get("payload") or {}
    report = payload.get("report") or {}
    return {
        "status": envelope.get("status"),
        "prompts": payload.get("prompts"),
        "iterations": len(report.get("iterations") or ()),
    }


FIELDS = {"generate": generate_fields, "campaign": campaign_fields,
          "dataset": dataset_fields, "rlhf": rlhf_fields}


def load(workload: str) -> dict[str, Any]:
    """The committed golden of ``workload`` (empty when none was captured)."""
    path = os.path.join(GOLDEN_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


def save(workload: str, golden: dict[str, Any]) -> str:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    path = os.path.join(GOLDEN_DIR, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(golden, stream, sort_keys=True, separators=(",", ":"))
        stream.write("\n")
    return path


def expected(workload: str, gold: dict[str, Any], key: str) -> Any:
    """The golden entry of request ``key`` (``None`` when there is none)."""
    if workload == "generate":
        if key.isdigit():
            catalog = gold.get("catalog", ())
            return catalog[int(key)] if int(key) < len(catalog) else None
        return gold.get("warm", {}).get(key)
    # "<entry>@<cycle>" falls back to "<entry>" when RLHF never moved it.
    return gold.get(key, gold.get(key.split("@")[0]))


def observed(workload: str, fields: dict[str, Any] | None) -> Any:
    """What is compared with :func:`expected` (a digest for generate)."""
    if workload == "generate":
        return digest(fields) if fields else None
    return fields


def mismatches(workload: str, gold: dict[str, Any], pairs) -> list[str]:
    """One line per ``(key, fields)`` pair that differs from the golden."""
    lines = []
    for key, fields in pairs:
        want, got = expected(workload, gold, key), observed(workload, fields)
        if want is None or want != got:
            lines.append(f"{key}: expected {want!r}, got {got!r}")
    return lines
