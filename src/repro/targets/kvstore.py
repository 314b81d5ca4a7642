"""An in-memory key-value store target with persistence and compaction."""

from __future__ import annotations

import types
from typing import Any

from ..rng import WorkloadRNG
from .base import TargetSystem

_SOURCE = '''
"""A write-ahead-logged in-memory key-value store used as an injection target."""

import threading

_lock = threading.Lock()
_data = {}
_wal = []
_snapshots = []
_stats = {"puts": 0, "gets": 0, "deletes": 0, "compactions": 0}


class StoreClosedError(Exception):
    """Raised when operating on a store that has been shut down."""


_state = {"open": True}


def reset_store():
    """Clear all data, the write-ahead log, and statistics."""
    _data.clear()
    _wal.clear()
    _snapshots.clear()
    _state["open"] = True
    for key in _stats:
        _stats[key] = 0


def _ensure_open():
    if not _state["open"]:
        raise StoreClosedError("store is closed")


def put(key, value):
    """Insert or update a key, appending the operation to the write-ahead log."""
    _ensure_open()
    if key is None:
        raise ValueError("key must not be None")
    with _lock:
        _wal.append(("put", key, value))
        _data[key] = value
        _stats["puts"] += 1
    return value


def get(key, default=None):
    """Read a key, returning ``default`` when absent."""
    _ensure_open()
    _stats["gets"] += 1
    if key in _data:
        return _data[key]
    return default


def delete(key):
    """Remove a key; returns True if it existed."""
    _ensure_open()
    with _lock:
        if key not in _data:
            return False
        _wal.append(("delete", key, None))
        del _data[key]
        _stats["deletes"] += 1
        return True


def compact():
    """Fold the write-ahead log into a snapshot and truncate it."""
    _ensure_open()
    with _lock:
        snapshot = dict(_data)
        _snapshots.append(snapshot)
        del _wal[:]
        _stats["compactions"] += 1
    return len(snapshot)


def replay():
    """Rebuild the dataset from the latest snapshot plus the write-ahead log."""
    state = dict(_snapshots[-1]) if _snapshots else {}
    for operation, key, value in _wal:
        if operation == "put":
            state[key] = value
        elif operation == "delete" and key in state:
            del state[key]
    return state


def write_snapshot_to(path):
    """Persist the latest state to disk (line-per-entry text format)."""
    handle = open(path, "w")
    for key in sorted(_data):
        handle.write(str(key) + "=" + str(_data[key]) + "\\n")
    handle.flush()
    handle.close()
    return len(_data)


def size():
    """Number of live keys."""
    return len(_data)


def close_store():
    """Shut the store down; subsequent operations fail fast."""
    _state["open"] = False


def stats():
    """Copy of the operation counters."""
    return dict(_stats)
'''


class KVStoreTarget(TargetSystem):
    """Key-value store with a write-ahead log, compaction, and recovery."""

    name = "kvstore"
    description = "In-memory key-value store with WAL, compaction, and snapshot recovery"

    def _build_source(self) -> str:
        return _SOURCE

    def run_workload(self, module: types.ModuleType, iterations: int, rng: WorkloadRNG) -> dict[str, Any]:
        module.reset_store()
        shadow: dict[str, int] = {}
        detected_errors = 0
        read_mismatches = 0
        for step in range(iterations):
            key = f"key-{rng.randint(0, 12)}"
            operation = rng.choice(["put", "put", "get", "delete", "compact"])
            try:
                if operation == "put":
                    value = rng.randint(0, 1000)
                    module.put(key, value)
                    shadow[key] = value
                elif operation == "get":
                    observed = module.get(key, default=None)
                    expected = shadow.get(key)
                    if observed != expected:
                        read_mismatches += 1
                elif operation == "delete":
                    module.delete(key)
                    shadow.pop(key, None)
                else:
                    module.compact()
            except (ValueError, module.StoreClosedError):
                detected_errors += 1
        recovered = module.replay()
        return {
            "detected_errors": detected_errors,
            "read_mismatches": read_mismatches,
            "live_keys": module.size(),
            "expected_keys": len(shadow),
            "recovered_keys": len(recovered),
            "recovery_matches": recovered == dict(module._data),
            "shadow_matches": shadow == dict(module._data),
            "stats": module.stats(),
        }

    def check_invariants(self, module: types.ModuleType, metrics: dict[str, Any]) -> list[str]:
        violations: list[str] = []
        if metrics.get("read_mismatches", 0) > 0:
            violations.append(f"{metrics['read_mismatches']} reads returned stale or wrong values")
        if not metrics.get("shadow_matches", True):
            violations.append("store contents diverge from the reference shadow copy")
        if metrics.get("live_keys") != metrics.get("expected_keys"):
            violations.append(
                f"live key count {metrics.get('live_keys')} != expected {metrics.get('expected_keys')}"
            )
        if not metrics.get("recovery_matches", True):
            violations.append("replaying the WAL over the snapshot does not reproduce the live data")
        return violations
