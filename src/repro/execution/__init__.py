"""Campaign execution engine: persistent worker pools and analysis caches.

Components:

* :class:`WorkerPool` — persistent sandbox worker processes with per-task
  timeouts and deterministic, submission-ordered results;
* :class:`HashKeyedCache` / :func:`cache_stats` — hash-keyed memoization used
  by AST parsing, code analysis, and target source construction;
* :func:`resolve_workers` / :func:`worker_cap` — CPU-derived pool sizing;
* :class:`SandboxSlots` — a sandbox runner's cap on running sandbox
  workloads, shared by every thread that drives the runner.
"""

from .cache import CacheStats, HashKeyedCache, cache_stats, clear_all_caches, get_cache
from .pool import WorkerPool, resolve_workers, worker_cap
from .slots import SandboxSlots

__all__ = [
    "CacheStats",
    "HashKeyedCache",
    "SandboxSlots",
    "WorkerPool",
    "cache_stats",
    "clear_all_caches",
    "get_cache",
    "resolve_workers",
    "worker_cap",
]
