"""Domain lexicon for the fault-description language.

The lexicon encodes the vocabulary testers use when describing fault scenarios
("timeout", "race condition", "retry", "when the cart is empty", ...) and maps
it onto the structured concepts of the library: fault types, handling styles,
trigger kinds, and entity labels.  It is deliberately data-only so that the
tagger, the NER, and the spec extractor can share one source of truth and so
tests can probe it directly.
"""

from __future__ import annotations

from ..types import FaultType, HandlingStyle, TriggerKind

# ---------------------------------------------------------------------------
# Fault-type keywords.  Multi-word phrases are matched before single words by
# the entity recogniser; scores express how strongly a phrase indicates the
# fault type when several candidates compete.
# ---------------------------------------------------------------------------

FAULT_TYPE_PHRASES: dict[str, tuple[FaultType, float]] = {
    "race condition": (FaultType.RACE_CONDITION, 3.0),
    "data race": (FaultType.RACE_CONDITION, 3.0),
    "lost update": (FaultType.RACE_CONDITION, 2.5),
    "concurrent access": (FaultType.RACE_CONDITION, 2.0),
    "missing lock": (FaultType.RACE_CONDITION, 2.5),
    "deadlock": (FaultType.DEADLOCK, 3.0),
    "memory leak": (FaultType.MEMORY_LEAK, 3.0),
    "leaks memory": (FaultType.MEMORY_LEAK, 3.0),
    "unbounded growth": (FaultType.MEMORY_LEAK, 2.5),
    "resource leak": (FaultType.RESOURCE_LEAK, 3.0),
    "connection leak": (FaultType.RESOURCE_LEAK, 2.8),
    "file handle leak": (FaultType.RESOURCE_LEAK, 2.8),
    "never closed": (FaultType.RESOURCE_LEAK, 2.2),
    "not released": (FaultType.RESOURCE_LEAK, 2.2),
    "off by one": (FaultType.OFF_BY_ONE, 3.0),
    "off-by-one": (FaultType.OFF_BY_ONE, 3.0),
    "boundary error": (FaultType.OFF_BY_ONE, 2.0),
    "fencepost": (FaultType.OFF_BY_ONE, 2.0),
    "skips the last": (FaultType.OFF_BY_ONE, 2.2),
    "timeout": (FaultType.TIMEOUT, 2.5),
    "times out": (FaultType.TIMEOUT, 2.5),
    "time out": (FaultType.TIMEOUT, 2.5),
    "timed out": (FaultType.TIMEOUT, 2.5),
    "deadline exceeded": (FaultType.TIMEOUT, 2.2),
    "unhandled exception": (FaultType.EXCEPTION, 2.5),
    "uncaught exception": (FaultType.EXCEPTION, 2.5),
    "throws an exception": (FaultType.EXCEPTION, 2.0),
    "raises an exception": (FaultType.EXCEPTION, 2.0),
    "crash": (FaultType.EXCEPTION, 1.5),
    "crashes": (FaultType.EXCEPTION, 1.5),
    "swallowed exception": (FaultType.SWALLOWED_EXCEPTION, 3.0),
    "silently ignores": (FaultType.SWALLOWED_EXCEPTION, 2.5),
    "swallows the error": (FaultType.SWALLOWED_EXCEPTION, 2.8),
    "error is ignored": (FaultType.SWALLOWED_EXCEPTION, 2.5),
    "infinite loop": (FaultType.INFINITE_LOOP, 3.0),
    "never terminates": (FaultType.INFINITE_LOOP, 2.5),
    "hangs": (FaultType.INFINITE_LOOP, 1.8),
    "spins forever": (FaultType.INFINITE_LOOP, 2.5),
    "wrong value": (FaultType.WRONG_VALUE, 2.0),
    "incorrect value": (FaultType.WRONG_VALUE, 2.0),
    "wrong parameter": (FaultType.WRONG_VALUE, 2.2),
    "wrong argument": (FaultType.WRONG_VALUE, 2.2),
    "wrong condition": (FaultType.WRONG_CONDITION, 2.5),
    "inverted condition": (FaultType.WRONG_CONDITION, 2.5),
    "negate the condition": (FaultType.WRONG_CONDITION, 2.8),
    "negate the branch": (FaultType.WRONG_CONDITION, 2.8),
    "negated condition": (FaultType.WRONG_CONDITION, 2.8),
    "inverts its control flow": (FaultType.WRONG_CONDITION, 2.5),
    "wrong branch": (FaultType.WRONG_CONDITION, 2.2),
    "branch condition": (FaultType.WRONG_CONDITION, 1.8),
    "logic error": (FaultType.WRONG_CONDITION, 1.8),
    "missing check": (FaultType.MISSING_CHECK, 2.8),
    "missing validation": (FaultType.MISSING_CHECK, 2.8),
    "skips validation": (FaultType.MISSING_CHECK, 2.5),
    "does not validate": (FaultType.MISSING_CHECK, 2.5),
    "without checking": (FaultType.MISSING_CHECK, 2.2),
    "remove the validation": (FaultType.MISSING_CHECK, 2.8),
    "remove the check": (FaultType.MISSING_CHECK, 2.8),
    "remove the overdraft validation": (FaultType.MISSING_CHECK, 3.0),
    "validation check": (FaultType.MISSING_CHECK, 1.5),
    "skip its input validation": (FaultType.MISSING_CHECK, 2.8),
    "accepts invalid input": (FaultType.MISSING_CHECK, 2.2),
    "missing call": (FaultType.MISSING_CALL, 2.8),
    "forgets to call": (FaultType.MISSING_CALL, 2.8),
    "never calls": (FaultType.MISSING_CALL, 2.5),
    "omits the call": (FaultType.MISSING_CALL, 2.5),
    "missing return": (FaultType.MISSING_RETURN, 2.8),
    "forgets to return": (FaultType.MISSING_RETURN, 2.8),
    "returns nothing": (FaultType.MISSING_RETURN, 2.2),
    "wrong return": (FaultType.WRONG_RETURN, 2.5),
    "returns the wrong": (FaultType.WRONG_RETURN, 2.5),
    "return the wrong": (FaultType.WRONG_RETURN, 2.5),
    "returns an incorrect": (FaultType.WRONG_RETURN, 2.5),
    "return an incorrect": (FaultType.WRONG_RETURN, 2.5),
    "data corruption": (FaultType.DATA_CORRUPTION, 2.8),
    "corrupted data": (FaultType.DATA_CORRUPTION, 2.8),
    "corrupts": (FaultType.DATA_CORRUPTION, 2.0),
    "silent corruption": (FaultType.DATA_CORRUPTION, 3.0),
    "silently corrupt": (FaultType.DATA_CORRUPTION, 3.0),
    "corrupt the": (FaultType.DATA_CORRUPTION, 2.2),
    "wrong results": (FaultType.DATA_CORRUPTION, 1.8),
    "buffer overflow": (FaultType.DATA_CORRUPTION, 2.0),
    "network failure": (FaultType.NETWORK_FAILURE, 2.8),
    "network outage": (FaultType.NETWORK_FAILURE, 2.8),
    "connection refused": (FaultType.NETWORK_FAILURE, 2.5),
    "connection error": (FaultType.NETWORK_FAILURE, 2.3),
    "network partition": (FaultType.NETWORK_FAILURE, 2.8),
    "unreachable": (FaultType.NETWORK_FAILURE, 1.8),
    "service outage": (FaultType.NETWORK_FAILURE, 2.0),
    "disk failure": (FaultType.DISK_FAILURE, 2.8),
    "disk full": (FaultType.DISK_FAILURE, 2.5),
    "i/o error": (FaultType.DISK_FAILURE, 2.3),
    "io error": (FaultType.DISK_FAILURE, 2.3),
    "write failure": (FaultType.DISK_FAILURE, 2.2),
    "slow response": (FaultType.DELAY, 2.2),
    "latency spike": (FaultType.DELAY, 2.5),
    "high latency": (FaultType.DELAY, 2.3),
    "slowdown": (FaultType.DELAY, 2.0),
    "delay": (FaultType.DELAY, 1.5),
    "transient failure": (FaultType.TIMEOUT, 1.8),
}

# Single-word fallbacks used when no phrase matched.
FAULT_TYPE_WORDS: dict[str, tuple[FaultType, float]] = {
    "timeout": (FaultType.TIMEOUT, 2.0),
    "exception": (FaultType.EXCEPTION, 1.2),
    "unhandled": (FaultType.EXCEPTION, 1.2),
    "uncaught": (FaultType.EXCEPTION, 1.2),
    "raise": (FaultType.EXCEPTION, 0.8),
    "raises": (FaultType.EXCEPTION, 0.8),
    "error": (FaultType.EXCEPTION, 0.6),
    "fail": (FaultType.EXCEPTION, 0.6),
    "fails": (FaultType.EXCEPTION, 0.6),
    "failure": (FaultType.EXCEPTION, 0.6),
    "leak": (FaultType.RESOURCE_LEAK, 1.5),
    "leaks": (FaultType.RESOURCE_LEAK, 1.5),
    "hang": (FaultType.INFINITE_LOOP, 1.5),
    "hangs": (FaultType.INFINITE_LOOP, 1.5),
    "deadlock": (FaultType.DEADLOCK, 2.5),
    "race": (FaultType.RACE_CONDITION, 1.5),
    "corruption": (FaultType.DATA_CORRUPTION, 1.8),
    "slow": (FaultType.DELAY, 1.0),
    "latency": (FaultType.DELAY, 1.5),
    "crash": (FaultType.EXCEPTION, 1.2),
    "overflow": (FaultType.DATA_CORRUPTION, 1.2),
}

# ---------------------------------------------------------------------------
# Handling-style cues (also used to parse RLHF feedback critiques).
# ---------------------------------------------------------------------------

HANDLING_PHRASES: dict[str, HandlingStyle] = {
    "retry mechanism": HandlingStyle.RETRY,
    "retry logic": HandlingStyle.RETRY,
    "retrying": HandlingStyle.RETRY,
    "retries": HandlingStyle.RETRY,
    "retry": HandlingStyle.RETRY,
    "instead of just logging": HandlingStyle.RETRY,
    "fallback": HandlingStyle.FALLBACK,
    "fall back": HandlingStyle.FALLBACK,
    "default value": HandlingStyle.FALLBACK,
    "degrade gracefully": HandlingStyle.FALLBACK,
    "graceful degradation": HandlingStyle.FALLBACK,
    "re-raise": HandlingStyle.RERAISE,
    "reraise": HandlingStyle.RERAISE,
    "propagate the error": HandlingStyle.RERAISE,
    "propagate the exception": HandlingStyle.RERAISE,
    "bubble up": HandlingStyle.RERAISE,
    "just logging": HandlingStyle.LOGGED_ONLY,
    "only logs": HandlingStyle.LOGGED_ONLY,
    "log the error": HandlingStyle.LOGGED_ONLY,
    "logs the error": HandlingStyle.LOGGED_ONLY,
    "logging the error": HandlingStyle.LOGGED_ONLY,
    "unhandled": HandlingStyle.UNHANDLED,
    "uncaught": HandlingStyle.UNHANDLED,
    "no error handling": HandlingStyle.UNHANDLED,
    "without handling": HandlingStyle.UNHANDLED,
    "not handled": HandlingStyle.UNHANDLED,
}

# ---------------------------------------------------------------------------
# Trigger cues.
# ---------------------------------------------------------------------------

TRIGGER_CONDITIONAL_MARKERS: tuple[str, ...] = (
    "when",
    "whenever",
    "if",
    "in case",
    "once",
    "as soon as",
    "while",
)

TRIGGER_PROBABILISTIC_MARKERS: tuple[str, ...] = (
    "sometimes",
    "occasionally",
    "intermittently",
    "randomly",
    "of the time",
    "percent of",
    "% of",
    "with probability",
)

TRIGGER_NTH_CALL_MARKERS: tuple[str, ...] = (
    "every",
    "nth call",
    "each time after",
    "th call",
    "rd call",
    "nd call",
    "st call",
    "after the first",
)

# ---------------------------------------------------------------------------
# Entity cues.
# ---------------------------------------------------------------------------

COMPONENT_WORDS: frozenset[str] = frozenset(
    {
        "database", "db", "cache", "queue", "broker", "service", "microservice",
        "server", "client", "api", "endpoint", "gateway", "storage", "disk",
        "network", "socket", "connection", "transaction", "session", "thread",
        "process", "worker", "scheduler", "dispatcher", "handler", "listener",
        "producer", "consumer", "publisher", "subscriber", "replica", "shard",
        "node", "cluster", "pipeline", "buffer", "pool", "ledger", "inventory",
        "cart", "checkout", "payment", "order", "account", "balance", "message",
        "topic", "partition", "table", "index", "lock", "mutex", "semaphore",
        "file", "filesystem", "bucket", "cloud", "container", "pod",
    }
)

RESOURCE_WORDS: frozenset[str] = frozenset(
    {
        "connection", "file", "handle", "socket", "lock", "cursor", "session",
        "descriptor", "buffer", "memory", "thread", "channel", "stream",
    }
)

ACTION_WORDS: frozenset[str] = frozenset(
    {
        "introduce", "inject", "simulate", "emulate", "cause", "trigger",
        "generate", "create", "add", "insert", "remove", "drop", "delete",
        "corrupt", "delay", "fail", "raise", "throw", "skip", "omit", "forget",
        "swallow", "ignore", "leak", "block", "hang", "crash", "abort",
        "retry", "return", "make",
    }
)

STOPWORDS: frozenset[str] = frozenset(
    {
        "a", "an", "the", "of", "in", "on", "at", "to", "for", "from", "by",
        "with", "within", "into", "is", "are", "was", "were", "be", "been",
        "being", "it", "its", "this", "that", "these", "those", "and", "or",
        "but", "so", "because", "due", "as", "such", "where", "which", "who",
        "should", "would", "could", "can", "may", "might", "will", "shall",
        "do", "does", "did", "not", "no", "we", "i", "you", "they", "there",
        "here", "function", "method", "between",
    }
)

# Common exception class names recognised as entities and usable as generation
# parameters ("raise a KeyError", "fails with ConnectionError").
KNOWN_EXCEPTIONS: frozenset[str] = frozenset(
    {
        "Exception", "RuntimeError", "ValueError", "TypeError", "KeyError",
        "IndexError", "AttributeError", "TimeoutError", "ConnectionError",
        "ConnectionResetError", "ConnectionRefusedError", "OSError", "IOError",
        "FileNotFoundError", "PermissionError", "MemoryError", "OverflowError",
        "ZeroDivisionError", "StopIteration", "NotImplementedError",
        "InterruptedError", "BrokenPipeError", "LookupError", "ArithmeticError",
    }
)

FAULT_TYPE_DEFAULT_EXCEPTIONS: dict[FaultType, str] = {
    FaultType.TIMEOUT: "TimeoutError",
    FaultType.EXCEPTION: "RuntimeError",
    FaultType.NETWORK_FAILURE: "ConnectionError",
    FaultType.DISK_FAILURE: "OSError",
}

NUMBER_WORDS: dict[str, int] = {
    "zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10, "twice": 2,
    "first": 1, "second": 2, "third": 3, "fourth": 4, "fifth": 5,
}

TIME_UNIT_SECONDS: dict[str, float] = {
    "second": 1.0, "seconds": 1.0, "sec": 1.0, "secs": 1.0, "s": 1.0,
    "millisecond": 0.001, "milliseconds": 0.001, "ms": 0.001,
    "minute": 60.0, "minutes": 60.0, "min": 60.0, "mins": 60.0,
}
