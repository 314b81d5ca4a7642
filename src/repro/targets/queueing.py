"""A message-queue / microservice pipeline target."""

from __future__ import annotations

import types
from typing import Any

from ..rng import WorkloadRNG
from .base import TargetSystem

_SOURCE = '''
"""A message broker with at-least-once delivery used as an injection target."""

import threading

_lock = threading.Lock()
_topics = {}
_dead_letter = []
_delivered = {}
_stats = {"published": 0, "consumed": 0, "acked": 0, "retried": 0}

MAX_DELIVERY_ATTEMPTS = 3


class TopicNotFoundError(Exception):
    """Raised when publishing to or consuming from a missing topic."""


def reset_broker(topics):
    """Reset the broker with the given topic names."""
    _topics.clear()
    _dead_letter.clear()
    _delivered.clear()
    for key in _stats:
        _stats[key] = 0
    for topic in topics:
        _topics[topic] = []


def publish(topic, payload):
    """Append a message to a topic; returns the message id."""
    if topic not in _topics:
        raise TopicNotFoundError("no such topic: " + topic)
    with _lock:
        message_id = _stats["published"] + 1
        _stats["published"] += 1
        _topics[topic].append({"id": message_id, "payload": payload, "attempts": 0})
    return message_id


def consume(topic):
    """Take the oldest message from a topic (None when empty)."""
    if topic not in _topics:
        raise TopicNotFoundError("no such topic: " + topic)
    with _lock:
        if not _topics[topic]:
            return None
        message = _topics[topic].pop(0)
        message["attempts"] += 1
        _stats["consumed"] += 1
    return message


def acknowledge(topic, message):
    """Mark a message as successfully processed exactly once."""
    with _lock:
        _delivered.setdefault(topic, []).append(message["id"])
        _stats["acked"] += 1
    return True


def negative_acknowledge(topic, message):
    """Return a message to its topic for redelivery, or dead-letter it."""
    if message["attempts"] >= MAX_DELIVERY_ATTEMPTS:
        _dead_letter.append(message)
        return False
    with _lock:
        _topics[topic].insert(0, message)
        _stats["retried"] += 1
    return True


def process(topic, handler):
    """Consume one message and run ``handler`` on it with retry-on-error."""
    message = consume(topic)
    if message is None:
        return None
    try:
        result = handler(message["payload"])
    except Exception:
        negative_acknowledge(topic, message)
        return None
    acknowledge(topic, message)
    return result


def pending(topic):
    """Number of messages waiting in a topic."""
    if topic not in _topics:
        raise TopicNotFoundError("no such topic: " + topic)
    return len(_topics[topic])


def delivered_ids(topic):
    """Message ids acknowledged for a topic."""
    return list(_delivered.get(topic, []))


def dead_letter_count():
    """Number of messages routed to the dead-letter queue."""
    return len(_dead_letter)


def stats():
    """Copy of the broker counters."""
    return dict(_stats)
'''


class QueueTarget(TargetSystem):
    """Message broker with acknowledgements, retries, and a dead-letter queue."""

    name = "queue"
    description = "Message queue pipeline (publish, consume, ack, retry, dead-letter)"

    _TOPICS = ("orders", "emails")

    def _build_source(self) -> str:
        return _SOURCE

    def run_workload(self, module: types.ModuleType, iterations: int, rng: WorkloadRNG) -> dict[str, Any]:
        module.reset_broker(list(self._TOPICS))
        detected_errors = 0
        published = 0
        handled_payloads: list[int] = []
        flaky_state = {"count": 0}

        def handler(payload: int) -> int:
            flaky_state["count"] += 1
            if payload % 13 == 0:
                raise RuntimeError("handler rejected payload")
            handled_payloads.append(payload)
            return payload * 2

        for step in range(iterations):
            topic = rng.choice(list(self._TOPICS))
            payload = rng.randint(1, 10_000)
            try:
                module.publish(topic, payload)
                published += 1
            except module.TopicNotFoundError:
                detected_errors += 1
            try:
                module.process(topic, handler)
            except module.TopicNotFoundError:
                detected_errors += 1
        # Drain whatever is left so every message reaches a terminal state.
        for topic in self._TOPICS:
            guard = 0
            while module.pending(topic) > 0 and guard < iterations * 4:
                module.process(topic, handler)
                guard += 1
        stats = module.stats()
        delivered = sum(len(module.delivered_ids(topic)) for topic in self._TOPICS)
        duplicates = delivered - len(
            set(message_id for topic in self._TOPICS for message_id in module.delivered_ids(topic))
        )
        remaining = sum(module.pending(topic) for topic in self._TOPICS)
        return {
            "detected_errors": detected_errors,
            "published": published,
            "delivered": delivered,
            "dead_lettered": module.dead_letter_count(),
            "remaining": remaining,
            "duplicates": duplicates,
            "handled": len(handled_payloads),
            "stats": stats,
        }

    def check_invariants(self, module: types.ModuleType, metrics: dict[str, Any]) -> list[str]:
        def number(key: str) -> float:
            value = metrics.get(key, 0)
            return 0 if not isinstance(value, (int, float)) else value

        violations: list[str] = []
        accounted = number("delivered") + number("dead_lettered") + number("remaining")
        if accounted < number("published"):
            violations.append(
                f"messages lost: published {metrics.get('published')} but only {accounted} accounted for"
            )
        if metrics.get("duplicates", 0) > 0:
            violations.append(f"{metrics['duplicates']} messages acknowledged more than once")
        if metrics.get("remaining", 0) > 0:
            violations.append(f"{metrics['remaining']} messages stuck in topics after draining")
        return violations
