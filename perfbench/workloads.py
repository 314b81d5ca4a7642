"""The three seeded workloads: request catalogs, warm-ups and schedules.

Every request the server sees comes from a finite catalog whose entries
have committed goldens (``perfbench/golden/``); ``--seed`` only chooses
which entries are sent, in which order and, for the open loop, when.

* ``generate`` — closed loop, 2 connections, sync ``POST /v1/generate``
  over all 4 targets.  :data:`REPEAT_SHARE` of requests repeat an earlier
  description (engine caches hit), the rest draw a catalog entry not sent
  before in this run (caches miss).  About :data:`SAMPLED_SHARE` of the
  catalog is sampled (``greedy=false`` with a per-entry ``seed``).  Loads
  server, api, nlp and llm with zero sandbox work.
* ``execute`` — open loop, seeded Poisson arrivals at :data:`EXECUTE_RATE`
  req/s, ``POST ?async=1`` then polling; generate+execute with ``mode``
  unset, so the default plane runs it.  A small repeated description set;
  the hang-prone requests (one deadlock, one infinite loop) sit at fixed
  positions (:data:`EXECUTE_HANG_POSITION`) so every seed stalls the plane
  the same way; some delay faults finish inside the sandbox budget as
  DEGRADED.
* ``campaign`` — closed loop, 1 connection, a fixed-shape cycle of the
  paper's experiments in a fixed order: a neural/predefined/random
  ``CampaignRequest`` for both scenario sets of each target, one validated
  ``DatasetRequest`` (seeded target) and one ``RLHFRequest``.  RLHF updates
  the shared policy, so cycle ``c``'s RLHF request is the same for every
  seed and the neural results are golden per (entry, RLHF updates so far).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any

from stats import poisson_offsets

TARGETS = ("bank", "kvstore", "queue", "ecommerce")

# -- generate ---------------------------------------------------------------

#: Real functions of each target (classes and reset helpers left out).
FUNCTIONS = {
    "bank": ("apply_interest", "audit_trail", "balance", "deposit", "freeze",
             "total_assets", "transfer", "withdraw"),
    "kvstore": ("close_store", "compact", "delete", "get", "put", "replay", "size",
                "stats", "write_snapshot_to"),
    "queue": ("acknowledge", "consume", "dead_letter_count", "delivered_ids",
              "negative_acknowledge", "pending", "process", "publish", "stats"),
    "ecommerce": ("apply_discount", "charge_payment", "close_session", "compute_total",
                  "open_session", "process_transaction", "refund_order",
                  "reserve_inventory", "revenue", "send_confirmation", "validate_cart"),
}

TEMPLATES = (
    "Simulate a timeout in the {fn} function causing an unhandled exception",
    "Raise an unexpected exception in {fn}",
    "Make the {fn} function silently swallow errors instead of raising them",
    "Remove the validation check from {fn}",
    "Silently corrupt the value returned by {fn}",
    "Make {fn} return a wrong value without raising",
    "Introduce an off-by-one error in {fn}",
    "Introduce a delay into {fn} that slows every call",
    "Simulate a network failure when {fn} contacts the upstream service",
    "Leak a file handle every time {fn} runs",
    "Cause a deadlock in {fn} by acquiring the lock twice",
    "Make {fn} loop forever",
)

#: Phrases that make a description new without naming another fault.
QUALIFIERS = (
    "", " during peak load", " when the input is large", " for new customers",
    " after a restart", " under memory pressure", " on the first call",
    " intermittently", " in production", " during the nightly batch",
    " for premium accounts", " when the cache is cold", " on weekends",
    " for small amounts", " right after deployment", " in the staging cluster",
    " when two clients race", " for the oldest records", " under heavy write traffic",
    " for international orders", " at the end of the month", " for empty inputs",
    " when the disk is almost full", " for long running sessions",
)

#: Share of generate requests that repeat an earlier description.
REPEAT_SHARE = 0.5
#: Every fourth entry of the other templates is decoded by sampling.  Sampled
#: network-failure faults are left out: their result depends on which
#: requests the server handled before (seen at the seed commit), so no
#: golden can pin them.
SAMPLED_EVERY = 4
UNSTABLE_WHEN_SAMPLED = "Simulate a network failure when {fn} contacts the upstream service"
#: Stated share of sampled generate requests (11 of 12 templates, 1 in 4).
SAMPLED_SHARE = (len(TEMPLATES) - 1) / len(TEMPLATES) / SAMPLED_EVERY
GENERATE_CONNECTIONS = 2


def generate_catalog() -> list[dict[str, Any]]:
    """Every generate request body the workload may send, by catalog index."""
    bodies = []
    eligible = 0
    for qualifier in QUALIFIERS:
        for template in TEMPLATES:
            for target in TARGETS:
                for fn in FUNCTIONS[target]:
                    body = {"description": template.format(fn=fn) + qualifier, "target": target}
                    if template != UNSTABLE_WHEN_SAMPLED:
                        if eligible % SAMPLED_EVERY == SAMPLED_EVERY - 1:
                            body.update(greedy=False, seed=len(bodies))
                        eligible += 1
                    bodies.append(body)
    return bodies


def generate_warmup() -> list[tuple[str, dict[str, Any]]]:
    """One request per target, outside the catalog so measured misses stay misses."""
    return [
        (f"warm-{target}", {
            "description": f"Raise an unexpected exception in {FUNCTIONS[target][0]} while warming up",
            "target": target,
        })
        for target in TARGETS
    ]


class GenerateSource:
    """Thread-safe stream of (catalog key, body) for the closed loop.

    ``usable`` holds the catalog indices with a golden; new requests walk a
    seeded permutation of them and wrap around only if a run outpaces it.
    """

    def __init__(self, seed: int, catalog: list[dict[str, Any]], usable: list[int]) -> None:
        self._rng = random.Random(f"generate:{seed}")
        self._order = list(usable)
        self._rng.shuffle(self._order)
        self._catalog = catalog
        self._sent: list[int] = []
        self._next = 0
        self._lock = threading.Lock()

    def next(self) -> tuple[str, dict[str, Any]]:
        with self._lock:
            if self._sent and self._rng.random() < REPEAT_SHARE:
                index = self._rng.choice(self._sent)
            else:
                index = self._order[self._next % len(self._order)]
                self._next += 1
                self._sent.append(index)
            return str(index), dict(self._catalog[index])


# -- execute ----------------------------------------------------------------

#: Open-loop arrival rate (req/s): sustained by the default plane when no
#: request is hang-prone.
EXECUTE_RATE = 2.0
#: Position (share of the request count) of the first hang-prone request; the
#: others follow it back to back, so each arrives while the previous one
#: still holds the plane and every seed stalls it the same way.
EXECUTE_HANG_POSITION = 0.125

#: (key, target, description): the repeated description set.  The expected
#: failure modes are pinned in the golden; delays land as DEGRADED well
#: inside the sandbox budget (0.4-1.5 s of workload time).
EXECUTE_CATALOG = (
    ("bank-timeout", "bank", "Simulate a timeout in the transfer function causing an unhandled exception"),
    ("bank-crash", "bank", "Raise an unexpected exception in balance"),
    ("bank-slow", "bank", "Introduce a delay into withdraw that slows every call"),
    ("bank-slower", "bank", "Introduce a delay into transfer that slows every call"),
    ("kvstore-raise", "kvstore", "Raise an unexpected exception in put"),
    ("kvstore-corrupt", "kvstore", "Silently corrupt the value returned by the get function"),
    ("kvstore-slow", "kvstore", "Introduce a delay into delete that slows every call"),
    ("kvstore-tiny-delay", "kvstore", "Introduce a delay of 0.01 seconds into get"),
    ("queue-raise", "queue", "Raise an unexpected exception in acknowledge"),
    ("queue-wrong", "queue", "Make the publish function return a wrong value without raising"),
    ("queue-timeout", "queue", "Simulate a timeout in the process function causing an unhandled exception"),
    ("queue-slow", "queue", "Introduce a delay of 0.01 seconds into publish"),
    ("ecommerce-crash", "ecommerce", "Raise an unexpected exception in compute_total"),
    ("ecommerce-check", "ecommerce", "Remove the validation check from validate_cart"),
    ("ecommerce-slow", "ecommerce", "Introduce a delay into compute_total that slows every call"),
    ("ecommerce-tiny-delay", "ecommerce", "Introduce a delay of 0.01 seconds into reserve_inventory"),
)
EXECUTE_HANG_CATALOG = (
    ("bank-deadlock", "bank", "Cause a deadlock in the withdraw function by acquiring the lock twice"),
    ("queue-infinite-loop", "queue", "Make the consume function hang in an infinite loop"),
)


def execute_body(target: str, description: str) -> dict[str, Any]:
    return {"description": description, "target": target, "execute": True}


def execute_entries() -> dict[str, dict[str, Any]]:
    """Every execute request body by golden key."""
    return {
        key: execute_body(target, description)
        for key, target, description in EXECUTE_CATALOG + EXECUTE_HANG_CATALOG
    }


def execute_warmup() -> list[tuple[str, dict[str, Any]]]:
    """The first catalog entry of each target (the set stays cache-warm)."""
    seen, warm = set(), []
    for key, target, description in EXECUTE_CATALOG:
        if target not in seen:
            seen.add(target)
            warm.append((key, execute_body(target, description)))
    return warm


@dataclass
class Arrival:
    key: str
    body: dict[str, Any]
    offset: float


def execute_schedule(seed: int, seconds: float) -> list[Arrival]:
    """Seeded Poisson arrivals; hang-prone entries sit at fixed positions."""
    rng = random.Random(f"execute:{seed}")
    count = max(len(EXECUTE_HANG_CATALOG) + 1, round(EXECUTE_RATE * seconds))
    offsets = poisson_offsets(rng, EXECUTE_RATE, count)
    first = min(count - len(EXECUTE_HANG_CATALOG), int(EXECUTE_HANG_POSITION * count))
    hang_at = {first + offset: entry for offset, entry in enumerate(EXECUTE_HANG_CATALOG)}
    # Draw the rest from reshuffled decks of the catalog, so each entry's
    # sandbox cost recurs about equally often whatever the seed.
    deck: list[tuple[str, str, str]] = []
    arrivals = []
    for index, offset in enumerate(offsets):
        entry = hang_at.get(index)
        if entry is None:
            if not deck:
                deck = list(EXECUTE_CATALOG)
                rng.shuffle(deck)
            entry = deck.pop()
        key, target, description = entry
        arrivals.append(Arrival(key, execute_body(target, description), offset))
    return arrivals


def hang_share(arrivals: list[Arrival]) -> float:
    """The stated share of hang-prone requests in a schedule."""
    hang_keys = {key for key, _, _ in EXECUTE_HANG_CATALOG}
    return sum(1 for arrival in arrivals if arrival.key in hang_keys) / len(arrivals)


# -- campaign ---------------------------------------------------------------

#: Two scenario sets per target; every cycle runs both.
CAMPAIGN_SCENARIOS = {
    "bank": (
        ("Simulate a timeout in the transfer function causing an unhandled exception",
         "Make the withdraw function silently swallow errors instead of raising them",
         "Silently corrupt the value returned by the balance function"),
        ("Raise an unexpected exception in deposit",
         "Remove the validation check from withdraw",
         "Make transfer return a wrong value without raising"),
    ),
    "kvstore": (
        ("Raise an unexpected exception in put",
         "Make the get function return a wrong value",
         "Remove the validation check from delete"),
        ("Simulate a timeout in the put function causing an unhandled exception",
         "Silently corrupt the value returned by the get function",
         "Make the delete function swallow errors"),
    ),
    "queue": (
        ("Raise an unexpected exception in acknowledge",
         "Silently corrupt the value returned by publish",
         "Make the process function swallow errors"),
        ("Simulate a timeout in the publish function causing an unhandled exception",
         "Remove the validation check from consume",
         "Make acknowledge return a wrong value without raising"),
    ),
    "ecommerce": (
        ("Simulate a timeout in charge_payment",
         "Make compute_total return a wrong value",
         "Remove the validation check from reserve_inventory"),
        ("Raise an unexpected exception in process_transaction",
         "Silently corrupt the value returned by compute_total",
         "Make refund_order swallow errors"),
    ),
}
DATASET_TARGETS = ("bank", "kvstore")
DATASET_SAMPLES = 3
RLHF_DESCRIPTIONS = {
    "bank": "Simulate a timeout in the transfer function",
    "kvstore": "Raise an unexpected exception in put",
    "queue": "Silently corrupt the value returned by publish",
    "ecommerce": "Make compute_total return a wrong value",
}
RLHF_ITERATIONS = 1
RLHF_CANDIDATES = 2
#: Cycles with committed goldens; a run stops early rather than outrun them.
CAMPAIGN_MAX_CYCLES = 12


@dataclass
class CampaignCall:
    """One campaign-workload request: route, body, golden key, faults it yields."""

    kind: str
    key: str
    body: dict[str, Any]
    faults: int | None = None  # known up front for RLHF; read from payloads otherwise


def campaign_entry(target: str, variant: int) -> CampaignCall:
    return CampaignCall(
        "campaign", f"campaign-{target}-{variant}",
        {"target": target, "scenarios": list(CAMPAIGN_SCENARIOS[target][variant])},
    )


def dataset_entry(target: str) -> CampaignCall:
    return CampaignCall(
        "dataset", f"dataset-{target}",
        {"targets": [target], "samples_per_target": DATASET_SAMPLES, "validate_candidates": True},
    )


def rlhf_entry(cycle: int) -> CampaignCall:
    target = TARGETS[cycle % len(TARGETS)]
    return CampaignCall(
        "rlhf", f"rlhf-{cycle}",
        {"descriptions": [RLHF_DESCRIPTIONS[target]], "target": target,
         "iterations": RLHF_ITERATIONS, "candidates_per_iteration": RLHF_CANDIDATES},
        faults=RLHF_ITERATIONS * RLHF_CANDIDATES,
    )


def campaign_warmup() -> list[CampaignCall]:
    """One small request per target and kind (it also moves the policy once)."""
    calls = [
        CampaignCall("campaign", f"warm-campaign-{target}",
                     {"target": target, "scenarios": [CAMPAIGN_SCENARIOS[target][0][0]], "budget": 1})
        for target in TARGETS
    ]
    calls.append(CampaignCall("dataset", "warm-dataset",
                              {"targets": ["queue"], "samples_per_target": 1, "validate_candidates": True}))
    calls.append(CampaignCall("rlhf", "warm-rlhf",
                              {"descriptions": [RLHF_DESCRIPTIONS["queue"]], "target": "queue",
                               "iterations": 1, "candidates_per_iteration": 1}, faults=1))
    return calls


def campaign_cycle(seed: int, cycle: int) -> list[CampaignCall]:
    """Cycle ``cycle``: every campaign entry, a seeded dataset, then RLHF.

    The order is fixed and every cycle holds the same amount of work, so a
    run's figures do not hinge on which entries the seed happened to draw;
    the seed picks each cycle's dataset target.
    """
    rng = random.Random(f"campaign:{seed}:{cycle}")
    calls = [campaign_entry(target, variant) for variant in (0, 1) for target in TARGETS]
    calls.append(dataset_entry(rng.choice(DATASET_TARGETS)))
    calls.append(rlhf_entry(cycle))
    return calls
