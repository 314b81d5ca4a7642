"""The e-commerce order service target (the paper's running-example domain)."""

from __future__ import annotations

import types
from typing import Any

from ..rng import WorkloadRNG
from .base import TargetSystem

_SOURCE = '''
"""A small e-commerce order service used as a fault-injection target."""

import threading
import time

PAYMENT_GATEWAY_FEE = 0.02

_lock = threading.Lock()
_inventory = {}
_orders = {}
_audit_log = []
_sessions = []
_next_order_id = [1]


class PaymentError(Exception):
    """Raised when the (simulated) payment gateway declines a charge."""


class Session:
    """A connection-like resource that must be closed after use."""

    def __init__(self):
        self.open = True

    def close(self):
        self.open = False


def reset_state(stock):
    """Reset inventory and order state; ``stock`` maps sku -> (price, quantity)."""
    _inventory.clear()
    _orders.clear()
    _audit_log.clear()
    _sessions.clear()
    _next_order_id[0] = 1
    for sku, (price, quantity) in stock.items():
        _inventory[sku] = {"price": price, "quantity": quantity}


def open_session():
    """Open a connection-like session; callers must close it."""
    session = Session()
    _sessions.append(session)
    return session


def close_session(session):
    """Release a session's underlying resources."""
    session.close()


def validate_cart(cart):
    """Reject empty carts, unknown items, and non-positive quantities."""
    if not cart:
        raise ValueError("cart is empty")
    for item in cart:
        if item["sku"] not in _inventory:
            raise ValueError("unknown sku: " + item["sku"])
        if item["qty"] <= 0:
            raise ValueError("quantity must be positive")


def apply_discount(total, tier):
    """Tiered discount: gold 10%, silver 5%, otherwise none."""
    if tier == "gold":
        return total * 0.9
    if tier == "silver":
        return total * 0.95
    return total


def compute_total(cart, tier):
    """Total price of the cart after discount and gateway fee."""
    total = 0.0
    for index in range(len(cart)):
        item = cart[index]
        price = _inventory[item["sku"]]["price"]
        total = total + price * item["qty"]
    total = apply_discount(total, tier)
    total = total + total * PAYMENT_GATEWAY_FEE
    return round(total, 2)


def reserve_inventory(cart):
    """Atomically decrement stock for every item in the cart."""
    with _lock:
        for item in cart:
            entry = _inventory[item["sku"]]
            if entry["quantity"] < item["qty"]:
                raise ValueError("insufficient stock for " + item["sku"])
        for item in cart:
            _inventory[item["sku"]]["quantity"] -= item["qty"]


def charge_payment(amount):
    """Charge the payment gateway; declines non-positive amounts."""
    if amount <= 0:
        raise PaymentError("amount must be positive")
    return {"charged": amount, "status": "ok"}


def send_confirmation(order_id):
    """Send an order confirmation over the (simulated) network."""
    _audit_log.append(("confirmation_sent", order_id))
    return True


def process_transaction(transaction_details):
    """Process a customer purchase end to end and return a receipt."""
    cart = transaction_details["cart"]
    tier = transaction_details.get("tier", "standard")
    validate_cart(cart)
    total = compute_total(cart, tier)
    session = open_session()
    try:
        reserve_inventory(cart)
        charge_payment(total)
        with _lock:
            order_id = _next_order_id[0]
            _next_order_id[0] += 1
            _orders[order_id] = {"total": total, "items": sum(i["qty"] for i in cart)}
        send_confirmation(order_id)
    finally:
        close_session(session)
    return {"order_id": order_id, "total": total}


def refund_order(order_id):
    """Refund an order and mark it as refunded in the ledger."""
    if order_id not in _orders:
        raise KeyError("unknown order")
    order = _orders[order_id]
    if order.get("refunded"):
        raise ValueError("order already refunded")
    with _lock:
        order["refunded"] = True
    _audit_log.append(("refund", order_id))
    return order["total"]


def revenue():
    """Total revenue of all non-refunded orders."""
    total = 0.0
    for order in _orders.values():
        if not order.get("refunded"):
            total = total + order["total"]
    return round(total, 2)


def open_sessions():
    """Number of sessions that were never closed."""
    count = 0
    for session in _sessions:
        if session.open:
            count = count + 1
    return count
'''


class EcommerceTarget(TargetSystem):
    """Order-processing service with payments, inventory, and refunds."""

    name = "ecommerce"
    description = "E-commerce order service (process_transaction, refunds, inventory)"

    _STOCK = {
        "book": (15.0, 500),
        "lamp": (40.0, 300),
        "mug": (8.0, 800),
        "desk": (120.0, 100),
    }

    def _build_source(self) -> str:
        return _SOURCE

    def run_workload(self, module: types.ModuleType, iterations: int, rng: WorkloadRNG) -> dict[str, Any]:
        module.reset_state(dict(self._STOCK))
        skus = sorted(self._STOCK)
        tiers = ["standard", "silver", "gold"]
        placed = 0
        detected_errors = 0
        refunds = 0
        expected_units = 0
        total_mismatches = 0
        expected_revenue = 0.0
        order_ids: list[int] = []
        for step in range(iterations):
            cart = []
            for _ in range(rng.randint(1, 4)):
                sku = rng.choice(skus)
                cart.append({"sku": sku, "qty": rng.randint(1, 4)})
            tier = rng.choice(tiers)
            expected_total = self._expected_total(cart, tier)
            try:
                receipt = module.process_transaction({"cart": cart, "tier": tier})
            except (ValueError, KeyError, module.PaymentError) as exc:
                detected_errors += 1
                continue
            placed += 1
            expected_units += sum(item["qty"] for item in cart)
            order_ids.append(receipt["order_id"])
            if abs(receipt["total"] - expected_total) > 0.01:
                total_mismatches += 1
            expected_revenue += receipt["total"]
            if step % 7 == 3 and order_ids:
                try:
                    refunded = module.refund_order(order_ids[-1])
                    refunds += 1
                    expected_revenue -= refunded
                except (KeyError, ValueError):
                    detected_errors += 1
        return {
            "orders_placed": placed,
            "refunds": refunds,
            "detected_errors": detected_errors,
            "expected_units": expected_units,
            "total_mismatches": total_mismatches,
            "expected_revenue": round(expected_revenue, 2),
            "observed_revenue": module.revenue(),
            "open_sessions": module.open_sessions(),
            "distinct_order_ids": len(set(order_ids)),
            "order_count": len(order_ids),
        }

    def check_invariants(self, module: types.ModuleType, metrics: dict[str, Any]) -> list[str]:
        # Mutated modules may return None from metric helpers (e.g. a removed
        # return statement); treat missing numbers as zero so the checks still
        # run and flag the divergence instead of crashing the harness.
        def number(key: str, default: float = 0.0) -> float:
            value = metrics.get(key, default)
            return default if not isinstance(value, (int, float)) else value

        violations: list[str] = []
        for sku, entry in module._inventory.items():
            if entry["quantity"] < 0:
                violations.append(f"negative inventory for {sku}: {entry['quantity']}")
        sold_units = sum(
            self._STOCK[sku][1] - entry["quantity"] for sku, entry in module._inventory.items()
        )
        if sold_units != number("expected_units", sold_units):
            violations.append(
                f"inventory conservation violated: {sold_units} units deducted, "
                f"{metrics.get('expected_units')} units sold"
            )
        if number("total_mismatches") > 0:
            violations.append(f"{metrics['total_mismatches']} receipts priced incorrectly")
        if abs(number("observed_revenue") - number("expected_revenue")) > 0.01:
            violations.append(
                "revenue ledger does not match receipts: "
                f"{metrics.get('observed_revenue')} != {metrics.get('expected_revenue')}"
            )
        if number("distinct_order_ids") != number("order_count"):
            violations.append("duplicate order identifiers were issued")
        if number("open_sessions") > 0:
            violations.append(f"{metrics['open_sessions']} sessions were never closed")
        return violations

    def _expected_total(self, cart: list[dict[str, Any]], tier: str) -> float:
        total = sum(self._STOCK[item["sku"]][0] * item["qty"] for item in cart)
        if tier == "gold":
            total *= 0.9
        elif tier == "silver":
            total *= 0.95
        total += total * 0.02
        return round(total, 2)
