"""A banking ledger target with transfers, interest, and auditing."""

from __future__ import annotations

import types
from typing import Any

from ..rng import WorkloadRNG
from .base import TargetSystem

_SOURCE = '''
"""A toy banking ledger used as a fault-injection target."""

import threading

_lock = threading.Lock()
_accounts = {}
_transactions = []
_frozen = set()


class InsufficientFundsError(Exception):
    """Raised when a withdrawal or transfer exceeds the available balance."""


class FrozenAccountError(Exception):
    """Raised when operating on a frozen account."""


def reset_bank(initial_balances):
    """Reset all accounts; ``initial_balances`` maps account id -> cents."""
    _accounts.clear()
    _transactions.clear()
    _frozen.clear()
    for account, balance in initial_balances.items():
        _accounts[account] = int(balance)


def _check_account(account):
    if account not in _accounts:
        raise KeyError("unknown account: " + str(account))
    if account in _frozen:
        raise FrozenAccountError("account is frozen: " + str(account))


def balance(account):
    """Current balance of an account in cents."""
    _check_account(account)
    return _accounts[account]


def deposit(account, amount):
    """Add funds to an account."""
    _check_account(account)
    if amount <= 0:
        raise ValueError("deposit must be positive")
    with _lock:
        _accounts[account] += amount
        _transactions.append(("deposit", account, amount))
    return _accounts[account]


def withdraw(account, amount):
    """Remove funds from an account, rejecting overdrafts."""
    _check_account(account)
    if amount <= 0:
        raise ValueError("withdrawal must be positive")
    with _lock:
        if _accounts[account] < amount:
            raise InsufficientFundsError("balance too low")
        _accounts[account] -= amount
        _transactions.append(("withdraw", account, amount))
    return _accounts[account]


def transfer(source, destination, amount):
    """Move funds between two accounts atomically."""
    _check_account(source)
    _check_account(destination)
    if amount <= 0:
        raise ValueError("transfer must be positive")
    with _lock:
        if _accounts[source] < amount:
            raise InsufficientFundsError("balance too low")
        _accounts[source] -= amount
        _accounts[destination] += amount
        _transactions.append(("transfer", source, destination, amount))
    return amount


def apply_interest(rate_percent):
    """Apply simple interest to every account; returns total interest paid."""
    total_interest = 0
    with _lock:
        for account in sorted(_accounts):
            interest = _accounts[account] * rate_percent // 100
            _accounts[account] += interest
            total_interest += interest
        _transactions.append(("interest", rate_percent, total_interest))
    return total_interest


def freeze(account):
    """Freeze an account so all operations on it fail."""
    _check_account(account)
    _frozen.add(account)


def total_assets():
    """Sum of every account balance."""
    total = 0
    for account in _accounts:
        total += _accounts[account]
    return total


def audit_trail():
    """Copy of the transaction log."""
    return list(_transactions)
'''


class BankTarget(TargetSystem):
    """Account ledger with transfers, overdraft protection, and interest."""

    name = "bank"
    description = "Banking ledger (deposits, withdrawals, transfers, interest)"

    _ACCOUNTS = {"alice": 100_000, "bob": 50_000, "carol": 75_000, "dave": 20_000}

    def _build_source(self) -> str:
        return _SOURCE

    def run_workload(self, module: types.ModuleType, iterations: int, rng: WorkloadRNG) -> dict[str, Any]:
        module.reset_bank(dict(self._ACCOUNTS))
        accounts = sorted(self._ACCOUNTS)
        detected_errors = 0
        transfers = 0
        interest_paid = 0
        expected_total = sum(self._ACCOUNTS.values())
        for step in range(iterations):
            source = rng.choice(accounts)
            destination = rng.choice([name for name in accounts if name != source])
            amount = rng.randint(1, 5_000)
            operation = rng.choice(["transfer", "transfer", "deposit", "withdraw", "interest"])
            try:
                if operation == "transfer":
                    module.transfer(source, destination, amount)
                    transfers += 1
                elif operation == "deposit":
                    module.deposit(source, amount)
                    expected_total += amount
                elif operation == "withdraw":
                    module.withdraw(source, amount)
                    expected_total -= amount
                else:
                    paid = module.apply_interest(1)
                    interest_paid += paid
                    expected_total += paid
            except (ValueError, KeyError, module.InsufficientFundsError, module.FrozenAccountError):
                detected_errors += 1
        negative_accounts = [name for name in accounts if module.balance(name) < 0]
        return {
            "detected_errors": detected_errors,
            "transfers": transfers,
            "interest_paid": interest_paid,
            "expected_total": expected_total,
            "observed_total": module.total_assets(),
            "negative_accounts": negative_accounts,
            "audit_entries": len(module.audit_trail()),
            "operations_applied": transfers
            + sum(1 for entry in module.audit_trail() if entry[0] in ("deposit", "withdraw", "interest")),
        }

    def check_invariants(self, module: types.ModuleType, metrics: dict[str, Any]) -> list[str]:
        violations: list[str] = []
        if metrics.get("observed_total") != metrics.get("expected_total"):
            violations.append(
                "money is not conserved: ledger holds "
                f"{metrics.get('observed_total')} but expected {metrics.get('expected_total')}"
            )
        if metrics.get("negative_accounts"):
            violations.append(f"accounts overdrawn despite checks: {metrics['negative_accounts']}")
        if metrics.get("audit_entries", 0) < metrics.get("transfers", 0):
            violations.append("audit trail is missing transfer records")
        return violations
