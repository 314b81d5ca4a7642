"""Campaign reports: aggregating experiment outcomes for testers and benchmarks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from ..types import FailureMode, InjectionOutcome, summarise_outcomes
from .experiment import ExperimentBatch, ExperimentRecord


@dataclass
class CampaignReport:
    """Aggregated view of one or more experiment batches."""

    name: str = "campaign"
    outcomes: list[InjectionOutcome] = field(default_factory=list)
    by_target: dict[str, list[InjectionOutcome]] = field(default_factory=dict)

    # -- construction --------------------------------------------------------------

    def add_outcome(self, outcome: InjectionOutcome, target: str = "unknown") -> None:
        self.outcomes.append(outcome)
        self.by_target.setdefault(target, []).append(outcome)

    def add_batch(self, batch: ExperimentBatch) -> None:
        for record in batch.records:
            self.add_outcome(record.outcome, target=batch.target_name)

    @classmethod
    def from_batches(cls, batches: Iterable[ExperimentBatch], name: str = "campaign") -> "CampaignReport":
        report = cls(name=name)
        for batch in batches:
            report.add_batch(batch)
        return report

    # -- aggregate metrics ----------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def activation_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(1 for outcome in self.outcomes if outcome.activated) / len(self.outcomes)

    @property
    def failure_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(1 for outcome in self.outcomes if outcome.exposed_failure) / len(self.outcomes)

    def failure_mode_distribution(self) -> dict[str, int]:
        distribution = {mode.value: 0 for mode in FailureMode}
        for outcome in self.outcomes:
            distribution[outcome.failure_mode.value] += 1
        return distribution

    def summary(self) -> dict:
        summary = summarise_outcomes(self.outcomes)
        summary["name"] = self.name
        summary["targets"] = {
            target: summarise_outcomes(outcomes) for target, outcomes in self.by_target.items()
        }
        return summary

    # -- rendering ------------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        """Fixed-width text table of per-target failure-mode counts."""
        modes = [mode.value for mode in FailureMode]
        header = ["target", "faults"] + modes
        rows = [header]
        for target, outcomes in sorted(self.by_target.items()):
            counts = {mode.value: 0 for mode in FailureMode}
            for outcome in outcomes:
                counts[outcome.failure_mode.value] += 1
            rows.append([target, str(len(outcomes))] + [str(counts[mode]) for mode in modes])
        widths = [max(len(row[column]) for row in rows) for column in range(len(header))]
        lines = []
        for row in rows:
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        return "\n".join(lines)


def records_with_failures(records: Iterable[ExperimentRecord]) -> list[ExperimentRecord]:
    """Records whose outcome exposed an externally visible failure."""
    return [record for record in records if record.outcome.exposed_failure]
