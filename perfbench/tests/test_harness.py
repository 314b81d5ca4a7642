"""Tests of the benchmark's own arithmetic and workload generation.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402
import workloads  # noqa: E402
from stats import Span  # noqa: E402


class TestTailRule:
    @pytest.mark.parametrize(
        "count, expected",
        [
            (10000, 99.9),  # 10 beyond p99.9
            (9999, 99.0),   # 9.999 beyond p99.9: not enough
            (1000, 99.0),
            (999, 95.0),
            (200, 95.0),
            (100, 90.0),
            (40, 75.0),
            (39, None),     # only the median would be left: omitted
            (0, None),
        ],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, count, expected):
        assert stats.tail_percentile(count) == expected

    def test_percentile_interpolates_between_ranks(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert stats.percentile(values, 0) == 1.0
        assert stats.percentile(values, 100) == 4.0
        assert stats.percentile(values, 50) == pytest.approx(2.5)
        assert stats.percentile(reversed(values), 75) == pytest.approx(3.25)

    def test_percentile_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 101)


class TestOpenLoopArithmetic:
    def test_latency_counts_from_due_time_not_send_time(self):
        due, sent, completed = 10.0, 10.4, 11.0
        assert stats.due_latency(due, completed) == pytest.approx(1.0)
        assert stats.send_lag(due, sent) == pytest.approx(0.4)
        # A stalled sender makes the request look faster from the send time.
        assert completed - sent < stats.due_latency(due, completed)

    def test_early_send_has_no_negative_lag(self):
        assert stats.send_lag(5.0, 4.999) == 0.0

    def test_poisson_offsets_are_seeded_and_start_at_zero(self):
        first = stats.poisson_offsets(random.Random(3), 2.0, 400)
        again = stats.poisson_offsets(random.Random(3), 2.0, 400)
        assert first == again
        assert first[0] == 0.0
        assert all(b >= a for a, b in zip(first, first[1:]))
        assert first[-1] < 400 / 2.0  # the arrivals span count / rate seconds
        assert first[-1] > 0.9 * 400 / 2.0

    def test_execute_schedule_fixes_hang_positions_and_share(self):
        for seed in (1, 2, 3):
            arrivals = workloads.execute_schedule(seed, 20)
            assert len(arrivals) == 40
            keys = [arrival.key for arrival in arrivals]
            assert keys[5] == "bank-deadlock" and keys[6] == "queue-infinite-loop"
            assert workloads.hang_share(arrivals) == pytest.approx(2 / 40)
        assert workloads.execute_schedule(1, 20)[1].offset != workloads.execute_schedule(2, 20)[1].offset


class TestSelfTime:
    def test_self_time_subtracts_children(self):
        spans = [
            Span(0, None, "outer", 0.0, 10.0),
            Span(1, 0, "a", 1.0, 3.0),
            Span(2, 0, "b", 4.0, 8.0),
            Span(3, 2, "c", 5.0, 6.0),
        ]
        own = stats.self_times(spans)
        assert own == {0: pytest.approx(4.0), 1: pytest.approx(2.0),
                       2: pytest.approx(3.0), 3: pytest.approx(1.0)}
        assert sum(own.values()) == pytest.approx(10.0)

    def test_overlapping_children_are_not_double_counted(self):
        spans = [
            Span(0, None, "outer", 0.0, 10.0),
            Span(1, 0, "a", 2.0, 6.0),
            Span(2, 0, "b", 4.0, 12.0),  # overlaps a and runs past the parent
        ]
        assert stats.self_times(spans)[0] == pytest.approx(2.0)

    def test_self_time_by_name_sums_spans(self):
        spans = [
            Span(0, None, "x", 0.0, 2.0),
            Span(1, 0, "y", 0.5, 1.0),
            Span(2, None, "y", 3.0, 4.0),
        ]
        assert stats.self_time_by_name(spans) == {"x": pytest.approx(1.5), "y": pytest.approx(1.5)}


class TestWorkloads:
    def test_generate_source_repeats_and_samples_stated_shares(self):
        catalog = workloads.generate_catalog()
        source = workloads.GenerateSource(7, catalog, list(range(len(catalog))))
        keys = [source.next()[0] for _ in range(4000)]
        repeats = len(keys) - len(set(keys))
        assert abs(repeats / len(keys) - workloads.REPEAT_SHARE) < 0.03
        sampled = sum(1 for key in keys if catalog[int(key)].get("greedy") is False)
        assert abs(sampled / len(keys) - workloads.SAMPLED_SHARE) < 0.03

    def test_campaign_cycles_hold_the_same_work_for_every_seed(self):
        cycles = [workloads.campaign_cycle(seed, 3) for seed in range(8)]
        for calls in cycles:
            assert [call.kind for call in calls] == ["campaign"] * 8 + ["dataset", "rlhf"]
            assert [c.key for c in calls[:8]] == [c.key for c in cycles[0][:8]]
            assert calls[-1].body == cycles[0][-1].body
        assert len({calls[8].key for calls in cycles}) == len(workloads.DATASET_TARGETS)
