"""Tests for ``benchmarks/check_goldens.py``, the paper-science gate."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_goldens.py"
_SPEC = importlib.util.spec_from_file_location("check_goldens", _SCRIPT)
check_goldens = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_goldens)

RESULT = {
    "results": [
        {"variant": "full", "decision_accuracy": 0.875, "validity": 1.0, "wall_seconds": 0.41},
        {"variant": "no SFT", "decision_accuracy": 0.5, "validity": 1.0, "wall_seconds": 0.39},
    ],
    "stages": {"nlp_processing": {"count": 3, "mean_seconds": 0.002}},
    "quick": False,
}


def changed(**edits):
    """A deep copy of :data:`RESULT` with ``path → value`` edits applied."""
    result = json.loads(json.dumps(RESULT))
    for dotted, value in edits.items():
        node = result
        *parents, leaf = dotted.split("__")
        for part in parents:
            node = node[int(part)] if part.isdigit() else node[part]
        if value is KeyError:
            del node[leaf]
        else:
            node[leaf] = value
    return result


def write_results(directory: Path, payload: dict, names=check_goldens.GOLDENS) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name in names:
        (directory / f"{name}.json").write_text(json.dumps(payload))
    return directory


class TestDifferences:
    def test_identical_results_match(self):
        assert check_goldens.differences(RESULT, changed()) == []

    def test_timing_keys_are_ignored(self):
        actual = changed(results__0__wall_seconds=9.5, stages__nlp_processing__mean_seconds=1.0)
        assert check_goldens.differences(RESULT, actual) == []

    def test_changed_non_timing_field_is_named(self):
        actual = changed(results__1__variant="no spec constraint")
        assert check_goldens.differences(RESULT, actual) == [
            "results[1].variant: expected 'no SFT', got 'no spec constraint'"
        ]

    def test_missing_and_unexpected_keys_fail(self):
        assert check_goldens.differences(RESULT, changed(stages__nlp_processing__count=KeyError)) == [
            "stages.nlp_processing.count: missing"
        ]
        assert check_goldens.differences(RESULT, changed(extra=1)) == ["extra: unexpected"]

    def test_floats_compare_to_1e_9(self):
        assert check_goldens.differences(RESULT, changed(results__0__decision_accuracy=0.875 + 5e-10)) == []
        lines = check_goldens.differences(RESULT, changed(results__0__decision_accuracy=0.875 + 2e-9))
        assert len(lines) == 1 and lines[0].startswith("results[0].decision_accuracy:")

    def test_types_and_lengths_compare_exactly(self):
        assert check_goldens.differences(RESULT, changed(quick=0)) == [
            "quick: expected False, got 0"
        ]
        shorter = changed()
        shorter["results"].pop()
        assert check_goldens.differences(RESULT, shorter) == ["results: 2 items expected, got 1"]


class TestGate:
    def test_matching_directories_pass(self, tmp_path, capsys):
        expected = write_results(tmp_path / "committed", RESULT)
        actual = write_results(tmp_path / "quick", changed(results__1__wall_seconds=3.0))
        assert check_goldens.main(["--expected", str(expected), "--actual", str(actual)]) == 0
        assert "match" in capsys.readouterr().out

    def test_a_difference_fails_and_names_file_and_path(self, tmp_path, capsys):
        expected = write_results(tmp_path / "committed", RESULT)
        actual = write_results(tmp_path / "quick", RESULT)
        (actual / "ablations.json").write_text(json.dumps(changed(results__0__validity=0.75)))
        assert check_goldens.main(["--expected", str(expected), "--actual", str(actual)]) == 1
        out = capsys.readouterr().out
        assert "ablations.json: results[0].validity: expected 1.0, got 0.75" in out

    @pytest.mark.parametrize("side", ["committed", "quick"])
    def test_a_missing_result_file_fails(self, tmp_path, side):
        expected = write_results(tmp_path / "committed", RESULT)
        actual = write_results(tmp_path / "quick", RESULT)
        (tmp_path / side / "nlp_extraction.json").unlink()
        assert check_goldens.check(expected, actual) == [
            f"nlp_extraction.json: missing {tmp_path / side / 'nlp_extraction.json'}"
        ]

    def test_every_paper_bench_has_a_committed_result(self):
        for name in check_goldens.GOLDENS:
            assert (check_goldens.RESULTS / f"{name}.json").is_file(), name
