"""Documentation checks: docs exist, are linked, their snippets run, and the
public execution API is documented.

Every fenced ``python`` block in README.md and docs/*.md is executed verbatim
(each in a fresh namespace), so the documentation cannot silently rot as the
API moves.  Keep doc snippets self-contained and fast: they are part of
tier-1.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

import repro.execution

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "docs" / "API.md",
    REPO_ROOT / "docs" / "ARCHITECTURE.md",
    REPO_ROOT / "docs" / "DISTRIBUTED.md",
    REPO_ROOT / "docs" / "EXECUTION.md",
    REPO_ROOT / "docs" / "RESILIENCE.md",
    REPO_ROOT / "docs" / "SERVING.md",
]

_BLOCK_PATTERN = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _python_blocks(path: Path) -> list[str]:
    return _BLOCK_PATTERN.findall(path.read_text())


class TestDocsExistAndAreLinked:
    def test_doc_files_exist(self):
        for path in DOC_FILES:
            assert path.is_file(), f"missing documentation file: {path}"

    def test_readme_links_all_docs(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/API.md" in readme
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/EXECUTION.md" in readme
        assert "docs/RESILIENCE.md" in readme
        assert "docs/SERVING.md" in readme
        assert "docs/DISTRIBUTED.md" in readme

    def test_docs_cross_reference_each_other(self):
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        execution = (REPO_ROOT / "docs" / "EXECUTION.md").read_text()
        resilience = (REPO_ROOT / "docs" / "RESILIENCE.md").read_text()
        serving = (REPO_ROOT / "docs" / "SERVING.md").read_text()
        distributed = (REPO_ROOT / "docs" / "DISTRIBUTED.md").read_text()
        assert "EXECUTION.md" in architecture
        assert "ARCHITECTURE.md" in execution
        assert "ARCHITECTURE.md" in api
        assert "API.md" in architecture
        assert "SERVING.md" in api
        assert "API.md" in serving
        assert "RESILIENCE.md" in serving
        assert "RESILIENCE.md" in architecture
        assert "SERVING.md" in resilience
        assert "EXECUTION.md" in resilience
        assert "DISTRIBUTED.md" in architecture
        assert "DISTRIBUTED.md" in execution
        assert "EXECUTION.md" in distributed
        assert "ARCHITECTURE.md" in distributed
        assert "RESILIENCE.md" in distributed

    def test_every_named_markdown_file_exists(self):
        for path in DOC_FILES:
            for name in set(re.findall(r"\b([A-Z_]+\.md)\b", path.read_text())):
                assert (REPO_ROOT / name).is_file() or (REPO_ROOT / "docs" / name).is_file(), (
                    f"{path.name} names {name}, which does not exist"
                )

    def test_serving_example_is_referenced(self):
        example = REPO_ROOT / "examples" / "serving_engine.py"
        assert example.is_file()
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        assert "examples/serving_engine.py" in api

    def test_compiled_decode_is_documented(self):
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        for text in (architecture, api):
            assert "Compiled grammar decode" in text
            assert "decode_seconds" in text or "DecisionAutomaton" in text
        assert "DecisionAutomaton" in architecture
        assert "jump-forward" in architecture.lower()
        assert "benchmarks/bench_compiled_decode.py" in architecture
        assert "save_caches" in api and "caches.compiled" in api

    def test_http_client_example_is_referenced(self):
        example = REPO_ROOT / "examples" / "http_client.py"
        assert example.is_file()
        serving = (REPO_ROOT / "docs" / "SERVING.md").read_text()
        assert "examples/http_client.py" in serving

    def test_batched_example_is_referenced(self):
        example = REPO_ROOT / "examples" / "batched_dataset_generation.py"
        assert example.is_file()
        readme = (REPO_ROOT / "README.md").read_text()
        execution = (REPO_ROOT / "docs" / "EXECUTION.md").read_text()
        assert "examples/batched_dataset_generation.py" in readme
        assert "examples/batched_dataset_generation.py" in execution


@pytest.mark.pool
class TestDocSnippetsExecute:
    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_every_python_block_runs(self, path):
        blocks = _python_blocks(path)
        assert blocks, f"{path.name} has no ```python blocks to check"
        for index, block in enumerate(blocks):
            namespace = {"__name__": f"doc_snippet_{path.stem}_{index}"}
            exec(compile(block, f"{path.name}#block{index}", "exec"), namespace)


class TestExecutionApiIsDocumented:
    @staticmethod
    def _assert_documented(obj, label):
        assert inspect.getdoc(obj), f"{label} has no docstring"

    def test_module_and_all_public_symbols(self):
        self._assert_documented(repro.execution, "repro.execution")
        for name in repro.execution.__all__:
            self._assert_documented(getattr(repro.execution, name), f"repro.execution.{name}")

    def test_public_methods_of_public_classes(self):
        for name in repro.execution.__all__:
            symbol = getattr(repro.execution, name)
            if not inspect.isclass(symbol):
                continue
            for method_name, method in inspect.getmembers(symbol, inspect.isfunction):
                if method_name.startswith("_") and method_name != "__init__":
                    continue
                if method.__qualname__.split(".")[0] != symbol.__name__:
                    continue  # inherited from elsewhere (e.g. dataclass machinery)
                self._assert_documented(method, f"{name}.{method_name}")

    def test_batch_entry_points_use_args_sections(self):
        from repro.dataset import DatasetGenerator
        from repro.integration import ExperimentRunner, SandboxRunner
        from repro.rlhf import SimulatedTester

        for func in (
            SandboxRunner.run_batch,
            ExperimentRunner.run_many,
            SimulatedTester.review_batch,
            SimulatedTester.review_executed,
            DatasetGenerator.generate,
        ):
            doc = inspect.getdoc(func) or ""
            assert "Args:" in doc and "Returns:" in doc, f"{func.__qualname__} lacks Args/Returns"
