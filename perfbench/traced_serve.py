"""Launch ``python -m repro serve`` with the public layer calls wrapped in spans.

Usage::

    PYTHONPATH=src python3 perfbench/traced_serve.py --spans OUT.json -- serve --port 0

Before handing control to the ``serve`` entry point, every function in
:data:`WRAPS` is replaced at class (or module) level by a wrapper that
records a span: name, start, end, and the innermost span already open on
the same thread as its parent.  ``FaultInjectionEngine.submit`` is also
wrapped to record each request's engine submit→resolve interval.  Spans stay
in memory and are written to ``--spans`` once the server has drained, so
the serving path pays one tuple append per call and no I/O.

Nothing under ``src/`` knows about this file; the server sees only HTTP.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
import time

#: (span name, module, attribute path) of every wrapped layer call.  The span
#: name is the per-layer metric it feeds (``<name>_ms`` for the layer's self
#: time per completed request; ``core.technique.X`` feeds
#: ``core.technique_ms.X``).
WRAPS = (
    ("api.decode", "repro.server.http_server", "request_from_dict"),
    ("api.serialize", "repro.api.responses", "Response.to_dict"),
    ("nlp.extract", "repro.nlp.spec_extractor", "FaultSpecExtractor.extract_batch"),
    ("nlp.extract", "repro.nlp.spec_extractor", "FaultSpecExtractor.extract"),
    ("nlp.analyze", "repro.nlp.code_analyzer", "CodeAnalyzer.analyze"),
    ("nlp.prompt", "repro.nlp.prompt_builder", "PromptBuilder.build"),
    ("nlp.prompt", "repro.nlp.code_analyzer", "CodeAnalyzer.select_function"),
    ("llm.encode", "repro.llm.features", "FeatureEncoder.encode_batch"),
    ("llm.forward", "repro.llm.generator", "FaultGenerator.prompt_distributions"),
    ("llm.compile", "repro.llm.compiled_grammar", "GrammarCompiler.compile"),
    ("llm.decode", "repro.llm.generator", "FaultGenerator.decode_prompt"),
    ("llm.render", "repro.llm.grammar", "CodeGrammar.render"),
    ("integration.integrate", "repro.integration.integrator", "FaultIntegrator.integrate_generated"),
    ("integration.integrate", "repro.integration.integrator", "FaultIntegrator.integrate_applied"),
    ("integration.sandbox", "repro.integration.runner", "SandboxRunner.run_batch"),
    ("integration.sandbox", "repro.integration.runner", "SandboxRunner.run"),
    ("integration.classify", "repro.integration.monitors", "FailureClassifier.classify"),
    ("core.define", "repro.core.campaign", "CampaignOrchestrator.define_scenarios"),
    ("core.technique.neural", "repro.core.campaign", "CampaignOrchestrator.run_neural"),
    ("core.technique.predefined", "repro.core.campaign", "CampaignOrchestrator.run_predefined"),
    ("core.technique.random", "repro.core.campaign", "CampaignOrchestrator.run_random"),
    ("injection.plan", "repro.baselines.predefined", "PredefinedModelInjector.plan"),
    ("injection.plan", "repro.baselines.predefined", "RandomInjector.plan"),
    ("dataset.generate", "repro.dataset.generator", "DatasetGenerator.generate"),
    ("rlhf.run", "repro.rlhf.trainer", "RLHFTrainer.run"),
)

#: Layers whose spans run inside the engine's submit→resolve interval.
ENGINE_LAYERS = ("nlp", "llm", "integration", "core", "injection", "dataset", "rlhf")


class Recorder:
    """In-memory span and request store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.requests: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function, attrs=None):
        """A span-recording wrapper around ``function``."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.monotonic_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                stack.pop()
                extra = attrs(args, kwargs) if attrs is not None else None
                self.spans.append((span_id, parent, name, start, end, extra))

        return wrapper

    def wrap_submit(self, submit):
        """Record each request's engine submit→resolve interval."""

        @functools.wraps(submit)
        def wrapper(engine, request, *args, **kwargs):
            started = time.monotonic_ns()
            handle = submit(engine, request, *args, **kwargs)
            handle.add_done_callback(
                lambda done: self.requests.append(
                    (done.request_id, started, time.monotonic_ns())
                )
            )
            return handle

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"spans": self.spans, "requests": self.requests}, stream)


def _sandbox_attrs(args, kwargs):
    """Mode and fault count of one sandbox call (``run_batch`` or ``run``)."""
    sources = args[2] if len(args) > 2 else kwargs.get("module_sources", kwargs.get("module_source"))
    mode = kwargs.get("mode")
    if mode is None:
        # Positional layout of run_batch/run: self, target, source(s), seed, iterations, mode.
        mode = args[5] if len(args) > 5 else "subprocess"
    count = len(sources) if isinstance(sources, list) else 1
    return {"mode": mode, "n": count}


def install(recorder: Recorder) -> None:
    """Replace every :data:`WRAPS` entry and ``FaultInjectionEngine.submit``."""
    for name, module_name, path in WRAPS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        attrs = _sandbox_attrs if name == "integration.sandbox" else None
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(recorder.wrap(name, raw.__func__, attrs))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(name, raw.__func__, attrs))
        else:
            wrapped = recorder.wrap(name, raw, attrs)
        setattr(owner, attr, wrapped)
    from repro.api.engine import FaultInjectionEngine

    FaultInjectionEngine.submit = recorder.wrap_submit(FaultInjectionEngine.submit)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write spans at drain")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER, help="-- serve [flags]")
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as repro_main

    code = repro_main(serve_args)
    recorder.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
