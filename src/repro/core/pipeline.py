"""The end-to-end neural fault injection pipeline (Fig. 1 of the paper).

:class:`NeuralFaultInjector` is the library's original, blocking entry point.
As of the service-layer redesign it is a **thin adapter** over
:class:`~repro.api.FaultInjectionEngine`: the engine owns the shared component
stack (NLP extractor and its caches, generation model, dataset generator,
sandbox runner), and every method here simply delegates.  The class is kept —
fully tested — for backwards compatibility and for scripts that want the
imperative stage-by-stage workflow:

1. *fault definition* — the tester supplies natural language plus target code;
2. *data processing* — the NLP engine builds a structured fault specification;
3. *code generation* — the model produces a faulty code snippet;
4. *RLHF* — tester feedback refines the snippet over one or more iterations;
5. *automated integration* — the snippet is spliced into the codebase;
6. *testing* — the workload runs and the failure mode is observed.

Deprecated for serving: concurrent clients should use the engine's typed
request API (``submit``/``run``/``run_many``/``stream``), which batches
concurrent work through the continuous-batching scheduler — see docs/API.md
for the migration guide.  Both façades can be mixed freely on one engine::

    engine = FaultInjectionEngine(config)
    legacy = NeuralFaultInjector(engine=engine)   # same stack, old surface
"""

from __future__ import annotations

from ..api.engine import FaultInjectionEngine, FeedbackProvider
from ..config import PipelineConfig
from ..dataset import DatasetGenerator, FaultDataset
from ..integration import ExperimentRecord, ExperimentRunner
from ..llm import FaultGenerator, GenerationCandidate, SFTReport, SFTTrainer
from ..nlp import CodeAnalyzer, FaultSpecExtractor, GenerationPrompt, PromptBuilder
from ..rlhf import FeedbackParser, RLHFReport, SimulatedTester
from ..targets import TargetSystem
from ..types import CodeContext, FaultSpec, GeneratedFault
from .results import WorkflowTrace

__all__ = ["FeedbackProvider", "NeuralFaultInjector"]


class NeuralFaultInjector:
    """End-to-end pipeline from natural-language fault descriptions to test outcomes.

    A deprecated-but-supported façade over :class:`FaultInjectionEngine`;
    every call operates on the engine's shared stack.  Prefer the engine's
    typed request API for new code (docs/API.md).
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        engine: FaultInjectionEngine | None = None,
    ) -> None:
        """Wrap an engine (building one from ``config`` when not supplied)."""
        self.engine = engine if engine is not None else FaultInjectionEngine(config)
        self.config = self.engine.config

    # -- shared component stack (owned by the engine) ------------------------------

    @property
    def extractor(self) -> FaultSpecExtractor:
        """The engine's shared NLP spec extractor."""
        return self.engine.extractor

    @property
    def analyzer(self) -> CodeAnalyzer:
        """The engine's shared code analyzer."""
        return self.engine.analyzer

    @property
    def prompts(self) -> PromptBuilder:
        """The engine's shared prompt builder."""
        return self.engine.prompts

    @property
    def generator(self) -> FaultGenerator:
        """The engine's shared generation model."""
        return self.engine.generator

    @property
    def feedback_parser(self) -> FeedbackParser:
        """The engine's shared feedback parser."""
        return self.engine.feedback_parser

    @property
    def dataset_generator(self) -> DatasetGenerator:
        """The engine's shared dataset generator."""
        return self.engine.dataset_generator

    @property
    def sft_trainer(self) -> SFTTrainer:
        """The engine's shared SFT trainer."""
        return self.engine.sft_trainer

    @property
    def dataset(self) -> FaultDataset | None:
        """The last dataset generated through :meth:`prepare`."""
        return self.engine.dataset

    @dataset.setter
    def dataset(self, value: FaultDataset | None) -> None:
        self.engine.dataset = value

    @property
    def sft_report(self) -> SFTReport | None:
        """The last supervised fine-tuning report."""
        return self.engine.sft_report

    @sft_report.setter
    def sft_report(self, value: SFTReport | None) -> None:
        self.engine.sft_report = value

    @property
    def rlhf_report(self) -> RLHFReport | None:
        """The last RLHF run's history."""
        return self.engine.rlhf_report

    @rlhf_report.setter
    def rlhf_report(self, value: RLHFReport | None) -> None:
        self.engine.rlhf_report = value

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Release sandbox resources: worker pools, scratch dirs (idempotent).

        Closes the underlying engine (including the request scheduler).
        Long-lived processes that build many injectors should close each one
        (or use it as a context manager); one-shot scripts can rely on
        process exit.
        """
        self.engine.close()

    def __enter__(self) -> "NeuralFaultInjector":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -- preparation (dataset generation + fine-tuning) ----------------------------

    def prepare(
        self,
        targets: list[TargetSystem] | None = None,
        run_sft: bool = True,
    ) -> FaultDataset:
        """Generate the SFI dataset and (optionally) fine-tune the generator."""
        return self.engine.prepare(targets=targets, run_sft=run_sft)

    def run_rlhf(
        self,
        prompts: list[GenerationPrompt],
        testers: list[SimulatedTester] | None = None,
        target: TargetSystem | str | None = None,
        mode: str | None = None,
    ) -> RLHFReport:
        """Run the RLHF loop over a set of prompts with (simulated) testers.

        Args:
            prompts: Generation prompts to refine the policy on.
            testers: Simulated testers; defaults to the standard pool.
            target: When given, every round of candidates is integrated and
                executed against this target as one sandbox batch (scheduled
                per ``config.execution``) and the execution evidence flows
                into the testers' ratings.
            mode: Execution mode for those batches; defaults to
                ``config.execution.default_mode``, except that an
                ``inprocess`` default is promoted to ``subprocess`` — the
                candidates are untrusted generated faults (a delay fault can
                sleep for minutes) and in-process execution has no timeout.
                Pass ``mode="inprocess"`` explicitly to accept that risk.

        Returns:
            The :class:`RLHFReport` history (also stored on ``rlhf_report``).
        """
        return self.engine.run_rlhf(prompts, testers=testers, target=target, mode=mode)

    # -- individual workflow stages -------------------------------------------------

    def define_fault(
        self, text: str, code: str | None = None, path: str | None = None
    ) -> tuple[FaultSpec, CodeContext | None]:
        """Stages 1–2: fault definition and NLP processing."""
        return self.engine.define_fault(text, code=code, path=path)

    def build_prompt(
        self,
        spec: FaultSpec,
        context: CodeContext | None,
        feedback_directives: dict | None = None,
    ) -> GenerationPrompt:
        """Package a spec and code context for the generation model."""
        return self.engine.build_prompt(spec, context, feedback_directives)

    def generate_fault(
        self, prompt: GenerationPrompt, greedy: bool = True, iteration: int = 0
    ) -> GenerationCandidate:
        """Stage 3: code generation."""
        return self.engine.generate_fault(prompt, greedy=greedy, iteration=iteration)

    def generate_faults(
        self, prompts: list[GenerationPrompt], greedy: bool = True, iteration: int = 0
    ) -> list[GenerationCandidate]:
        """Stage 3, batched: one fault per prompt via one batched forward pass.

        Campaign-scale code generation should come through here rather than a
        ``generate_fault`` loop — prompt encodings and rendered snippets are
        cached across repeats and the policy runs one matmul per head for the
        whole prompt set.
        """
        return self.engine.generate_faults(prompts, greedy=greedy, iteration=iteration)

    def refine(
        self,
        spec: FaultSpec,
        context: CodeContext | None,
        critique: str,
        iteration: int,
    ) -> tuple[FaultSpec, GenerationCandidate]:
        """Stage 4: fold one round of tester feedback into a new generation."""
        return self.engine.refine(spec, context, critique, iteration)

    def integrate_and_test(
        self, fault: GeneratedFault, target: TargetSystem | str, mode: str = "subprocess"
    ) -> ExperimentRecord:
        """Stages 5–6: automated integration and testing."""
        return self.engine.integrate_and_test(fault, target, mode=mode)

    # -- convenience entry points -----------------------------------------------------

    def inject(self, text: str, code: str | None = None, greedy: bool = True) -> GeneratedFault:
        """One-shot generation: description (+ code) → faulty code snippet."""
        return self.engine.inject(text, code=code, greedy=greedy)

    def inject_many(
        self, texts: list[str], code: str | None = None, greedy: bool = True
    ) -> list[GeneratedFault]:
        """Batched :meth:`inject`: NLP per description, then one model batch.

        The NLP stage runs per description (cache-assisted at the extractor
        and analyzer level), and the model stage — encoding, forward pass,
        decoding — executes as a single batch.
        """
        return self.engine.inject_many(texts, code=code, greedy=greedy)

    def run_workflow(
        self,
        text: str,
        target: TargetSystem | str | None = None,
        code: str | None = None,
        feedback: FeedbackProvider | SimulatedTester | None = None,
        mode: str = "subprocess",
    ) -> WorkflowTrace:
        """Execute the full Fig. 1 workflow for one fault description.

        ``feedback`` may be a callable returning a critique (or ``None`` to
        accept) or a :class:`SimulatedTester`; at most
        ``config.max_refinement_iterations`` refinement rounds are run.
        """
        return self.engine.run_workflow(text, target=target, code=code, feedback=feedback, mode=mode)

    # -- internals ----------------------------------------------------------------------

    def _runner_for(self, target: TargetSystem | str) -> ExperimentRunner:
        return self.engine._runner_for(target)
