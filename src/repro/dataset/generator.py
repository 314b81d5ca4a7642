"""Dataset generation from the programmable SFI tool (Section IV-1).

The generator sweeps the injection operators over the target systems,
documents each injected fault as a :class:`FaultRecord` (description, original
code, faulty code, decisions), and converts records into the
(:class:`GenerationPrompt`, :class:`DecisionVector`) pairs that supervised
fine-tuning consumes.  "The ability of the SFI tool to generate this data
on-demand eliminates the traditional bottleneck of data scarcity" — this module
is that on-demand path.

Generation is batch-structured: all :class:`AppliedFault` candidates for a
target are built up front (pure AST work), then — when
``DatasetConfig.validate_candidates`` is set — executed against the target as
one pooled sandbox batch through the shared
:class:`~repro.integration.runner.SandboxRunner`, so mega-datasets pay the
interpreter/import cost once per worker instead of once per fault.  Candidate
construction and record synthesis draw from keyed RNG forks, so the pooled and
serial execution paths emit byte-identical records for the same seed (the
``bench_dataset_gen`` benchmark asserts exactly this).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..config import DatasetConfig, ExecutionConfig
from ..errors import DatasetError
from ..injection import ProgrammableInjector, ast_utils
from ..injection.operators import AppliedFault
from ..llm.decisions import DecisionVector, reference_decisions
from ..llm.sft import SFTExample
from ..nlp import CodeAnalyzer, FaultSpecExtractor, PromptBuilder
from ..rng import SeededRNG
from ..targets import TargetSystem, all_targets
from ..types import FaultDescription
from .describe import DescriptionSynthesizer
from .records import FaultDataset, FaultRecord


@dataclass
class GenerationStats:
    """Bookkeeping of one dataset-generation sweep.

    ``batches`` records one entry per validated target batch (candidate count,
    kept/discarded split, execution mode), so large sweeps can be audited
    batch by batch after the fact.
    """

    scanned_points: int = 0
    applied: int = 0
    skipped: int = 0
    validated: int = 0
    discarded: int = 0
    per_target: dict[str, int] = dataclasses.field(default_factory=dict)
    batches: list[dict] = dataclasses.field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scanned_points": self.scanned_points,
            "applied": self.applied,
            "skipped": self.skipped,
            "validated": self.validated,
            "discarded": self.discarded,
            "per_target": dict(self.per_target),
            "batches": [dict(batch) for batch in self.batches],
        }


class DatasetGenerator:
    """Builds fine-tuning datasets by injecting faults into the target systems.

    The generator borrows a :class:`SandboxRunner` for candidate validation
    (an engine passes its own) or creates one lazily; close an owned one with
    :meth:`close` or use the generator as a context manager when
    ``validate_candidates`` is enabled with ``pool`` execution.
    """

    def __init__(
        self,
        config: DatasetConfig | None = None,
        injector: ProgrammableInjector | None = None,
        synthesizer: DescriptionSynthesizer | None = None,
        execution: ExecutionConfig | None = None,
        runner=None,
        extractor: FaultSpecExtractor | None = None,
        analyzer: CodeAnalyzer | None = None,
        prompts: PromptBuilder | None = None,
    ) -> None:
        """Initialise the generator.

        Args:
            config: Dataset parameters; defaults to :class:`DatasetConfig`.
            injector: Programmable injector override (tests use this).
            synthesizer: Description synthesizer override.
            execution: How validation batches are scheduled across workers;
                defaults to :class:`ExecutionConfig` (``inprocess`` mode).
            runner: A shared :class:`~repro.integration.runner.SandboxRunner`
                to validate candidates with; one is created lazily when
                validation is enabled and no runner is supplied.
            extractor: A shared NLP spec extractor — the engine passes its
                own so dataset sweeps warm (and profit from) the same
                description-hash cache serving traffic uses.
            analyzer: A shared code analyzer (same sharing rationale).
            prompts: A shared prompt builder (same sharing rationale).
        """
        self._config = config or DatasetConfig()
        self._rng = SeededRNG(self._config.seed, namespace="dataset")
        self._injector = injector or ProgrammableInjector(rng=self._rng.fork("injector"))
        self._synthesizer = synthesizer or DescriptionSynthesizer(self._rng.fork("describe"))
        self._extractor = extractor or FaultSpecExtractor()
        self._analyzer = analyzer or CodeAnalyzer()
        self._prompts = prompts or PromptBuilder()
        self._execution = execution or ExecutionConfig()
        self._runner = runner
        self._owns_runner = False
        self.stats = GenerationStats()

    def close(self) -> None:
        """Release the validation runner if this generator created it (idempotent)."""
        runner, self._runner = self._runner, None
        if runner is not None and self._owns_runner:
            runner.close()
        self._owns_runner = False

    def __enter__(self) -> "DatasetGenerator":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -- record generation ---------------------------------------------------------

    def generate(self, targets: list[TargetSystem] | None = None) -> FaultDataset:
        """Generate a dataset across ``targets``.

        Args:
            targets: Target systems to sweep; defaults to every built-in
                target.  When ``validate_candidates`` is enabled, targets
                must be resolvable by name through the target registry
                (built-ins are; register custom targets in
                ``repro.targets.registry.TARGET_REGISTRY``), because sandbox
                workers look targets up by name.  Runtime-registered targets
                work with ``pool`` execution (workers are forked and inherit
                the registry) but not ``subprocess`` (fresh interpreters
                re-import ``repro``).

        Returns:
            A :class:`FaultDataset` of documented fault records, at most
            ``samples_per_target`` per target (fewer when validation drops
            unloadable candidates).

        Raises:
            DatasetError: If ``targets`` is an empty list, or if validation
                fails for *every* candidate of a target (a broken sandbox —
                typically an unresolvable target name — rather than faults
                doing their job).
        """
        targets = targets if targets is not None else all_targets()
        if not targets:
            raise DatasetError("at least one target system is required")
        dataset = FaultDataset(name="sfi-generated")
        for target in targets:
            added = self._generate_for_target(target, dataset.add, start_index=len(dataset))
            self.stats.per_target[target.name] = added
        return dataset

    def generate_to_jsonl(self, path, targets: list[TargetSystem] | None = None):
        """Stream a generated dataset straight to a JSONL file, batch by batch.

        Args:
            path: Destination JSONL file (parents are created).
            targets: Target systems to sweep; defaults to every built-in
                target, with the same registry caveats as :meth:`generate`.

        Returns:
            The :class:`~pathlib.Path` written.  ``stats`` carries the same
            per-target/batch bookkeeping as :meth:`generate`.

        Each target's record batch is written (and flushed) as soon as it is
        validated, so at most one target's candidates are ever held in
        memory — mega-dataset sweeps are bounded by ``samples_per_target``,
        not by the total record count.  For a given seed the file is
        byte-identical to ``save_jsonl(self.generate(targets), path)``.

        Raises:
            DatasetError: Under the same conditions as :meth:`generate`.
        """
        from .io import JsonlRecordWriter

        targets = targets if targets is not None else all_targets()
        if not targets:
            raise DatasetError("at least one target system is required")
        with JsonlRecordWriter(path) as writer:
            for target in targets:
                added = self._generate_for_target(
                    target, writer.write, start_index=writer.records_written
                )
                self.stats.per_target[target.name] = added
        return writer.path

    def _generate_for_target(self, target: TargetSystem, add, start_index: int) -> int:
        """Build, validate, and emit one target's batch of fault candidates.

        ``add`` receives each :class:`FaultRecord` in order; it either appends
        to an in-memory dataset or streams to disk.
        """
        source = target.build_source()
        candidates = self._candidates_for_target(source)
        if self._config.validate_candidates:
            candidates = self._validate_batch(target, candidates)
        for offset, applied in enumerate(candidates):
            record = self._record(target, source, applied, index=start_index + offset)
            add(record)
            self.stats.applied += 1
        return len(candidates)

    def _candidates_for_target(self, source: str) -> list[AppliedFault]:
        """Apply operators over the scanned injection points, up front.

        Candidate construction is pure AST work and draws only from keyed RNG
        forks, so building the whole batch before any execution happens
        produces exactly the faults the old apply-one/record-one loop did.
        """
        report = self._injector.locator.scan(source)
        self.stats.scanned_points += len(report)
        per_function_counts: dict[str, int] = {}
        candidates: list[AppliedFault] = []
        for point in self._rng.shuffle(report.points):
            if len(candidates) >= self._config.samples_per_target:
                break
            function_key = point.qualified_function
            if per_function_counts.get(function_key, 0) >= self._config.max_faults_per_function:
                continue
            try:
                applied = self._apply(source, point)
            except Exception:
                self.stats.skipped += 1
                continue
            candidates.append(applied)
            per_function_counts[function_key] = per_function_counts.get(function_key, 0) + 1
        return candidates

    def _validation_mode(self) -> str:
        """The sandbox mode validation batches actually run in.

        Validation executes *untrusted* mutants: any operator that touches
        loop control (not just the ones named ``infinite_loop``) can produce
        an unbounded loop, and in-process execution has no timeout.  An
        ``inprocess`` execution config is therefore promoted to
        ``subprocess``; the other modes enforce ``validation_timeout_seconds``
        per candidate.
        """
        mode = self._execution.default_mode
        return "subprocess" if mode == "inprocess" else mode

    def _validate_batch(self, target: TargetSystem, candidates: list[AppliedFault]) -> list[AppliedFault]:
        """Execute one target's candidates as a single sandbox batch.

        A candidate is kept unless its mutated module failed to load (or the
        harness itself failed), which is deterministic across execution modes;
        workload crashes and timeouts are *faults doing their job* and stay in
        the dataset.  The batch runs under ``validation_timeout_seconds``,
        whatever the runner's own test timeout.
        """
        if not candidates:
            return []
        mode = self._validation_mode()
        observations = self._ensure_runner().run_batch(
            target.name,
            [candidate.patch.mutated for candidate in candidates],
            seed=self._config.seed,
            iterations=self._config.validation_iterations,
            mode=mode,
            timeout_seconds=self._config.validation_timeout_seconds,
        )
        if len(observations) > 1 and all(
            observation.harness_error is not None for observation in observations
        ):
            # Individual harness errors are fault-induced and just discard the
            # candidate, but a whole (multi-candidate) batch failing means the
            # sandbox itself is broken — most commonly a runtime-registered
            # target that a fresh subprocess interpreter cannot resolve (pool
            # workers are forked and inherit the registry; subprocesses
            # re-import repro).
            raise DatasetError(
                f"validation of target {target.name!r} failed for every candidate "
                f"(first error: {observations[0].harness_error}); if this is a "
                "runtime-registered target, validate with pool mode or register "
                "it at import time"
            )
        kept = [
            candidate
            for candidate, observation in zip(candidates, observations)
            if self._is_loadable(observation)
        ]
        self.stats.validated += len(kept)
        self.stats.discarded += len(candidates) - len(kept)
        self.stats.batches.append(
            {
                "target": target.name,
                "candidates": len(candidates),
                "kept": len(kept),
                "discarded": len(candidates) - len(kept),
                "mode": mode,
            }
        )
        return kept

    @staticmethod
    def _is_loadable(observation) -> bool:
        """Whether the mutated module at least loaded inside the sandbox."""
        if observation.harness_error is not None:
            return False
        result = observation.result
        if result is not None and result.error_type == "LoadError":
            return False
        return True

    def _ensure_runner(self):
        """The validation sandbox runner: the borrowed one, or one created lazily."""
        if self._runner is None:
            from ..integration.runner import SandboxRunner

            self._runner = SandboxRunner(execution=self._execution)
            self._owns_runner = True
        return self._runner

    def _apply(self, source: str, point) -> AppliedFault:
        from ..injection.operators import get_operator

        operator = get_operator(point.operator)
        return operator.apply(source, point, rng=self._rng.fork(f"apply:{point.operator}:{point.lineno}"))

    def _record(self, target: TargetSystem, source: str, applied: AppliedFault, index: int) -> FaultRecord:
        function_name = applied.point.qualified_function
        bare_name = applied.point.function
        try:
            original_code = ast_utils.function_source(source, bare_name)
            faulty_code = ast_utils.function_source(applied.patch.mutated, bare_name)
        except Exception:
            original_code = source
            faulty_code = applied.patch.mutated
        description = (
            self._synthesizer.describe(applied)
            if self._config.include_descriptions
            else applied.description
        )
        decisions = self._target_decisions(description, original_code, applied)
        return FaultRecord(
            record_id=f"{target.name}-{index:05d}",
            target=target.name,
            function=function_name,
            description=description,
            original_code=original_code,
            faulty_code=faulty_code,
            fault_type=applied.fault_type,
            operator=applied.operator,
            parameters=dict(applied.parameters),
            decisions=decisions.to_dict(),
            lineno=applied.point.lineno,
        )

    def _target_decisions(self, description: str, original_code: str, applied: AppliedFault) -> DecisionVector:
        """Supervision target: reference decisions with the ground-truth template."""
        spec = self._extractor.extract(FaultDescription(text=description, code=original_code))
        decisions = reference_decisions(spec).to_dict()
        decisions["template"] = applied.fault_type.value
        return DecisionVector.from_dict(decisions)

    # -- SFT adaptation --------------------------------------------------------------

    def to_sft_examples(self, dataset: FaultDataset) -> list[SFTExample]:
        """Convert fault records into supervised fine-tuning examples.

        The prompt side runs the full NLP engine on the synthesized description
        and the original code, exactly as a tester-authored request would, so
        fine-tuning sees the same representation inference does.
        """
        examples: list[SFTExample] = []
        for record in dataset:
            context = self._analyzer.analyze(record.original_code)
            description = FaultDescription(text=record.description, code=record.original_code)
            spec = self._extractor.extract(description, context=context)
            self._analyzer.select_function(context, record.description, hint=spec.target.function)
            prompt = self._prompts.build(spec, context)
            examples.append(SFTExample(prompt=prompt, target=DecisionVector.from_dict(record.decisions)))
        return examples
