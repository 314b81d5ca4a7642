"""The :class:`FaultInjectionEngine` — the library's serving façade.

One engine owns one shared component stack — NLP extractor (with its
description-hash cache), code analyzer, prompt builder, generation model
(policy + encoder/render caches), dataset generator, SFT trainer, and one
sandbox runner with its persistent worker pools, which every target,
campaign and dataset validation runs on — and exposes
the paper's whole workflow behind a typed request/response API:

* :meth:`submit` — enqueue a typed request, get a
  :class:`~repro.api.scheduler.ResponseHandle` immediately;
* :meth:`run` — blocking submit-and-wait for one request;
* :meth:`run_many` — submit a request list, gather responses in input order;
* :meth:`stream` — submit a request list, yield responses as they complete.

Concurrent :class:`~repro.api.GenerateRequest` submissions are coalesced by
the continuous-batching :class:`~repro.api.scheduler.Scheduler` into single
``forward_batch`` generation passes and pooled ``run_many`` sandbox batches,
while per-request seeds keep every result identical to running the request
alone (see docs/API.md).  Sandbox batches run on the scheduler's sandbox
threads, so a hung mutant never holds the dispatch thread.

The engine also keeps the pre-existing imperative stage methods
(:meth:`define_fault`, :meth:`generate_fault`, :meth:`run_workflow`, ...);
the deprecated :class:`~repro.core.pipeline.NeuralFaultInjector` façade is a
thin adapter over them.
"""

from __future__ import annotations

import functools
import itertools
import pickle
import queue
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

from ..config import DatasetConfig, PipelineConfig
from ..dataset import DatasetGenerator, FaultDataset
from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    EngineClosedError,
    ReproError,
    RequestError,
)
from ..integration import ExperimentRecord, ExperimentRunner, SandboxRunner
from ..llm import FaultGenerator, GenerationCandidate, SFTReport, SFTTrainer
from ..llm.decoder import Decoder
from ..nlp import CodeAnalyzer, FaultSpecExtractor, GenerationPrompt, PromptBuilder
from ..resilience import OPEN, BreakerRegistry, Deadline, RetryPolicy
from ..rlhf import FeedbackParser, RLHFReport, RLHFTrainer, SimulatedTester, spec_with_feedback, tester_pool
from ..rng import SeededRNG
from ..targets import TargetSystem, all_targets, get_target
from ..types import CodeContext, FaultDescription, FaultSpec, GeneratedFault, InjectionOutcome
from .requests import CampaignRequest, DatasetRequest, GenerateRequest, Request, RLHFRequest
from .responses import (
    CampaignPayload,
    DatasetPayload,
    CacheStats,
    ErrorInfo,
    ExecutionStats,
    GeneratePayload,
    Response,
    RLHFPayload,
    Timings,
)
from .scheduler import ResponseHandle, Scheduler, Ticket

FeedbackProvider = Callable[[FaultSpec, GenerationCandidate], str | None]

#: A decoded generate ticket: ``(ticket, candidate, decode_seconds)``.
_Generated = tuple[Ticket, GenerationCandidate, float]

_REQUEST_TYPES = (GenerateRequest, DatasetRequest, CampaignRequest, RLHFRequest)

#: Version tag of the cache persistence payload written by :meth:`save_caches`.
_CACHE_FORMAT_VERSION = 1


class FaultInjectionEngine:
    """Serves the neural fault injection workflow to concurrent clients."""

    def __init__(self, config: PipelineConfig | None = None) -> None:
        """Build the shared pipeline stack.

        Args:
            config: Pipeline configuration; the ``engine`` section controls
                scheduler batching and the NLP extraction cache.
        """
        self.config = config or PipelineConfig()
        self._rng = SeededRNG(self.config.seed, namespace="pipeline")
        self.extractor = FaultSpecExtractor(cache_size=self.config.engine.extract_cache_size)
        self.analyzer = CodeAnalyzer()
        self.prompts = PromptBuilder()
        self.generator = FaultGenerator(self.config.model, rng=self._rng.fork("generator"))
        self.feedback_parser = FeedbackParser()
        # Every sandbox run of the engine goes through this one runner: one
        # pool per plane, and its slots keep ``max_workers`` a bound on live
        # sandbox children however many threads drive sandbox runs at once.
        self.sandbox_runner = SandboxRunner(
            self.config.integration,
            execution=self.config.execution,
            resilience=self.config.resilience,
        )
        self.dataset_generator = self._dataset_generator(self.config.dataset)
        self._breakers = BreakerRegistry(self.config.resilience)
        self._retry = RetryPolicy.from_config(self.config.resilience)
        self.sft_trainer = SFTTrainer(self.generator, self.config.sft)
        self.dataset: FaultDataset | None = None
        self.sft_report: SFTReport | None = None
        self.rlhf_report: RLHFReport | None = None
        self._experiment_runners: dict[str, ExperimentRunner] = {}
        self._lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._closed = False
        self._scheduler = Scheduler(
            dispatch_batch=self._process_generate_batch,
            dispatch_single=self._process_single,
            max_batch_size=self.config.engine.resolved_batch_size(self.config.execution),
            sandbox_workers=self.config.execution.resolved_workers(),
        )

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        """Drain in-flight requests and release every owned resource.

        Queued requests still resolve (close is graceful); afterwards the
        scheduler's dispatch and sandbox threads are stopped and the sandbox
        runner (worker pools, scratch dir) is closed.  Idempotent; further
        :meth:`submit`/:meth:`run` calls raise
        :class:`~repro.errors.EngineClosedError`.  Called from a handle's
        done-callback — on the dispatch thread or a sandbox thread, which
        the drain waits for — it returns at once and a helper thread
        finishes the drain and the release.
        """
        with self._lock:
            self._closed = True
        if self._scheduler.on_serving_thread():
            threading.Thread(target=self._drain_and_release, name="repro-engine-close").start()
            return
        self._drain_and_release()

    def _drain_and_release(self) -> None:
        self._scheduler.close()
        self.sandbox_runner.close()
        with self._lock:
            self._experiment_runners.clear()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def __enter__(self) -> "FaultInjectionEngine":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -- serving surface ---------------------------------------------------------------

    def submit(self, request: Request) -> ResponseHandle:
        """Enqueue a typed request and return an asynchronous handle.

        Args:
            request: One of the four typed request kinds.

        Returns:
            A :class:`ResponseHandle`; ``handle.result()`` blocks for the
            :class:`~repro.api.Response` envelope.

        Raises:
            RequestError: If ``request`` is not a typed request object.
            EngineClosedError: If the engine has been closed.
        """
        if not isinstance(request, _REQUEST_TYPES):
            raise RequestError(
                f"expected a typed request object, got {type(request).__name__}; "
                "build one of GenerateRequest / DatasetRequest / CampaignRequest / RLHFRequest"
            )
        if self._closed:
            raise EngineClosedError("engine is closed; no further requests are accepted")
        request_id = request.request_id or f"req-{next(self._request_ids):06d}"
        handle = ResponseHandle(request_id, request.kind)
        self._scheduler.submit(
            Ticket(
                request=request,
                handle=handle,
                deadline=Deadline.from_seconds(request.deadline_seconds),
            )
        )
        return handle

    def run(self, request: Request) -> Response:
        """Submit one request and block for its response envelope."""
        return self.submit(request).result()

    def run_many(self, requests: Iterable[Request]) -> list[Response]:
        """Submit many requests at once and gather responses in input order.

        Submitting everything before waiting lets the scheduler coalesce
        what is queued into batched generation and pooled execution.
        """
        handles = [self.submit(request) for request in requests]
        return [handle.result() for handle in handles]

    def stream(self, requests: Iterable[Request]) -> Iterator[Response]:
        """Submit many requests and yield each response as it completes.

        Yields:
            :class:`Response` envelopes in completion order (match them to
            requests via ``response.request_id``).
        """
        handles = [self.submit(request) for request in requests]
        completed: "queue.Queue[ResponseHandle]" = queue.Queue()
        for handle in handles:
            handle.add_done_callback(completed.put)
        for _ in range(len(handles)):
            yield completed.get().result()

    @property
    def queue_depth(self) -> int:
        """Tickets waiting for the dispatch thread or a sandbox thread (admission
        control)."""
        return self._scheduler.queue_depth

    def serving_stats(self) -> dict:
        """Scheduler batching observations (dispatch counts, batch sizes,
        current queue depth)."""
        stats = self._scheduler.stats.to_dict()
        stats["queue_depth"] = self._scheduler.queue_depth
        return stats

    def execution_snapshot(self) -> ExecutionStats:
        """Execution-plane resilience observations as a typed snapshot.

        Returns:
            An :class:`~repro.api.ExecutionStats` whose ``pools`` map each
            plane the engine has used (``"pool"``, ``"distributed"``) to its
            pool's ``tasks_executed`` / ``pool_rebuilds`` / ``retries`` /
            ``quarantined`` supervision counters, ``totals`` sums them,
            ``distributed`` carries the distributed plane's ``workers`` /
            ``leases`` / ``requeues`` / ``rebalances``, and ``breakers``
            carries the circuit-breaker snapshots.  Every counter is
            monotonic within one engine lifetime (``workers`` is a gauge).
        """
        planes = {
            "pool": self.sandbox_runner.pool_stats(),
            "distributed": self.sandbox_runner.distributed_stats(),
        }
        pools = {plane: stats for plane, stats in planes.items() if stats}
        totals = {
            key: sum(int(stats.get(key, 0)) for stats in pools.values())
            for key in ("tasks_executed", "pool_rebuilds", "retries", "quarantined")
        }
        remote = pools.get("distributed", {})
        distributed = {
            key: int(remote.get(key, 0)) for key in ("workers", "leases", "requeues", "rebalances")
        }
        return ExecutionStats(
            pools=pools,
            totals=totals,
            distributed=distributed,
            breakers=self._breakers.to_dict(),
        )

    def execution_stats(self) -> dict:
        """The :meth:`execution_snapshot` in its historical wire-dict shape.

        Returns:
            ``{"pools": {plane: counters}, "totals": counters,
            "distributed": counters, "breakers": {key: breaker snapshot}}``
            — see :meth:`execution_snapshot` for the counter semantics.
        """
        return self.execution_snapshot().to_dict()

    def cache_stats(self) -> dict[str, CacheStats]:
        """Typed hit/miss counters of the engine's four LRU caches.

        Returns:
            ``{"extract": ..., "encoder": ..., "render": ..., "compiled":
            ...}`` as :class:`~repro.api.CacheStats` — the NLP extraction,
            feature-encoder, grammar-render, and compiled-automaton caches.
        """
        return {
            "extract": CacheStats(**self.extractor.cache_info()),
            "encoder": CacheStats(**self.generator.encoder.cache_info()),
            "render": CacheStats(**self.generator.grammar.cache_info()),
            "compiled": CacheStats(**self.generator.compiler.cache_info()),
        }

    def open_breakers(self) -> int:
        """How many circuit breakers are currently open (failing fast).

        Surfaced on ``GET /healthz`` so load balancers can route around a
        server whose execution planes are refusing work.
        """
        return sum(
            1
            for snapshot in self._breakers.to_dict().values()
            if snapshot.get("state") == "open"
        )

    # -- cache persistence -------------------------------------------------------------

    def save_caches(self, path: str | Path) -> dict[str, int]:
        """Persist the warm NLP/encoder/render caches to ``path`` (pickle).

        Successive processes (and freshly forked pool workers) can
        :meth:`load_caches` to skip re-encoding and re-rendering the prompts
        this engine already served.

        Args:
            path: Destination file; parent directories are created.

        Returns:
            Entry counts per cache (``extract``, ``encoder``, ``render``,
            ``compiled``).
        """
        payload = {
            "version": _CACHE_FORMAT_VERSION,
            "extract": self.extractor.export_cache(),
            "encoder": self.generator.encoder.export_cache(),
            "render": self.generator.grammar.export_cache(),
            "compiled": self.generator.compiler.export_cache(),
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as stream:
            pickle.dump(payload, stream)
        return {name: len(payload[name]) for name in ("extract", "encoder", "render", "compiled")}

    def load_caches(self, path: str | Path) -> dict[str, int]:
        """Restore caches saved by :meth:`save_caches` (trusted files only).

        The file is unpickled, so load caches only from paths you wrote —
        never from untrusted input.  Entries that do not fit the current
        model configuration (e.g. a different ``feature_dim``) are skipped.

        Args:
            path: File previously written by :meth:`save_caches`.

        Returns:
            Installed entry counts per cache.

        Raises:
            ReproError: If the file's format version is unsupported.
        """
        with Path(path).open("rb") as stream:
            payload = pickle.load(stream)
        if payload.get("version") != _CACHE_FORMAT_VERSION:
            raise ReproError(
                f"unsupported cache file version {payload.get('version')!r} "
                f"(expected {_CACHE_FORMAT_VERSION})"
            )
        return {
            "extract": self.extractor.import_cache(payload.get("extract", {})),
            "encoder": self.generator.encoder.import_cache(payload.get("encoder", {})),
            "render": self.generator.grammar.import_cache(payload.get("render", {})),
            # Absent in files written before the compiled-grammar cache existed.
            "compiled": self.generator.compiler.import_cache(payload.get("compiled", {})),
        }

    # -- preparation (dataset generation + fine-tuning) --------------------------------

    def prepare(
        self,
        targets: list[TargetSystem] | None = None,
        run_sft: bool = True,
    ) -> FaultDataset:
        """Generate the SFI dataset and (optionally) fine-tune the generator."""
        targets = targets if targets is not None else all_targets()
        self.dataset = self.dataset_generator.generate(targets)
        if run_sft and len(self.dataset) > 0:
            examples = self.dataset_generator.to_sft_examples(self.dataset)
            self.sft_report = self.sft_trainer.train(examples)
        return self.dataset

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
        trainer = self._rlhf_trainer(testers=testers, target=target, mode=mode)
        self.rlhf_report = trainer.run(prompts)
        return self.rlhf_report

    def _rlhf_trainer(
        self,
        testers: list[SimulatedTester] | None = None,
        target: TargetSystem | str | None = None,
        mode: str | None = None,
        rlhf_config=None,
    ) -> RLHFTrainer:
        """Build an RLHF trainer wired to the shared generator and runners."""
        rlhf_config = rlhf_config or self.config.rlhf
        runner = self._runner_for(target) if target is not None else None
        return RLHFTrainer(
            self.generator,
            testers or tester_pool(seed=rlhf_config.seed),
            config=rlhf_config,
            runner=runner,
            execution_mode=self._resolve_mode(mode),
        )

    # -- individual workflow stages ----------------------------------------------------

    def define_fault(
        self, text: str, code: str | None = None, path: str | None = None
    ) -> tuple[FaultSpec, CodeContext | None]:
        """Stages 1–2: fault definition and NLP processing."""
        description = FaultDescription(text=text, code=code, source_path=path)
        context = None
        if code and self.config.use_code_context:
            context = self.analyzer.analyze(code, path=path)
        spec = self.extractor.extract(description, context=context)
        if context is not None:
            self.analyzer.select_function(context, text, hint=spec.target.function)
        return spec, context

    def build_prompt(
        self,
        spec: FaultSpec,
        context: CodeContext | None,
        feedback_directives: dict | None = None,
    ) -> GenerationPrompt:
        """Package a spec and code context for the generation model."""
        return self.prompts.build(spec, context, feedback_directives)

    def generate_fault(
        self, prompt: GenerationPrompt, greedy: bool = True, iteration: int = 0
    ) -> GenerationCandidate:
        """Stage 3: code generation."""
        return self.generator.generate_batch([prompt], greedy=greedy, iteration=iteration)[0]

    def generate_faults(
        self, prompts: list[GenerationPrompt], greedy: bool = True, iteration: int = 0
    ) -> list[GenerationCandidate]:
        """Stage 3, batched: one fault per prompt via one batched forward pass."""
        return self.generator.generate_batch(prompts, greedy=greedy, iteration=iteration)

    def refine(
        self,
        spec: FaultSpec,
        context: CodeContext | None,
        critique: str,
        iteration: int,
    ) -> tuple[FaultSpec, GenerationCandidate]:
        """Stage 4: fold one round of tester feedback into a new generation."""
        directives = self.feedback_parser.directives_from_text(critique)
        refined_spec = spec_with_feedback(spec, directives)
        prompt = self.build_prompt(refined_spec, context, feedback_directives=directives)
        candidate = self.generate_fault(prompt, greedy=True, iteration=iteration)
        return refined_spec, candidate

    def integrate_and_test(
        self, fault: GeneratedFault, target: TargetSystem | str, mode: str = "subprocess"
    ) -> ExperimentRecord:
        """Stages 5–6: automated integration and testing."""
        runner = self._runner_for(target)
        return runner.run_generated(fault, mode=mode)

    # -- imperative convenience entry points -------------------------------------------

    def inject(self, text: str, code: str | None = None, greedy: bool = True) -> GeneratedFault:
        """One-shot generation: description (+ code) → faulty code snippet."""
        spec, context = self.define_fault(text, code=code)
        prompt = self.build_prompt(spec, context)
        return self.generate_fault(prompt, greedy=greedy).fault

    def inject_many(
        self, texts: list[str], code: str | None = None, greedy: bool = True
    ) -> list[GeneratedFault]:
        """Batched :meth:`inject`: NLP per description, then one model batch."""
        prompts = []
        for text in texts:
            spec, context = self.define_fault(text, code=code)
            prompts.append(self.build_prompt(spec, context))
        return [candidate.fault for candidate in self.generate_faults(prompts, greedy=greedy)]

    def run_workflow(
        self,
        text: str,
        target: TargetSystem | str | None = None,
        code: str | None = None,
        feedback: FeedbackProvider | SimulatedTester | None = None,
        mode: str = "subprocess",
    ):
        """Execute the full Fig. 1 workflow for one fault description.

        ``feedback`` may be a callable returning a critique (or ``None`` to
        accept) or a :class:`SimulatedTester`; at most
        ``config.max_refinement_iterations`` refinement rounds are run.

        Returns:
            A :class:`~repro.core.results.WorkflowTrace` with per-stage
            timings and artefacts.
        """
        from ..core.results import WorkflowTrace

        target_system = get_target(target) if isinstance(target, str) else target
        if code is None and target_system is not None:
            code = target_system.build_source()
        trace = WorkflowTrace(description=text, target=target_system.name if target_system else None)

        started = time.perf_counter()
        trace.add_stage("fault_definition", time.perf_counter() - started, {"has_code": code is not None})

        started = time.perf_counter()
        try:
            spec, context = self.define_fault(text, code=code)
        except ReproError as exc:
            trace.add_stage("nlp_processing", time.perf_counter() - started, {"error": str(exc)}, succeeded=False)
            return trace
        trace.spec = spec
        trace.add_stage(
            "nlp_processing",
            time.perf_counter() - started,
            {
                "fault_type": spec.fault_type.value,
                "target_function": spec.target.function,
                "confidence": spec.confidence,
                "entities": len(spec.entities),
            },
        )

        started = time.perf_counter()
        prompt = self.build_prompt(spec, context)
        candidate = self.generate_fault(prompt)
        trace.add_stage(
            "code_generation",
            time.perf_counter() - started,
            {"template": candidate.decisions.template, "logprob": round(candidate.logprob, 3)},
        )

        started = time.perf_counter()
        rounds = 0
        current_spec = spec
        while rounds < self.config.max_refinement_iterations:
            critique = self._critique(feedback, current_spec, candidate)
            if not critique:
                break
            rounds += 1
            current_spec, candidate = self.refine(current_spec, context, critique, iteration=rounds)
        trace.feedback_rounds = rounds
        trace.fault = candidate.fault
        trace.add_stage("rlhf_refinement", time.perf_counter() - started, {"rounds": rounds})

        if target_system is None:
            return trace

        started = time.perf_counter()
        record = self.integrate_and_test(candidate.fault, target_system, mode=mode)
        integration_failed = bool(record.outcome.details.get("integration_failed"))
        trace.add_stage(
            "integration",
            time.perf_counter() - started,
            {"changed_lines": record.outcome.details.get("changed_lines", 0)},
            succeeded=not integration_failed,
        )
        trace.add_stage(
            "testing",
            record.outcome.duration_seconds,
            {
                "failure_mode": record.outcome.failure_mode.value,
                "activated": record.outcome.activated,
            },
            succeeded=not integration_failed,
        )
        trace.outcome = record.outcome
        return trace

    # -- request processing (scheduler callbacks) --------------------------------------

    def _process_generate_batch(self, tickets: list[Ticket]) -> None:
        """Serve one coalesced batch of generate tickets.

        The NLP stage runs through the extractor's batched, cache-assisted
        path; generation shares one batched forward pass across every
        surviving ticket.  Generate-only tickets resolve right after decode;
        execute tickets are grouped per (target, mode) and each group is
        offloaded to a sandbox thread (:meth:`_execute_group`), so the
        dispatch thread never waits on a sandbox.  Per-ticket failures
        resolve that ticket's handle with an error envelope without
        disturbing the rest.
        """
        dispatch_started = time.monotonic()
        live: list[tuple[Ticket, GenerationPrompt]] = []
        for ticket, prompt, error in self._nlp_stage(tickets):
            if error is not None:
                self._resolve_error(ticket, error, dispatch_started)
            else:
                live.append((ticket, prompt))
        if not live:
            return

        try:
            distributions = self.generator.prompt_distributions([p for _, p in live])
        except ReproError as exc:
            for ticket, _prompt in live:
                self._resolve_error(ticket, exc, dispatch_started)
            return
        groups: dict[tuple[str, str], list[_Generated]] = {}
        for row, (ticket, prompt) in enumerate(live):
            if self._resolve_if_expired(ticket, dispatch_started, "before decoding"):
                continue
            request = ticket.request
            row_distributions = {slot: matrix[row] for slot, matrix in distributions.items()}
            decode_started = time.monotonic()
            try:
                candidate = self.generator.decode_prompt(
                    prompt,
                    row_distributions,
                    greedy=request.greedy,
                    decoder=None if request.greedy else self._request_decoder(request.seed),
                    temperature=request.temperature,
                    top_k=request.top_k,
                    top_p=request.top_p,
                    automaton=self.generator.compiler.compile(prompt),
                )
            except ReproError as exc:
                self._resolve_error(ticket, exc, dispatch_started)
                continue
            generated = (ticket, candidate, time.monotonic() - decode_started)
            if request.execute:
                key = (request.target, self._resolve_mode(request.mode))
                groups.setdefault(key, []).append(generated)
            else:
                self._resolve_generated(generated, None, dispatch_started, len(live))

        for (target, mode), members in groups.items():
            self._scheduler.offload(
                functools.partial(
                    self._execute_group, target, mode, members, dispatch_started, len(live)
                ),
                [ticket for ticket, _candidate, _decode in members],
            )

    def _nlp_stage(
        self, tickets: list[Ticket]
    ) -> list[tuple[Ticket, GenerationPrompt | None, ReproError | None]]:
        """Stages 1–2 for a ticket batch via the cache-assisted batched extractor."""
        rows: list[tuple[Ticket, FaultDescription, CodeContext | None, ReproError | None]] = []
        for ticket in tickets:
            request = ticket.request
            try:
                code = request.code
                if code is None and request.target is not None:
                    code = get_target(request.target).build_source()
                context = None
                if code and self.config.use_code_context:
                    context = self.analyzer.analyze(code)
                rows.append((ticket, FaultDescription(text=request.description, code=code), context, None))
            except ReproError as exc:
                rows.append((ticket, FaultDescription(text=request.description), None, exc))

        healthy = [(t, d, c) for t, d, c, e in rows if e is None]
        specs: list[FaultSpec | ReproError] = []
        try:
            specs = list(
                self.extractor.extract_batch([d for _, d, _ in healthy], contexts=[c for _, _, c in healthy])
            )
        except ReproError:
            # One bad description poisons the batched path; fall back to
            # per-ticket extraction so only the offender fails.
            specs = []
            for _ticket, description, context in healthy:
                try:
                    specs.append(self.extractor.extract(description, context=context))
                except ReproError as exc:
                    specs.append(exc)

        results: list[tuple[Ticket, GenerationPrompt | None, ReproError | None]] = []
        healthy_index = 0
        for ticket, _description, context, error in rows:
            if error is not None:
                results.append((ticket, None, error))
                continue
            spec = specs[healthy_index]
            healthy_index += 1
            if isinstance(spec, ReproError):
                results.append((ticket, None, spec))
                continue
            try:
                if context is not None:
                    self.analyzer.select_function(
                        context, ticket.request.description, hint=spec.target.function
                    )
                results.append((ticket, self.prompts.build(spec, context), None))
            except ReproError as exc:
                results.append((ticket, None, exc))
        return results

    def _execute_group(
        self,
        target: str,
        mode: str,
        members: list[_Generated],
        dispatch_started: float,
        batch_size: int,
    ) -> None:
        """Stages 5–6 for one (target, mode) group, on a sandbox thread.

        The group runs as one pooled sandbox batch and its tickets resolve
        together when the batch returns.  The plane is guarded by its
        circuit breaker: while the breaker is open, tickets degrade
        gracefully — the generated fault is still returned
        (``status="degraded"``, ``outcome=None``) with an
        ``ErrorInfo(kind="unavailable")`` attached instead of queueing more
        work behind a failing plane.  Transient sandbox errors are retried
        under the engine's deterministic
        :class:`~repro.resilience.RetryPolicy`, and per-ticket deadlines
        clamp the sandbox task budget.
        """
        live = [
            member
            for member in members
            if not self._resolve_if_expired(member[0], dispatch_started, "before sandbox execution")
        ]
        if not live:
            return

        breaker = self._breakers.get(target, mode)
        if not breaker.allow():
            error = CircuitOpenError(
                f"execution plane '{target}:{mode}' is failing fast; "
                f"retry after {breaker.retry_after():.0f}s",
                key=breaker.key,
            )
            for ticket, candidate, _decode in live:
                self._resolve_degraded(ticket, candidate, error, dispatch_started, batch_size)
            return

        deadlines = [t.deadline for t, _, _ in live if t.deadline is not None]
        tightest = min(deadlines, key=lambda d: d.expires_at) if deadlines else None
        timeout_override = tightest.clamp(self.config.integration.test_timeout_seconds) if tightest else None
        runner = self._runner_for(target)
        faults = [candidate.fault for _, candidate, _ in live]
        try:
            batch = self._retry.run(
                lambda: runner.run_many(faults, mode=mode, timeout_seconds=timeout_override),
                key=f"{target}:{mode}",
                retry_on=(ReproError,),
                deadline=tightest,
            )
        except ReproError as exc:
            breaker.record_failure()
            for ticket, _candidate, _decode in live:
                self._resolve_error(ticket, exc, dispatch_started)
            return
        breaker.record_success()
        for generated, record in zip(live, batch.records):
            self._resolve_generated(generated, record.outcome, dispatch_started, batch_size)

    def _resolve_generated(
        self,
        generated: _Generated,
        outcome: InjectionOutcome | None,
        dispatch_started: float,
        batch_size: int,
    ) -> None:
        """Resolve a generate ticket with its fault (and sandbox outcome)."""
        ticket, candidate, decode_seconds = generated
        if self._resolve_if_expired(ticket, dispatch_started, "before the response was built"):
            return
        payload = GeneratePayload.from_candidate(candidate, outcome=outcome, batch_size=batch_size)
        self._resolve_ok(ticket, payload, dispatch_started, decode_seconds=decode_seconds)

    def _resolve_degraded(
        self,
        ticket: Ticket,
        candidate: GenerationCandidate,
        exc: BaseException,
        dispatch_started: float,
        batch_size: int,
    ) -> None:
        """Resolve a generate ticket whose execution plane is failing fast.

        Graceful degradation: the generated fault is still delivered
        (``payload`` with ``outcome=None``) under ``status="degraded"``, with
        the breaker's error attached so clients know execution was skipped.
        """
        ticket.handle._resolve(
            Response(
                request_id=ticket.handle.request_id,
                kind=ticket.request.kind,
                status="degraded",
                payload=GeneratePayload.from_candidate(candidate, outcome=None, batch_size=batch_size),
                error=ErrorInfo.from_exception(exc),
                timings=self._timings(ticket, dispatch_started),
            )
        )

    def _resolve_if_expired(self, ticket: Ticket, dispatch_started: float, where: str) -> bool:
        """Resolve a ticket whose deadline elapsed mid-pipeline; True if it did."""
        if not ticket.expired():
            return False
        self._resolve_error(
            ticket,
            DeadlineExceededError(f"deadline exceeded {where}"),
            dispatch_started,
        )
        return True

    def _process_single(self, ticket: Ticket) -> None:
        """Serve one heavyweight (dataset / campaign / RLHF) ticket."""
        dispatch_started = time.monotonic()
        request = ticket.request
        try:
            self._check_single_breaker(request)
            if isinstance(request, DatasetRequest):
                payload = self._run_dataset(request)
            elif isinstance(request, CampaignRequest):
                payload = self._run_campaign(request)
            elif isinstance(request, RLHFRequest):
                payload = self._run_rlhf_request(request)
            else:  # pragma: no cover - submit() already rejects unknown kinds
                raise RequestError(f"unsupported request kind {type(request).__name__}")
            if ticket.expired():
                raise DeadlineExceededError("deadline exceeded during execution")
        except ReproError as exc:
            self._resolve_error(ticket, exc, dispatch_started)
            return
        self._resolve_ok(ticket, payload, dispatch_started)

    def _check_single_breaker(self, request: Request) -> None:
        """Fail a heavyweight request fast when its execution plane's breaker
        is open.

        Only the fully-open state rejects — a half-open breaker lets the
        request through as its recovery probe would for generate batches.
        The state is compared directly (not via ``allow()``) so heavyweight
        tickets never consume the limited half-open probe slots.
        """
        target = getattr(request, "target", None)
        if not isinstance(request, (CampaignRequest, RLHFRequest)) or not target:
            return
        if isinstance(request, CampaignRequest):
            # Campaigns run on the default mode as is; RLHF trainers are promoted.
            mode = request.mode or self.config.execution.default_mode
        else:
            mode = self._resolve_mode(request.mode)
        breaker = self._breakers.get(target, mode)
        if breaker.state == OPEN:
            raise CircuitOpenError(
                f"execution plane '{target}:{mode}' is failing fast; "
                f"retry after {breaker.retry_after():.0f}s",
                key=breaker.key,
            )

    def _run_dataset(self, request: DatasetRequest) -> DatasetPayload:
        """Execute a dataset sweep (optionally streaming and/or running SFT)."""
        overrides = {}
        if request.samples_per_target is not None:
            overrides["samples_per_target"] = request.samples_per_target
        if request.validate_candidates is not None:
            overrides["validate_candidates"] = request.validate_candidates
        generator = self.dataset_generator
        if overrides:
            generator = self._dataset_generator(replace(self.config.dataset, **overrides))
        targets = [get_target(name) for name in request.targets] or None
        if request.jsonl_path is not None:
            path = generator.generate_to_jsonl(request.jsonl_path, targets)
            swept = targets if targets is not None else all_targets()
            records = sum(generator.stats.per_target.get(t.name, 0) for t in swept)
            return DatasetPayload(
                records=records, stats=generator.stats.to_dict(), jsonl_path=str(path)
            )
        dataset = generator.generate(targets)
        self.dataset = dataset
        sft = None
        if request.run_sft and len(dataset) > 0:
            examples = generator.to_sft_examples(dataset)
            self.sft_report = self.sft_trainer.train(examples)
            sft = self.sft_report.to_dict()
        return DatasetPayload(records=len(dataset), stats=generator.stats.to_dict(), sft=sft)

    def _run_campaign(self, request: CampaignRequest) -> CampaignPayload:
        """Execute the comparison campaign for the requested techniques."""
        from ..core.campaign import CampaignOrchestrator

        orchestrator = CampaignOrchestrator(self, request.target, mode=request.mode)
        scenarios = list(request.scenarios)
        defined = orchestrator.define_scenarios(scenarios)
        payload = CampaignPayload(target=request.target)
        if "neural" in request.techniques:
            result = orchestrator.run_neural(scenarios, defined=defined)
            payload.techniques["neural"] = result.to_dict()
        if "predefined-model" in request.techniques:
            result = orchestrator.run_predefined(scenarios, budget=request.budget, defined=defined)
            payload.techniques["predefined-model"] = result.to_dict()
        if "random" in request.techniques:
            result = orchestrator.run_random(scenarios, budget=request.budget, defined=defined)
            payload.techniques["random"] = result.to_dict()
        return payload

    def _run_rlhf_request(self, request: RLHFRequest) -> RLHFPayload:
        """Execute the RLHF loop for a typed request."""
        code = request.code
        if code is None and request.target is not None:
            code = get_target(request.target).build_source()
        prompts = []
        for text in request.descriptions:
            spec, context = self.define_fault(text, code=code)
            prompts.append(self.build_prompt(spec, context))
        overrides = {}
        if request.iterations is not None:
            overrides["iterations"] = request.iterations
        if request.candidates_per_iteration is not None:
            overrides["candidates_per_iteration"] = request.candidates_per_iteration
        rlhf_config = replace(self.config.rlhf, **overrides) if overrides else self.config.rlhf
        trainer = self._rlhf_trainer(
            target=request.target, mode=request.mode, rlhf_config=rlhf_config
        )
        self.rlhf_report = trainer.run(prompts)
        return RLHFPayload(report=self.rlhf_report.to_dict(), prompts=len(prompts))

    # -- internals ---------------------------------------------------------------------

    def _request_decoder(self, seed: int | None) -> Decoder:
        """A decoder seeded exactly like a fresh solo pipeline's decoder.

        The RNG chain mirrors ``SeededRNG(seed, "pipeline")`` →
        ``fork("generator")`` → ``fork("decoder")``.  With the default seed
        (``None`` → the pipeline seed), a sampled request therefore decodes
        bit-identically to the *first* sample drawn by a fresh
        :class:`NeuralFaultInjector` under the same config — no matter how
        requests were grouped.  An explicit per-request seed pins the
        request's own sample stream instead (identical between grouped and
        solo submission on the same engine); the policy weights still come
        from the pipeline seed.
        """
        effective = self.config.seed if seed is None else seed
        chain = SeededRNG(effective, namespace="pipeline").fork("generator").fork("decoder")
        return Decoder(self.config.model, rng=chain)

    def _resolve_mode(self, mode: str | None) -> str:
        """Default execution mode with the untrusted-fault promotion applied."""
        if mode is None:
            mode = self.config.execution.default_mode
            if mode == "inprocess":
                mode = "subprocess"
        return mode

    def _resolve_ok(
        self, ticket: Ticket, payload, dispatch_started: float, decode_seconds: float = 0.0
    ) -> None:
        ticket.handle._resolve(
            Response(
                request_id=ticket.handle.request_id,
                kind=ticket.request.kind,
                status="ok",
                payload=payload,
                timings=self._timings(ticket, dispatch_started, decode_seconds),
            )
        )

    def _resolve_error(self, ticket: Ticket, exc: BaseException, dispatch_started: float) -> None:
        ticket.handle._resolve(
            Response(
                request_id=ticket.handle.request_id,
                kind=ticket.request.kind,
                status="error",
                error=ErrorInfo.from_exception(exc),
                timings=self._timings(ticket, dispatch_started),
            )
        )

    @staticmethod
    def _timings(ticket: Ticket, dispatch_started: float, decode_seconds: float = 0.0) -> Timings:
        now = time.monotonic()
        return Timings(
            queued_seconds=max(0.0, dispatch_started - ticket.submitted_at),
            execution_seconds=max(0.0, now - dispatch_started),
            decode_seconds=max(0.0, decode_seconds),
        )

    def _runner_for(self, target: TargetSystem | str) -> ExperimentRunner:
        """The per-target experiment runner on the engine's sandbox runner
        (created lazily)."""
        target_system = get_target(target) if isinstance(target, str) else target
        with self._lock:
            if target_system.name not in self._experiment_runners:
                self._experiment_runners[target_system.name] = ExperimentRunner(
                    target_system,
                    config=self.config.integration,
                    runner=self.sandbox_runner,
                    seed=self.config.seed,
                )
            return self._experiment_runners[target_system.name]

    def _dataset_generator(self, config: DatasetConfig) -> DatasetGenerator:
        """A dataset generator on the engine's NLP stack and sandbox runner."""
        return DatasetGenerator(
            config,
            execution=self.config.execution,
            runner=self.sandbox_runner,
            extractor=self.extractor,
            analyzer=self.analyzer,
            prompts=self.prompts,
        )

    @staticmethod
    def _critique(
        feedback: FeedbackProvider | SimulatedTester | None,
        spec: FaultSpec,
        candidate: GenerationCandidate,
    ) -> str | None:
        if feedback is None:
            return None
        if isinstance(feedback, SimulatedTester):
            review = feedback.review(spec, candidate)
            return None if review.accept else review.critique
        return feedback(spec, candidate)
