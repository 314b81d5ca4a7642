"""The engine façade: lifecycle, solo-parity determinism, cache persistence,
and the batched NLP extraction stage."""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import subprocess
import threading
import time

import pytest

from repro import (
    FaultInjectionEngine,
    GenerateRequest,
    NeuralFaultInjector,
    PipelineConfig,
)
from repro.api import CampaignRequest, DatasetRequest, GeneratePayload, RLHFRequest
from repro.config import (
    DistributedConfig,
    EngineConfig,
    ExecutionConfig,
    IntegrationConfig,
    RLHFConfig,
)
from repro.errors import EngineClosedError, RequestError
from repro.execution import pool as pool_module
from repro.nlp import FaultSpecExtractor
from repro.rng import SeededRNG
from repro.targets import get_target
from repro.types import FailureMode, FaultDescription

from oracles.interpreted_decode import InterpretedDecoder

DESCRIPTIONS = [
    "Simulate a timeout in the transfer function causing an unhandled exception",
    "Silently corrupt the amount returned by the transfer function",
    "Make the withdraw function silently swallow errors instead of raising them",
    "Remove the overdraft validation check from withdraw",
    "Raise an unexpected exception in deposit when the amount is small",
    "Introduce a delay into apply_interest that slows every statement run",
]

#: Descriptions grounded in the kvstore target's functions.
KVSTORE_DESCRIPTIONS = [
    "Simulate a timeout in the put function causing an unhandled exception",
    "Make the get function silently swallow errors instead of raising them",
    "Silently corrupt the value returned by the get function",
]

#: A hang-prone description: the model turns it into a bank deadlock.
DEADLOCK = "Cause a deadlock in the withdraw function by acquiring the lock twice"


def _expected_payload_dict(
    config: PipelineConfig, description: str, target: str, greedy: bool, seed: int | None = None
):
    """The payload a fresh, solo run through the old API produces.

    Its generator decodes through the interpreted oracle, seeded like the
    engine's per-request decoder: ``SeededRNG(seed, "pipeline")`` →
    ``fork("generator")`` → ``fork("decoder")``, where no seed means the
    pipeline seed.
    """
    fresh = PipelineConfig.from_dict(config.to_dict())
    chain = SeededRNG(fresh.seed if seed is None else seed, namespace="pipeline")
    with NeuralFaultInjector(fresh) as legacy:
        legacy.generator.decoder = InterpretedDecoder(
            fresh.model, rng=chain.fork("generator").fork("decoder")
        )
        code = get_target(target).build_source()
        spec, context = legacy.define_fault(description, code=code)
        prompt = legacy.build_prompt(spec, context)
        candidate = legacy.generate_fault(prompt, greedy=greedy)
    return GeneratePayload.from_candidate(candidate).deterministic_dict()


class TestEngineLifecycle:
    def test_context_manager_closes_engine(self):
        with FaultInjectionEngine() as engine:
            assert not engine.closed
        assert engine.closed

    def test_close_is_idempotent(self):
        engine = FaultInjectionEngine()
        engine.close()
        engine.close()
        assert engine.closed

    def test_submit_after_close_raises(self):
        engine = FaultInjectionEngine()
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.submit(GenerateRequest(description="x"))

    def test_requests_submitted_before_close_still_resolve(self):
        engine = FaultInjectionEngine()
        handles = [
            engine.submit(GenerateRequest(description=text, target="bank"))
            for text in DESCRIPTIONS[:3]
        ]
        engine.close()
        for handle in handles:
            assert handle.result(timeout=30).ok

    def test_untyped_requests_are_rejected(self):
        with FaultInjectionEngine() as engine:
            with pytest.raises(RequestError, match="typed request"):
                engine.submit({"description": "x"})

    def test_legacy_facade_shares_the_engine_stack(self):
        with FaultInjectionEngine() as engine:
            legacy = NeuralFaultInjector(engine=engine)
            assert legacy.engine is engine
            assert legacy.generator is engine.generator
            assert legacy.extractor is engine.extractor
            assert legacy.config is engine.config


class TestSandboxThreads:
    """Sandbox batches leave the dispatch thread: a hung mutant delays only
    its own ticket."""

    def test_later_requests_overtake_a_hung_mutant(self):
        config = PipelineConfig(integration=IntegrationConfig(test_timeout_seconds=3.0))
        requests = [
            GenerateRequest(description=DEADLOCK, target="bank", execute=True, request_id="hung"),
            GenerateRequest(
                description=KVSTORE_DESCRIPTIONS[0], target="kvstore", execute=True, request_id="kvstore"
            ),
            GenerateRequest(description=DESCRIPTIONS[0], target="bank", request_id="generate-only"),
        ]
        resolved: list[str] = []
        with FaultInjectionEngine(config) as engine:
            handles = []
            for request in requests:
                handle = engine.submit(request)
                handle.add_done_callback(lambda done: resolved.append(done.request_id))
                handles.append(handle)
            responses = [handle.result(timeout=60) for handle in handles]
        assert [response.status for response in responses] == ["ok", "ok", "ok"]
        assert responses[0].payload.outcome.failure_mode is FailureMode.HANG
        assert responses[1].payload.outcome.failure_mode is not FailureMode.HANG
        assert responses[2].payload.outcome is None
        assert resolved == ["generate-only", "kvstore", "hung"]


class TestSandboxSlots:
    """``max_workers`` bounds the engine's running sandbox workloads, however
    many sandbox threads run execution groups at once."""

    @pytest.mark.parametrize("mode", ["subprocess", pytest.param("pool", marks=pytest.mark.pool)])
    def test_concurrent_groups_share_max_workers(self, monkeypatch, mode):
        live = peak = 0
        lock = threading.Lock()
        engine = None

        def counted(runs: int, call):
            nonlocal live, peak
            with lock:
                live += runs
                peak = max(peak, live)
            try:
                time.sleep(0.2)  # long enough for the groups to overlap
                return call()
            finally:
                with lock:
                    live -= runs

        if mode == "subprocess":
            real_run = subprocess.run

            def run(command, *args, **kwargs):
                # Count only this engine's sandbox children, whose module file
                # ([python, -S, -c, driver, package root, target, module, ...])
                # sits in its sandbox runner's scratch directory; a sandbox
                # child left over from an earlier test's engine is not ours.
                if engine is None or not isinstance(command, list) or len(command) <= 6:
                    return real_run(command, *args, **kwargs)
                scratch = engine.sandbox_runner._scratch
                if scratch is None or os.path.dirname(command[6]) != scratch.name:
                    return real_run(command, *args, **kwargs)
                return counted(1, lambda: real_run(command, *args, **kwargs))

            monkeypatch.setattr(subprocess, "run", run)
        else:
            real_submit = pool_module._submit

            def finished(_future) -> None:
                nonlocal live
                with lock:
                    live -= 1

            def submit(executor, task):
                # A pool task counts from its submission until its future
                # resolves; this callback runs before the one that frees its
                # slot.
                nonlocal live, peak
                with lock:
                    live += 1
                    peak = max(peak, live)
                time.sleep(0.2)  # long enough for the groups to overlap
                future = real_submit(executor, task)
                future.add_done_callback(finished)
                return future

            monkeypatch.setattr(pool_module, "_submit", submit)

        config = PipelineConfig(
            execution=ExecutionConfig(max_workers=2),
            engine=EngineConfig(max_queue_delay_seconds=0.0),
        )
        requests = [
            GenerateRequest(description=description, target=target, execute=True, mode=mode)
            for target, descriptions in (("bank", DESCRIPTIONS[:2]), ("kvstore", KVSTORE_DESCRIPTIONS[:2]))
            for description in descriptions
        ]
        with FaultInjectionEngine(config) as engine:
            with engine._scheduler.held():  # one dispatch: two groups of two
                handles = [engine.submit(request) for request in requests]
            responses = [handle.result(timeout=120) for handle in handles]
            in_use = engine.sandbox_runner.slots.in_use
            assert in_use == 0, f"slots.in_use={in_use} after every response (peak={peak})"
        assert [response.status for response in responses] == ["ok"] * 4
        assert 1 <= peak <= 2, f"peak={peak} concurrent sandbox runs (slots.in_use={in_use})"


class TestOneSandboxRunner:
    """Every sandbox run of an engine goes through its one runner: one pool
    per plane, whatever the target, technique or request kind."""

    @staticmethod
    def _config(**execution) -> PipelineConfig:
        return PipelineConfig(
            execution=ExecutionConfig(**execution),
            engine=EngineConfig(max_queue_delay_seconds=0.0),
        )

    @pytest.mark.pool
    def test_campaign_baselines_and_override_datasets_count_on_the_pool(self):
        with FaultInjectionEngine(self._config(default_mode="pool", max_workers=2)) as engine:
            campaign = engine.run(
                CampaignRequest(
                    target="bank",
                    scenarios=(DESCRIPTIONS[0],),
                    techniques=("predefined-model", "random"),
                    budget=2,
                )
            )
            assert campaign.ok, campaign.error
            assert engine.execution_stats()["totals"]["tasks_executed"] == 4
            dataset = engine.run(
                DatasetRequest(targets=("bank",), samples_per_target=2, validate_candidates=True)
            )
            assert dataset.ok, dataset.error
            stats = engine.execution_stats()
        assert stats["totals"]["tasks_executed"] == 6
        assert list(stats["pools"]) == ["pool"]

    def test_a_fixed_coordinator_port_serves_every_target_and_campaign(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        config = self._config(max_workers=1, distributed=DistributedConfig(port=port, workers=1))
        with FaultInjectionEngine(config) as engine:
            campaign = engine.run(
                CampaignRequest(
                    target="bank",
                    scenarios=(DESCRIPTIONS[0],),
                    techniques=("neural", "predefined-model"),
                    budget=1,
                    mode="distributed",
                )
            )
            assert campaign.ok, campaign.error
            executed = engine.run_many(
                [
                    GenerateRequest(description=DESCRIPTIONS[1], target="bank", execute=True, mode="distributed"),
                    GenerateRequest(
                        description=KVSTORE_DESCRIPTIONS[0], target="kvstore", execute=True, mode="distributed"
                    ),
                ]
            )
            assert [response.status for response in executed] == ["ok", "ok"]
            stats = engine.execution_stats()
        assert list(stats["pools"]) == ["distributed"]
        assert stats["distributed"]["workers"] == 1

    @pytest.mark.pool
    def test_every_target_runs_on_one_pool(self):
        descriptions = {
            "bank": DESCRIPTIONS[0],
            "kvstore": KVSTORE_DESCRIPTIONS[0],
            "ecommerce": "Simulate a timeout in the charge_payment function causing an unhandled exception",
            "queue": "Simulate a timeout in the publish function causing an unhandled exception",
        }
        before = {child.pid for child in multiprocessing.active_children()}
        with FaultInjectionEngine(self._config(default_mode="pool", max_workers=2)) as engine:
            responses = engine.run_many(
                [
                    GenerateRequest(description=description, target=target, execute=True)
                    for target, description in descriptions.items()
                ]
            )
            assert [response.status for response in responses] == ["ok"] * 4
            workers = [child for child in multiprocessing.active_children() if child.pid not in before]
            assert 1 <= len(workers) <= engine.config.execution.resolved_workers()


class TestCloseFromCallbacks:
    """A done-callback may close the engine; queued work still resolves."""

    def _config(self) -> PipelineConfig:
        return PipelineConfig(engine=EngineConfig(max_queue_delay_seconds=0.0))

    def test_close_on_the_dispatch_thread_still_runs_queued_executions(self):
        engine = FaultInjectionEngine(self._config())
        with engine._scheduler.held():
            generate_only = engine.submit(GenerateRequest(description=DESCRIPTIONS[0], target="bank"))
            executions = [
                engine.submit(GenerateRequest(description=description, target="bank", execute=True))
                for description in DESCRIPTIONS[1:3]
            ]
            # Generate-only tickets resolve on the dispatch thread.
            generate_only.add_done_callback(lambda _handle: engine.close())
        responses = [handle.result(timeout=60) for handle in (generate_only, *executions)]
        assert [response.status for response in responses] == ["ok"] * 3
        assert all(response.payload.outcome is not None for response in responses[1:])
        assert engine.closed
        engine.close()  # a later close from the caller's thread waits for the drain
        with pytest.raises(EngineClosedError):
            engine.submit(GenerateRequest(description=DESCRIPTIONS[0], target="bank"))

    def test_close_on_a_sandbox_thread_releases_the_runners(self):
        engine = FaultInjectionEngine(self._config())
        first = engine.submit(GenerateRequest(description=DESCRIPTIONS[0], target="bank", execute=True))
        # Execute tickets resolve on a sandbox thread.
        first.add_done_callback(lambda _handle: engine.close())
        assert first.result(timeout=60).status == "ok"
        deadline = time.monotonic() + 30
        while engine._experiment_runners and time.monotonic() < deadline:
            time.sleep(0.01)
        assert engine._experiment_runners == {}  # the helper thread finished the close
        with pytest.raises(EngineClosedError):
            engine.submit(GenerateRequest(description=DESCRIPTIONS[0], target="bank"))


class TestSoloParityDeterminism:
    """Concurrent mixes are byte-identical to solo interpreted runs through the old API."""

    def test_concurrent_mix_matches_fresh_old_api_payloads(self):
        config = PipelineConfig()
        mix = [(text, "bank") for text in DESCRIPTIONS] + [
            (text, "kvstore") for text in KVSTORE_DESCRIPTIONS
        ]
        requests = [
            GenerateRequest(
                description=text,
                target=target,
                greedy=index % 3 != 2,
                request_id=f"mix-{index}",
            )
            for index, (text, target) in enumerate(mix)
        ] + [
            GenerateRequest(
                description=text,
                target=target,
                greedy=False,
                seed=1000 + index,
                request_id=f"seeded-{index}",
            )
            for index, (text, target) in enumerate(mix[::2])
        ]
        with FaultInjectionEngine(config) as engine:
            responses = [None] * len(requests)

            def client(start: int) -> None:
                for offset in range(start, len(requests), 2):
                    responses[offset] = engine.submit(requests[offset])

            threads = [threading.Thread(target=client, args=(start,)) for start in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            envelopes = [handle.result(timeout=60) for handle in responses]

        for request, envelope in zip(requests, envelopes):
            assert envelope.ok, envelope.error
            assert envelope.request_id == request.request_id
            produced = json.dumps(envelope.payload.deterministic_dict(), sort_keys=True)
            expected = json.dumps(
                _expected_payload_dict(
                    config, request.description, request.target, request.greedy, request.seed
                ),
                sort_keys=True,
            )
            assert produced == expected, f"payload drifted for {request.request_id}"

    def test_seeded_sampling_is_invariant_to_grouping(self):
        config = PipelineConfig()
        requests = [
            GenerateRequest(
                description=text, target="bank", greedy=False, seed=1000 + index
            )
            for index, text in enumerate(DESCRIPTIONS[:4])
        ]
        with FaultInjectionEngine(config) as engine:
            grouped = engine.run_many(requests)
        solo = []
        for request in requests:
            with FaultInjectionEngine(PipelineConfig.from_dict(config.to_dict())) as fresh:
                solo.append(fresh.run(request))
        for grouped_response, solo_response in zip(grouped, solo):
            assert grouped_response.ok and solo_response.ok
            assert json.dumps(grouped_response.payload.deterministic_dict(), sort_keys=True) == json.dumps(
                solo_response.payload.deterministic_dict(), sort_keys=True
            )

    def test_executed_request_matches_old_api_outcome(self):
        config = PipelineConfig()
        request = GenerateRequest(
            description=DESCRIPTIONS[0], target="bank", execute=True, mode="subprocess"
        )
        with FaultInjectionEngine(config) as engine:
            response = engine.run(request)
        assert response.ok
        with NeuralFaultInjector(PipelineConfig.from_dict(config.to_dict())) as legacy:
            fault = legacy.inject(DESCRIPTIONS[0], code=get_target("bank").build_source())
            record = legacy.integrate_and_test(fault, "bank", mode="subprocess")
        produced = response.payload.deterministic_dict()["outcome"]
        expected = record.outcome.to_dict()
        expected.pop("duration_seconds", None)
        assert produced == expected

    def test_error_requests_resolve_with_structured_envelopes(self):
        with FaultInjectionEngine() as engine:
            # A code context with no functions fails function selection in
            # the NLP stage without disturbing the healthy request.
            broken = GenerateRequest(description="make it fail somehow", code="x = 1\n")
            healthy = GenerateRequest(description=DESCRIPTIONS[0], target="bank")
            responses = engine.run_many([broken, healthy])
        assert not responses[0].ok
        assert responses[0].error.type == "CodeAnalysisError"
        assert responses[0].payload is None
        assert responses[1].ok


class TestHeavyweightRequests:
    def test_dataset_request_produces_records_and_updates_engine_state(self, tmp_path):
        with FaultInjectionEngine() as engine:
            response = engine.run(DatasetRequest(targets=("bank",), samples_per_target=4))
            assert response.ok
            assert response.payload.records == 4
            assert engine.dataset is not None and len(engine.dataset) == 4
            streamed = engine.run(
                DatasetRequest(
                    targets=("bank",), samples_per_target=4, jsonl_path=str(tmp_path / "d.jsonl")
                )
            )
            assert streamed.ok
            assert streamed.payload.jsonl_path.endswith("d.jsonl")
            assert (tmp_path / "d.jsonl").exists()

    def test_rlhf_request_runs_the_loop(self):
        config = PipelineConfig(rlhf=RLHFConfig(iterations=1, candidates_per_iteration=2))
        with FaultInjectionEngine(config) as engine:
            response = engine.run(
                RLHFRequest(descriptions=(DESCRIPTIONS[0],), iterations=1)
            )
        assert response.ok
        assert response.payload.prompts == 1
        assert len(response.payload.report["iterations"]) == 1


class TestCachePersistence:
    def test_save_and_load_round_trip_warms_a_fresh_engine(self, tmp_path):
        path = tmp_path / "caches.pkl"
        config = PipelineConfig()
        with FaultInjectionEngine(config) as engine:
            engine.run_many(
                [GenerateRequest(description=text, target="bank") for text in DESCRIPTIONS[:3]]
            )
            counts = engine.save_caches(path)
        assert counts["extract"] > 0 and counts["encoder"] > 0 and counts["render"] > 0

        with FaultInjectionEngine(PipelineConfig.from_dict(config.to_dict())) as warmed:
            installed = warmed.load_caches(path)
            assert installed["extract"] == counts["extract"]
            assert installed["encoder"] == counts["encoder"]
            assert installed["render"] == counts["render"]
            warmed.run_many(
                [GenerateRequest(description=text, target="bank") for text in DESCRIPTIONS[:3]]
            )
            assert warmed.extractor.cache_info()["hits"] >= 3
            assert warmed.generator.encoder.cache_info()["hits"] >= 3
            assert warmed.generator.grammar.cache_info()["hits"] >= 3

    def test_loaded_results_match_unwarmed_results(self, tmp_path):
        path = tmp_path / "caches.pkl"
        config = PipelineConfig()
        request = GenerateRequest(description=DESCRIPTIONS[1], target="bank")
        with FaultInjectionEngine(config) as engine:
            cold = engine.run(request)
            engine.save_caches(path)
        with FaultInjectionEngine(PipelineConfig.from_dict(config.to_dict())) as warmed:
            warmed.load_caches(path)
            warm = warmed.run(request)
        assert json.dumps(cold.payload.deterministic_dict(), sort_keys=True) == json.dumps(
            warm.payload.deterministic_dict(), sort_keys=True
        )

    def test_unsupported_cache_version_is_rejected(self, tmp_path):
        import pickle

        from repro.errors import ReproError

        path = tmp_path / "bad.pkl"
        path.write_bytes(pickle.dumps({"version": 99}))
        with FaultInjectionEngine() as engine:
            with pytest.raises(ReproError, match="unsupported cache file version"):
                engine.load_caches(path)


class TestBatchedExtraction:
    def test_extract_batch_matches_per_description_extraction(self):
        cached = FaultSpecExtractor(cache_size=64)
        uncached = FaultSpecExtractor(cache_size=0)
        descriptions = [FaultDescription(text=text) for text in DESCRIPTIONS]
        batch = cached.extract_batch(descriptions)
        solo = [uncached.extract(description) for description in descriptions]
        assert [spec.to_dict() for spec in batch] == [spec.to_dict() for spec in solo]

    def test_repeated_descriptions_hit_the_cache(self):
        extractor = FaultSpecExtractor(cache_size=64)
        descriptions = [FaultDescription(text=DESCRIPTIONS[0]) for _ in range(5)]
        extractor.extract_batch(descriptions)
        info = extractor.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 4

    def test_cache_hits_return_independent_copies(self):
        extractor = FaultSpecExtractor(cache_size=64)
        description = FaultDescription(text=DESCRIPTIONS[0])
        first = extractor.extract(description)
        first.parameters["mutated"] = True
        first.entities.clear()
        second = extractor.extract(description)
        assert "mutated" not in second.parameters
        assert second.entities or second.to_dict() != {}
        assert second.parameters is not first.parameters

    def test_misaligned_contexts_are_rejected(self):
        from repro.errors import SpecificationError

        extractor = FaultSpecExtractor()
        with pytest.raises(SpecificationError, match="align"):
            extractor.extract_batch([FaultDescription(text="x")], contexts=[None, None])

    def test_zero_cache_size_disables_caching(self):
        extractor = FaultSpecExtractor(cache_size=0)
        description = FaultDescription(text=DESCRIPTIONS[0])
        extractor.extract(description)
        extractor.extract(description)
        assert extractor.cache_info()["size"] == 0
        assert extractor.cache_info()["hits"] == 0
