"""Batched-vs-per-sample equivalence for the vectorized inference engine.

The per-sample model path in ``tests/oracles/per_sample.py`` (forward,
backward, one-prompt generation loops) and the per-pair reward-model loop are
the reference oracles: every batched path must reproduce them to 1e-9.  The
reference implementations of the SFT epoch and the REINFORCE update live in
this file as verbatim copies of the pre-vectorization loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig, RLHFConfig, SFTConfig
from repro.llm import (
    DECISION_SLOTS,
    DecisionAutomaton,
    Decoder,
    DecisionVector,
    FaultGenerator,
    FeatureEncoder,
    PolicyNetwork,
    SFTExample,
    SFTTrainer,
    load_checkpoint,
    reference_decisions,
    save_checkpoint,
)
from repro.nlp import CodeAnalyzer, FaultSpecExtractor, PromptBuilder
from repro.rlhf.policy_opt import PolicyOptimizer, RewardedSample
from repro.rlhf.preference import PreferenceDataset
from repro.rlhf.reward_model import RewardModel
from repro.rng import SeededRNG

from oracles import per_sample

ATOL = 1e-9

DESCRIPTIONS = [
    "Simulate a timeout in the process_transaction function causing an unhandled exception",
    "Make the charge function silently swallow errors instead of raising them",
    "Introduce a delay into compute_total that slows every run",
    "Remove the validation check from validate",
    "Silently corrupt the total returned by compute_total",
    "Make send_receipt fail intermittently with a network error",
]


@pytest.fixture(scope="module")
def prompts(sample_module):
    extractor = FaultSpecExtractor()
    analyzer = CodeAnalyzer()
    builder = PromptBuilder()
    built = []
    for text in DESCRIPTIONS:
        spec = extractor.extract_from_text(text, sample_module)
        context = analyzer.analyze(sample_module)
        analyzer.select_function(context, text, hint=spec.target.function)
        built.append(builder.build(spec, context))
    return built


@pytest.fixture()
def encoder():
    return FeatureEncoder(ModelConfig())


@pytest.fixture()
def policy():
    return PolicyNetwork(ModelConfig())


@pytest.fixture()
def features_matrix(prompts, encoder):
    return encoder.encode_batch(prompts)


@pytest.fixture()
def decisions(prompts):
    return [reference_decisions(prompt.spec) for prompt in prompts]


class TestNetworkBatchEquivalence:
    def test_forward_batch_matches_per_sample(self, policy, features_matrix):
        batched = policy.forward_batch(features_matrix)
        for row in range(features_matrix.shape[0]):
            single = per_sample.forward(policy, features_matrix[row])
            assert np.allclose(batched.hidden[row], single.hidden, atol=ATOL)
            for slot in DECISION_SLOTS:
                assert np.allclose(
                    batched.probabilities[slot][row], single.probabilities[slot], atol=ATOL
                )

    def test_log_probabilities_batch_matches_per_sample(self, policy, features_matrix, decisions):
        batched = policy.log_probabilities_batch(features_matrix, decisions)
        for row, decision in enumerate(decisions):
            assert batched[row] == pytest.approx(
                per_sample.log_probability(policy, features_matrix[row], decision), abs=ATOL
            )

    def test_backward_batch_matches_accumulated_per_sample(
        self, policy, features_matrix, decisions
    ):
        scales = np.linspace(-1.5, 2.0, len(decisions))
        weights = {"template": 2.0, "severity": 0.25}
        batched = policy.backward_batch(
            policy.forward_batch(features_matrix), decisions, scales=scales, slot_weights=weights
        )
        accumulated = policy.zero_gradients()
        for row, decision in enumerate(decisions):
            forward = per_sample.forward(policy, features_matrix[row])
            per_sample.add_gradients(
                accumulated,
                per_sample.backward(
                    policy, forward, decision, scale=float(scales[row]), slot_weights=weights
                ),
            )
        assert batched.examples == accumulated.examples
        assert np.allclose(batched.w1, accumulated.w1, atol=ATOL)
        assert np.allclose(batched.b1, accumulated.b1, atol=ATOL)
        for slot in DECISION_SLOTS:
            assert np.allclose(batched.heads_w[slot], accumulated.heads_w[slot], atol=ATOL)
            assert np.allclose(batched.heads_b[slot], accumulated.heads_b[slot], atol=ATOL)

    def test_forward_batch_rejects_wrong_shape(self, policy):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            policy.forward_batch(np.zeros((4, 3)))


#: Decoder tests decode unconstrained prompts.
FREE = DecisionAutomaton.from_constraints({})


class TestTruncation:
    """``Decoder._truncate`` keeps a normalised top-k / nucleus support."""

    CASES = [
        {"top_k": None, "top_p": None},
        {"top_k": 1, "top_p": None},
        {"top_k": 2, "top_p": None},
        {"top_k": 100, "top_p": None},  # top_k >= vocabulary: no-op
        {"top_k": None, "top_p": 0.3},
        {"top_k": None, "top_p": 0.9},
        {"top_k": None, "top_p": 1.0},  # top_p == 1.0: truncation disabled
        {"top_k": 2, "top_p": 0.5},
    ]

    def rows(self):
        rng = np.random.default_rng(42)
        raw = rng.uniform(0.01, 1.0, size=(8, 5))
        return raw / raw.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"k={c['top_k']}-p={c['top_p']}")
    def test_truncate_keeps_the_most_likely_support(self, case):
        top_k, top_p = case["top_k"], case["top_p"]
        for probs in self.rows():
            truncated = Decoder._truncate(probs, top_k, top_p)
            assert truncated.sum() == pytest.approx(1.0, abs=ATOL)
            kept = np.flatnonzero(truncated)
            order = np.argsort(probs)[::-1]
            # The support is a prefix of the descending order, renormalised.
            assert set(kept) == set(order[: len(kept)])
            assert np.allclose(truncated[kept], probs[kept] / probs[kept].sum(), atol=ATOL)
            if top_k is not None:
                assert len(kept) <= top_k
            if top_k is None and top_p is not None and top_p < 1.0:
                # The smallest prefix whose mass reaches the nucleus.
                assert probs[kept].sum() >= top_p - ATOL
                assert probs[kept].sum() - probs[kept].min() < top_p
            if (top_k is None or top_k >= len(probs)) and (top_p is None or top_p >= 1.0):
                assert len(kept) == len(probs)

    def test_vanished_mass_falls_back_to_input(self):
        # No surviving mass returns the input distribution verbatim,
        # unrenormalised, instead of dividing by zero.
        probs = np.zeros(4)
        truncated = Decoder._truncate(probs, 2, None)
        assert truncated is probs


class TestDiverseCandidatePadding:
    def test_collapsed_distribution_pads_with_marked_duplicates(self):
        distributions = {
            slot: np.eye(len(values))[0] for slot, values in DECISION_SLOTS.items()
        }
        results = Decoder(rng=SeededRNG(17)).diverse_candidates(distributions, count=4, automaton=FREE)
        assert len(results) == 4
        assert results[0].strategy == "greedy"
        # Only one assignment exists; the padding must be flagged, not silent.
        assert all(result.strategy.endswith("-duplicate") for result in results[1:])
        assert all(result.decisions == results[0].decisions for result in results[1:])

    def test_unconstrained_distribution_still_unique(self, policy, features_matrix):
        distributions = {
            slot: probs[0] for slot, probs in policy.forward_batch(features_matrix).probabilities.items()
        }
        results = Decoder(rng=SeededRNG(19)).diverse_candidates(distributions, count=4, automaton=FREE)
        assert not any(result.strategy.endswith("-duplicate") for result in results[:2])


class TestEncoderCache:
    def test_cache_hit_returns_identical_vector(self, prompts):
        encoder = FeatureEncoder(ModelConfig())
        first = encoder.encode(prompts[0])
        second = encoder.encode(prompts[0])
        assert second is first
        assert encoder.cache_info()["hits"] == 1
        assert not second.flags.writeable

    def test_cache_disabled_still_encodes(self, prompts):
        encoder = FeatureEncoder(ModelConfig(encoder_cache_size=0))
        first = encoder.encode(prompts[0])
        second = encoder.encode(prompts[0])
        assert first is not second
        assert np.allclose(first, second, atol=ATOL)
        assert encoder.cache_info()["size"] == 0

    def test_cached_and_uncached_vectors_agree(self, prompts):
        cached = FeatureEncoder(ModelConfig())
        uncached = FeatureEncoder(ModelConfig(encoder_cache_size=0))
        for prompt in prompts:
            assert np.allclose(cached.encode(prompt), uncached.encode(prompt), atol=ATOL)

    def test_cache_eviction_respects_bound(self, prompts):
        encoder = FeatureEncoder(ModelConfig(encoder_cache_size=2))
        for prompt in prompts:
            encoder.encode(prompt)
        assert encoder.cache_info()["size"] <= 2

    def test_encode_batch_stacks_rows(self, prompts):
        encoder = FeatureEncoder(ModelConfig())
        matrix = encoder.encode_batch(prompts)
        assert matrix.shape == (len(prompts), encoder.dimension)
        for row, prompt in enumerate(prompts):
            assert np.allclose(matrix[row], encoder.encode(prompt), atol=ATOL)


class TestRenderCacheAndBatchedGeneration:
    def test_render_cache_hit_on_repeat(self, prompts):
        generator = FaultGenerator(ModelConfig())
        first = generator.generate_batch([prompts[0]], greedy=True)[0]
        before = generator.grammar.cache_info()["hits"]
        second = generator.generate_batch([prompts[0]], greedy=True)[0]
        assert generator.grammar.cache_info()["hits"] > before
        assert second.fault.code == first.fault.code

    def test_generate_batch_greedy_matches_per_sample(self, prompts):
        batched_generator = FaultGenerator(ModelConfig())
        serial_generator = FaultGenerator(ModelConfig())
        batched = batched_generator.generate_batch(prompts, greedy=True)
        serial = [per_sample.generate(serial_generator, prompt, greedy=True) for prompt in prompts]
        for left, right in zip(batched, serial):
            assert left.fault.fault_id == right.fault.fault_id
            assert left.decisions == right.decisions
            assert left.logprob == pytest.approx(right.logprob, abs=ATOL)
            assert left.fault.code == right.fault.code

    def test_generate_batch_sampled_matches_per_prompt_loop(self, prompts):
        # Sampled batches draw prompt by prompt from the shared decoder, so a
        # batch equals a loop of one-prompt generations on a same-seeded
        # generator, RNG stream included.
        batched_generator = FaultGenerator(ModelConfig(), rng=SeededRNG(5, namespace="generator"))
        serial_generator = FaultGenerator(ModelConfig(), rng=SeededRNG(5, namespace="generator"))
        batched = batched_generator.generate_batch(prompts, greedy=False)
        serial = [per_sample.generate(serial_generator, prompt, greedy=False) for prompt in prompts]
        assert len(batched) == len(serial) == len(prompts)
        for left, right in zip(batched, serial):
            assert left.fault.fault_id == right.fault.fault_id
            assert left.decisions == right.decisions
            assert left.logprob == pytest.approx(right.logprob, abs=ATOL)
            assert left.fault.code == right.fault.code
        assert (
            batched_generator.decoder._rng.generator.bit_generator.state
            == serial_generator.decoder._rng.generator.bit_generator.state
        )

    def test_generate_batch_sampled_is_invariant_to_batching(self, prompts):
        whole = FaultGenerator(ModelConfig(), rng=SeededRNG(9, namespace="generator"))
        split = FaultGenerator(ModelConfig(), rng=SeededRNG(9, namespace="generator"))
        batched = whole.generate_batch(prompts, greedy=False)
        one_by_one = [split.generate_batch([prompt], greedy=False)[0] for prompt in prompts]
        assert [c.fault.fault_id for c in batched] == [c.fault.fault_id for c in one_by_one]
        assert [c.logprob for c in batched] == [c.logprob for c in one_by_one]

    def test_generate_batch_decodes_through_decode_prompt(self, prompts, monkeypatch):
        generator = FaultGenerator(ModelConfig())
        decoded = []
        original = generator.decode_prompt

        def spy(prompt, distributions, *args, **kwargs):
            decoded.append(prompt)
            return original(prompt, distributions, *args, **kwargs)

        monkeypatch.setattr(generator, "decode_prompt", spy)
        generator.generate_batch(prompts, greedy=True)
        generator.generate_batch(prompts, greedy=False)
        assert decoded == list(prompts) * 2

    def test_candidates_batch_matches_per_prompt_loop(self, prompts):
        batched_generator = FaultGenerator(ModelConfig())
        serial_generator = FaultGenerator(ModelConfig())
        batched = batched_generator.candidates_batch(prompts, count=3)
        serial = [per_sample.candidates(serial_generator, prompt, count=3) for prompt in prompts]
        assert len(batched) == len(serial)
        for batched_round, serial_round in zip(batched, serial):
            assert [c.fault.fault_id for c in batched_round] == [
                c.fault.fault_id for c in serial_round
            ]
            assert [c.decisions for c in batched_round] == [c.decisions for c in serial_round]

    def test_generate_batch_empty(self):
        generator = FaultGenerator(ModelConfig())
        assert generator.generate_batch([]) == []


def reference_sft_train(generator, config, examples):
    """Verbatim copy of the pre-vectorization per-sample SFT epoch loop."""
    policy = generator.policy
    encoder = generator.encoder
    rng = SeededRNG(config.seed, namespace="sft")
    encoded = [(encoder.encode(example.prompt), example.target) for example in examples]
    epoch_losses = []
    for _epoch in range(config.epochs):
        ordering = rng.shuffle(list(range(len(encoded)))) if config.shuffle else list(
            range(len(encoded))
        )
        epoch_loss = 0.0
        batch = policy.zero_gradients()
        for position, index in enumerate(ordering):
            features, target = encoded[index]
            forward = per_sample.forward(policy, features)
            epoch_loss += -forward.log_probability(target)
            per_sample.add_gradients(batch, per_sample.backward(policy, forward, target))
            if batch.examples >= config.batch_size or position == len(ordering) - 1:
                policy.apply_gradients(batch, learning_rate=config.learning_rate)
                batch = policy.zero_gradients()
        epoch_losses.append(epoch_loss / len(encoded))
    return epoch_losses


def assert_states_close(left, right):
    assert set(left) == set(right)
    for key in left:
        assert np.allclose(left[key], right[key], atol=ATOL), key


class TestSFTBatchedEquivalence:
    def test_train_matches_per_sample_reference(self, prompts, decisions):
        examples = [
            SFTExample(prompt=prompt, target=target) for prompt, target in zip(prompts, decisions)
        ]
        config = SFTConfig(epochs=3, batch_size=4)
        batched_generator = FaultGenerator(ModelConfig())
        report = SFTTrainer(batched_generator, config).train(examples)

        reference_generator = FaultGenerator(ModelConfig())
        reference_losses = reference_sft_train(reference_generator, config, examples)

        assert report.epoch_losses == pytest.approx(reference_losses, abs=ATOL)
        assert_states_close(
            batched_generator.policy.state_dict(), reference_generator.policy.state_dict()
        )

    def test_evaluate_matches_per_sample_metrics(self, prompts, decisions):
        examples = [
            SFTExample(prompt=prompt, target=target) for prompt, target in zip(prompts, decisions)
        ]
        generator = FaultGenerator(ModelConfig())
        trainer = SFTTrainer(generator, SFTConfig(epochs=1))
        metrics = trainer.evaluate(examples)

        policy = generator.policy
        encoder = generator.encoder
        decoder = generator.decoder
        total_nll = 0.0
        exact = 0
        slot_hits = 0
        slot_total = 0
        for example in examples:
            forward = per_sample.forward(policy, encoder.encode(example.prompt))
            total_nll += -forward.log_probability(example.target)
            decoded = decoder.greedy(forward.probabilities, FREE).decisions
            target_map = example.target.to_dict()
            decoded_map = decoded.to_dict()
            if decoded_map == target_map:
                exact += 1
            for slot, value in target_map.items():
                slot_total += 1
                if decoded_map[slot] == value:
                    slot_hits += 1
        assert metrics["nll"] == pytest.approx(total_nll / len(examples), abs=ATOL)
        assert metrics["exact_match"] == pytest.approx(exact / len(examples), abs=ATOL)
        assert metrics["slot_accuracy"] == pytest.approx(slot_hits / slot_total, abs=ATOL)


def reference_policy_update(policy, reference, encoder, config, baseline_state, samples):
    """Verbatim copy of the pre-vectorization per-sample REINFORCE update."""
    beta = config.kl_beta
    baseline, initialised = baseline_state
    shaped_rewards = []
    kls = []
    encoded = []
    for sample in samples:
        features = encoder.encode(sample.prompt)
        logprob = per_sample.log_probability(policy, features, sample.decisions)
        ref_logprob = per_sample.log_probability(reference, features, sample.decisions)
        kl_term = logprob - ref_logprob
        shaped = sample.reward - beta * kl_term
        shaped_rewards.append(shaped)
        kls.append(kl_term)
        encoded.append((features, sample.decisions, shaped))
    batch_mean = sum(shaped_rewards) / len(shaped_rewards)
    if not initialised:
        baseline = batch_mean
    momentum = config.baseline_momentum
    baseline = momentum * baseline + (1.0 - momentum) * batch_mean
    gradients = policy.zero_gradients()
    for features, decisions, shaped in encoded:
        advantage = shaped - baseline
        forward = per_sample.forward(policy, features)
        per_sample.add_gradients(
            gradients, per_sample.backward(policy, forward, decisions, scale=advantage)
        )
    policy.apply_gradients(gradients, learning_rate=config.policy_learning_rate)
    return baseline


class TestPolicyOptimizerBatchedEquivalence:
    def test_update_matches_per_sample_reference(self, prompts, decisions):
        config = RLHFConfig()
        rewards = np.linspace(-0.5, 1.5, len(prompts))
        samples = [
            RewardedSample(prompt=prompt, decisions=decision, reward=float(reward))
            for prompt, decision, reward in zip(prompts, decisions, rewards)
        ]

        batched_generator = FaultGenerator(ModelConfig())
        optimizer = PolicyOptimizer(
            policy=batched_generator.policy, encoder=batched_generator.encoder, config=config
        )
        stats = optimizer.update(samples)

        reference_generator = FaultGenerator(ModelConfig())
        frozen = reference_generator.policy.clone()
        baseline = reference_policy_update(
            reference_generator.policy,
            frozen,
            reference_generator.encoder,
            config,
            (0.0, False),
            samples,
        )

        assert stats.samples == len(samples)
        assert optimizer.baseline == pytest.approx(baseline, abs=ATOL)
        assert_states_close(
            batched_generator.policy.state_dict(), reference_generator.policy.state_dict()
        )

    def test_sequential_updates_track_reference_baseline(self, prompts, decisions):
        config = RLHFConfig()
        samples = [
            RewardedSample(prompt=prompt, decisions=decision, reward=0.5 * index)
            for index, (prompt, decision) in enumerate(zip(prompts, decisions))
        ]
        generator = FaultGenerator(ModelConfig())
        optimizer = PolicyOptimizer(
            policy=generator.policy, encoder=generator.encoder, config=config
        )
        reference_generator = FaultGenerator(ModelConfig())
        frozen = reference_generator.policy.clone()
        baseline_state = (0.0, False)
        for _round in range(3):
            optimizer.update(samples)
            baseline = reference_policy_update(
                reference_generator.policy,
                frozen,
                reference_generator.encoder,
                config,
                baseline_state,
                samples,
            )
            baseline_state = (baseline, True)
            assert optimizer.baseline == pytest.approx(baseline, abs=ATOL)
        assert_states_close(
            generator.policy.state_dict(), reference_generator.policy.state_dict()
        )


def reference_reward_fit(weights, config, dataset, l2=1e-3):
    """Verbatim copy of the pre-vectorization per-pair Bradley-Terry loop."""
    weights = weights.copy()
    losses = []
    for _epoch in range(config.reward_epochs):
        gradient = np.zeros_like(weights)
        loss = 0.0
        for pair in dataset:
            difference = pair.chosen_features - pair.rejected_features
            probability = 1.0 / (1.0 + np.exp(-(weights @ difference)))
            loss += -np.log(probability + 1e-12) * pair.margin
            gradient += (probability - 1.0) * difference * pair.margin
        gradient = gradient / len(dataset) + l2 * weights
        weights -= config.reward_learning_rate * gradient
        losses.append(float(loss / len(dataset)))
    return weights, losses


class TestRewardModelBatchedEquivalence:
    def make_dataset(self, dimension=12, pairs=20):
        rng = np.random.default_rng(7)
        dataset = PreferenceDataset()
        for index in range(pairs):
            dataset.add_comparison(
                rng.normal(size=dimension),
                rng.normal(size=dimension),
                chosen_id=f"a{index}",
                rejected_id=f"b{index}",
                margin=float(rng.uniform(0.1, 2.0)),
            )
        return dataset

    def test_fit_matches_per_pair_reference(self):
        dataset = self.make_dataset()
        config = RLHFConfig()
        model = RewardModel(12, config)
        report = model.fit(dataset)
        weights, losses = reference_reward_fit(np.zeros(12), config, dataset)
        assert np.allclose(model.weights, weights, atol=ATOL)
        assert report.losses == pytest.approx(losses, abs=ATOL)

    def test_score_batch_matches_per_sample(self):
        dataset = self.make_dataset()
        model = RewardModel(12, RLHFConfig())
        model.fit(dataset)
        matrix = np.stack([pair.chosen_features for pair in dataset])
        batched = model.score_batch(matrix)
        for row, pair in enumerate(dataset):
            assert batched[row] == pytest.approx(model.score(pair.chosen_features), abs=ATOL)

    def test_pairwise_accuracy_matches_per_pair(self):
        dataset = self.make_dataset()
        model = RewardModel(12, RLHFConfig())
        model.fit(dataset)
        per_pair = sum(
            1
            for pair in dataset
            if model.score(pair.chosen_features) > model.score(pair.rejected_features)
        ) / len(dataset)
        assert model.pairwise_accuracy(dataset) == pytest.approx(per_pair, abs=ATOL)


def supervised_step(policy, features, target):
    """One batched SGD step towards ``target`` on a one-row batch."""
    forward = policy.forward_batch(features[None, :])
    policy.apply_gradients(policy.backward_batch(forward, [target]))


class TestCheckpointVersionRoundtrip:
    def test_state_dict_roundtrip_preserves_version(self, prompts, decisions, encoder):
        policy = PolicyNetwork(ModelConfig())
        features = encoder.encode(prompts[0])
        for _ in range(3):
            supervised_step(policy, features, decisions[0])
        assert policy.version == 3
        other = PolicyNetwork(ModelConfig())
        other.load_state(policy.state_dict())
        assert other.version == 3

    def test_checkpoint_roundtrip_preserves_version(self, tmp_path, prompts, decisions, encoder):
        policy = PolicyNetwork(ModelConfig())
        features = encoder.encode(prompts[0])
        for _ in range(5):
            supervised_step(policy, features, decisions[0])
        save_checkpoint(policy, tmp_path, name="versioned")
        restored = load_checkpoint(tmp_path, name="versioned")
        assert restored.version == policy.version == 5

    def test_clone_preserves_version(self, prompts, decisions, encoder):
        policy = PolicyNetwork(ModelConfig())
        features = encoder.encode(prompts[0])
        supervised_step(policy, features, decisions[0])
        assert policy.clone().version == policy.version == 1

    def test_legacy_state_without_version_leaves_version_alone(self):
        policy = PolicyNetwork(ModelConfig())
        state = policy.state_dict()
        state.pop("version")
        other = PolicyNetwork(ModelConfig())
        other.version = 7
        other.load_state(state)
        assert other.version == 7


class TestStreamingDatasetGeneration:
    def test_jsonl_stream_is_byte_identical_to_in_memory(self, tmp_path):
        from repro.config import DatasetConfig
        from repro.dataset import DatasetGenerator, load_jsonl, save_jsonl
        from repro.targets import get_target

        config = DatasetConfig(samples_per_target=6)
        targets = [get_target("bank"), get_target("kvstore")]

        in_memory = DatasetGenerator(config).generate(targets)
        memory_path = tmp_path / "memory.jsonl"
        save_jsonl(in_memory, memory_path)

        stream_path = tmp_path / "stream.jsonl"
        streaming_generator = DatasetGenerator(config)
        written = streaming_generator.generate_to_jsonl(stream_path, targets)

        assert written == stream_path
        assert stream_path.read_bytes() == memory_path.read_bytes()
        assert streaming_generator.stats.applied == len(in_memory)
        reloaded = load_jsonl(stream_path)
        assert [record.to_dict() for record in reloaded] == [
            record.to_dict() for record in in_memory
        ]

    def test_writer_close_is_idempotent_and_write_after_close_fails(self, tmp_path):
        from repro.dataset import JsonlRecordWriter
        from repro.errors import DatasetError

        writer = JsonlRecordWriter(tmp_path / "records.jsonl")
        writer.close()
        writer.close()
        with pytest.raises(DatasetError):
            writer.write(None)

    def test_writer_flushes_each_record(self, tmp_path):
        from repro.config import DatasetConfig
        from repro.dataset import DatasetGenerator, JsonlRecordWriter
        from repro.targets import get_target

        dataset = DatasetGenerator(DatasetConfig(samples_per_target=2)).generate(
            [get_target("bank")]
        )
        path = tmp_path / "records.jsonl"
        writer = JsonlRecordWriter(path)
        writer.write(dataset.records[0])
        # Durable before close: a reader tailing the file mid-sweep sees the line.
        assert path.read_text().count("\n") == 1
        writer.close()


class TestPipelineBatchedEntryPoints:
    def test_inject_many_matches_per_text_inject(self, sample_module):
        from repro.core.pipeline import NeuralFaultInjector

        texts = [
            "Raise a timeout in the charge function",
            "Introduce a delay into the compute_total function",
        ]
        batched = NeuralFaultInjector().inject_many(texts, code=sample_module)
        serial_pipeline = NeuralFaultInjector()
        serial = [serial_pipeline.inject(text, code=sample_module) for text in texts]
        assert [fault.fault_id for fault in batched] == [fault.fault_id for fault in serial]
        assert [fault.code for fault in batched] == [fault.code for fault in serial]

    def test_generate_faults_matches_generate_fault_loop(self, sample_module):
        from repro.core.pipeline import NeuralFaultInjector

        pipeline = NeuralFaultInjector()
        prompts = []
        for text in ["Swallow the error raised by charge", "Corrupt the total returned by compute_total"]:
            spec, context = pipeline.define_fault(text, code=sample_module)
            prompts.append(pipeline.build_prompt(spec, context))
        batched = pipeline.generate_faults(prompts, greedy=True)
        serial = [pipeline.generate_fault(prompt, greedy=True) for prompt in prompts]
        assert [c.fault.fault_id for c in batched] == [c.fault.fault_id for c in serial]
        assert [c.decisions for c in batched] == [c.decisions for c in serial]
