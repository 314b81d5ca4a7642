"""BENCH_POLICY_INFERENCE — the vectorized model engine vs the per-sample path.

Extends the BENCH_* trajectory from the execution half (``bench_throughput``,
``bench_dataset_gen``) to the model half: the policy network, decoder, SFT
trainer, and RLHF optimizers now run batched — matrix forward/backward passes,
row-wise decoding, prompt-hash encoder caching, and render memoization.

Three workloads are timed against the seed-style per-sample path (re-created
here as verbatim reference loops over the per-sample oracle in
``tests/oracles/per_sample.py``, with the caches disabled — exactly what the
code did before vectorization):

* ``sft_epoch`` — supervised fine-tuning over the example set;
* ``rlhf_round`` — one reward-model fit plus one policy-gradient update;
* ``generation`` — repeated multi-prompt greedy generation (the alignment
  probe every RLHF iteration performs): ``generate_batch`` against a loop of
  one-prompt oracle generations.

Each batched workload must beat its per-sample reference by >= 3x AND match
it numerically to 1e-9 (losses, parameters, fault ids) — speed must not buy
drift.  ``BENCH_QUICK=1`` shrinks the workload sizes for CI smoke runs.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import ModelConfig, RLHFConfig, SFTConfig
from repro.llm import FaultGenerator, SFTExample, SFTTrainer, reference_decisions
from repro.nlp import CodeAnalyzer, FaultSpecExtractor, PromptBuilder
from repro.rlhf.policy_opt import PolicyOptimizer, RewardedSample
from repro.rlhf.preference import PreferenceDataset
from repro.rlhf.reward_model import CandidateFeaturizer, RewardModel
from repro.rng import SeededRNG
from repro.targets import get_target

from conftest import write_result

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import per_sample  # noqa: E402

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

SCENARIOS = [
    "Simulate a timeout in the transfer function causing an unhandled exception",
    "Introduce a race condition in apply_interest under concurrent updates",
    "Make the withdraw function silently swallow errors instead of raising them",
    "Remove the overdraft validation check from withdraw",
    "Silently corrupt the amount returned by the transfer function",
    "Cause deposit to lose updates under load",
    "Make transfer return a wrong value without raising",
    "Inject a delay into apply_interest that slows every statement run",
    "Raise an unexpected exception in deposit when the amount is small",
    "Corrupt the balance bookkeeping inside withdraw",
    "Make apply_interest skip accounts intermittently",
    "Introduce an off-by-one error in the interest calculation",
    "Swallow the gateway error raised during transfer",
    "Return early from withdraw before the ledger is updated",
    "Invert the overdraft condition in withdraw",
    "Make deposit double-count the amount occasionally",
    "Make transfer debit the source account twice for the same movement",
    "Leak the audit log handle opened by apply_interest",
    "Make the statement function report stale balances",
    "Raise a timeout while the ledger lock is held in transfer",
]

PROMPT_COUNT = 10 if QUICK else 20
SFT_REPEATS = 4 if QUICK else 8
SFT_EPOCHS = 2 if QUICK else 4
GENERATION_ROUNDS = 8
CANDIDATES_PER_PROMPT = 4
MIN_SPEEDUP = 3.0
ATOL = 1e-9

#: The seed per-sample path: caches disabled, per-example loops.
UNCACHED = dict(encoder_cache_size=0, render_cache_size=0)


def build_prompts():
    source = get_target("bank").build_source()
    extractor = FaultSpecExtractor()
    analyzer = CodeAnalyzer()
    builder = PromptBuilder()
    prompts = []
    for text in SCENARIOS[:PROMPT_COUNT]:
        spec = extractor.extract_from_text(text, source)
        context = analyzer.analyze(source)
        analyzer.select_function(context, text, hint=spec.target.function)
        prompts.append(builder.build(spec, context))
    return prompts


def max_state_delta(left, right):
    return max(float(np.max(np.abs(left[key] - right[key]))) for key in left)


# -- per-sample reference implementations (the pre-vectorization loops) --------


def per_sample_sft_train(generator, config, examples):
    policy = generator.policy
    encoder = generator.encoder
    rng = SeededRNG(config.seed, namespace="sft")
    encoded = [(encoder.encode(example.prompt), example.target) for example in examples]
    epoch_losses = []
    for _epoch in range(config.epochs):
        ordering = rng.shuffle(list(range(len(encoded))))
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


def per_sample_reward_fit(model, config, dataset, l2=1e-3):
    losses = []
    for _epoch in range(config.reward_epochs):
        gradient = np.zeros_like(model.weights)
        loss = 0.0
        for pair in dataset:
            difference = pair.chosen_features - pair.rejected_features
            probability = 1.0 / (1.0 + np.exp(-(model.weights @ difference)))
            loss += -np.log(probability + 1e-12) * pair.margin
            gradient += (probability - 1.0) * difference * pair.margin
        gradient = gradient / len(dataset) + l2 * model.weights
        model.weights -= config.reward_learning_rate * gradient
        losses.append(float(loss / len(dataset)))
    return losses


def per_sample_policy_update(policy, reference, encoder, config, samples):
    beta = config.kl_beta
    shaped_rewards = []
    encoded = []
    for sample in samples:
        features = encoder.encode(sample.prompt)
        logprob = per_sample.log_probability(policy, features, sample.decisions)
        ref_logprob = per_sample.log_probability(reference, features, sample.decisions)
        shaped = sample.reward - beta * (logprob - ref_logprob)
        shaped_rewards.append(shaped)
        encoded.append((features, sample.decisions, shaped))
    batch_mean = sum(shaped_rewards) / len(shaped_rewards)
    baseline = batch_mean  # first update: baseline initialises to the batch mean
    momentum = config.baseline_momentum
    baseline = momentum * baseline + (1.0 - momentum) * batch_mean
    gradients = policy.zero_gradients()
    for features, decisions, shaped in encoded:
        forward = per_sample.forward(policy, features)
        per_sample.add_gradients(
            gradients, per_sample.backward(policy, forward, decisions, scale=shaped - baseline)
        )
    policy.apply_gradients(gradients, learning_rate=config.policy_learning_rate)


# -- workloads -----------------------------------------------------------------


def measure_sft(prompts):
    examples = [
        SFTExample(prompt=prompts[index % len(prompts)], target=reference_decisions(prompts[index % len(prompts)].spec))
        for index in range(len(prompts) * SFT_REPEATS)
    ]
    config = SFTConfig(epochs=SFT_EPOCHS, batch_size=16)

    serial_generator = FaultGenerator(ModelConfig(**UNCACHED))
    started = time.perf_counter()
    serial_losses = per_sample_sft_train(serial_generator, config, examples)
    serial_seconds = time.perf_counter() - started

    batched_generator = FaultGenerator(ModelConfig())
    started = time.perf_counter()
    report = SFTTrainer(batched_generator, config).train(examples)
    batched_seconds = time.perf_counter() - started

    loss_delta = max(abs(a - b) for a, b in zip(report.epoch_losses, serial_losses))
    param_delta = max_state_delta(
        batched_generator.policy.state_dict(), serial_generator.policy.state_dict()
    )
    assert loss_delta <= ATOL, f"SFT losses drifted by {loss_delta}"
    assert param_delta <= ATOL, f"SFT parameters drifted by {param_delta}"
    return {
        "examples": len(examples),
        "epochs": SFT_EPOCHS,
        "per_sample_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(serial_seconds / batched_seconds, 2),
        "max_abs_loss_delta": loss_delta,
        "max_abs_param_delta": param_delta,
    }


def measure_rlhf_round(prompts):
    # Candidate rounds, ratings, and features are fixed inputs to the round;
    # build them once outside the timed region with a dedicated generator.
    staging = FaultGenerator(ModelConfig())
    featurizer = CandidateFeaturizer(staging.encoder)
    preferences = PreferenceDataset()
    samples = []
    rating_rng = SeededRNG(99, namespace="bench-ratings")
    for prompt, candidates in zip(
        prompts, staging.candidates_batch(prompts, count=CANDIDATES_PER_PROMPT)
    ):
        featurized = [
            (candidate.fault.fault_id, featurizer.featurize(prompt, candidate))
            for candidate in candidates
        ]
        ratings = sorted((rating_rng.uniform(1.0, 5.0) for _ in candidates), reverse=True)
        preferences.add_ranking(featurized, margins=ratings)
        samples.extend(
            RewardedSample(prompt=prompt, decisions=candidate.decisions, reward=rating)
            for candidate, rating in zip(candidates, ratings)
        )
    config = RLHFConfig()
    dimension = featurizer.dimension

    serial_generator = FaultGenerator(ModelConfig(**UNCACHED))
    serial_reference = serial_generator.policy.clone()
    serial_reward = RewardModel(dimension, config)
    started = time.perf_counter()
    serial_losses = per_sample_reward_fit(serial_reward, config, preferences)
    per_sample_policy_update(
        serial_generator.policy, serial_reference, serial_generator.encoder, config, samples
    )
    serial_seconds = time.perf_counter() - started

    batched_generator = FaultGenerator(ModelConfig())
    batched_reward = RewardModel(dimension, config)
    optimizer = PolicyOptimizer(
        policy=batched_generator.policy, encoder=batched_generator.encoder, config=config
    )
    started = time.perf_counter()
    report = batched_reward.fit(preferences)
    optimizer.update(samples)
    batched_seconds = time.perf_counter() - started

    loss_delta = max(abs(a - b) for a, b in zip(report.losses, serial_losses))
    reward_delta = float(np.max(np.abs(batched_reward.weights - serial_reward.weights)))
    param_delta = max_state_delta(
        batched_generator.policy.state_dict(), serial_generator.policy.state_dict()
    )
    assert loss_delta <= ATOL, f"reward losses drifted by {loss_delta}"
    assert reward_delta <= ATOL, f"reward weights drifted by {reward_delta}"
    assert param_delta <= ATOL, f"policy parameters drifted by {param_delta}"
    return {
        "samples": len(samples),
        "preference_pairs": len(preferences),
        "per_sample_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(serial_seconds / batched_seconds, 2),
        "max_abs_loss_delta": loss_delta,
        "max_abs_param_delta": max(param_delta, reward_delta),
    }


def measure_generation(prompts):
    serial_generator = FaultGenerator(ModelConfig(**UNCACHED))
    started = time.perf_counter()
    serial_rounds = [
        [per_sample.generate(serial_generator, prompt, greedy=True) for prompt in prompts]
        for _round in range(GENERATION_ROUNDS)
    ]
    serial_seconds = time.perf_counter() - started

    batched_generator = FaultGenerator(ModelConfig())
    started = time.perf_counter()
    batched_rounds = [
        batched_generator.generate_batch(prompts, greedy=True)
        for _round in range(GENERATION_ROUNDS)
    ]
    batched_seconds = time.perf_counter() - started

    logprob_delta = 0.0
    for serial_round, batched_round in zip(serial_rounds, batched_rounds):
        for serial_candidate, batched_candidate in zip(serial_round, batched_round):
            assert serial_candidate.fault.fault_id == batched_candidate.fault.fault_id
            assert serial_candidate.decisions == batched_candidate.decisions
            assert serial_candidate.fault.code == batched_candidate.fault.code
            logprob_delta = max(
                logprob_delta, abs(serial_candidate.logprob - batched_candidate.logprob)
            )
    assert logprob_delta <= ATOL, f"generation logprobs drifted by {logprob_delta}"
    cache_info = batched_generator.grammar.cache_info()
    return {
        "prompts": len(prompts),
        "rounds": GENERATION_ROUNDS,
        "generations": len(prompts) * GENERATION_ROUNDS,
        "per_sample_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(serial_seconds / batched_seconds, 2),
        "render_cache_hits": cache_info["hits"],
        "max_abs_logprob_delta": logprob_delta,
    }


def test_policy_inference_throughput():
    prompts = build_prompts()
    workloads = {
        "sft_epoch": measure_sft(prompts),
        "rlhf_round": measure_rlhf_round(prompts),
        "generation": measure_generation(prompts),
    }

    rows = ["workload       per-sample-s   batched-s   speedup"]
    for label, stats in workloads.items():
        rows.append(
            f"{label:<14} {stats['per_sample_seconds']:>12.4f}   {stats['batched_seconds']:>9.4f}"
            f"   {stats['speedup']:>7.2f}"
        )
    payload = {"quick": QUICK, "min_speedup": MIN_SPEEDUP, "workloads": workloads}
    write_result("policy_inference", payload, table="\n".join(rows))

    # The acceptance bar: every batched model workload beats per-sample >= 3x.
    for label, stats in workloads.items():
        assert stats["speedup"] >= MIN_SPEEDUP, (label, payload)
