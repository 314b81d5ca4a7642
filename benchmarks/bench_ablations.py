"""T-ABL — ablations of the design choices called out in DESIGN.md.

Compares generation quality (alignment with the reference decisions for a
held-out set of scenarios) across four configurations:

* full system (SFT + spec-constrained decoding + code context);
* no supervised fine-tuning;
* no spec-constrained decoding;
* no code context (single-input instead of the paper's dual-input strategy).
"""

from __future__ import annotations

from repro.config import ModelConfig, SFTConfig
from repro.eval import decision_accuracy, mean, syntactic_validity
from repro.llm import FaultGenerator, SFTTrainer, reference_decisions
from repro.nlp import CodeAnalyzer, FaultSpecExtractor, PromptBuilder
from repro.targets import get_target

from conftest import write_result

SCENARIOS = [
    "Simulate a timeout in process_transaction causing an unhandled exception",
    "Introduce a race condition in reserve_inventory under concurrent checkouts",
    "Make validate_cart silently swallow errors",
    "Silently corrupt the total computed by compute_total",
    "Introduce a memory leak in charge_payment",
    "Make send_confirmation fail with a network failure",
    "Introduce an off-by-one error in the loop of compute_total",
    "Add a delay of 100 milliseconds to charge_payment",
]


def build_prompt(text, source, use_code):
    extractor = FaultSpecExtractor()
    analyzer = CodeAnalyzer()
    builder = PromptBuilder()
    spec = extractor.extract_from_text(text, source if use_code else None)
    context = None
    if use_code:
        context = analyzer.analyze(source)
        analyzer.select_function(context, text, hint=spec.target.function)
    return builder.build(spec, context), spec


def evaluate_variant(name, train_examples, constrain, use_code, sft_epochs):
    generator = FaultGenerator(ModelConfig(constrain_to_spec=constrain))
    if sft_epochs:
        SFTTrainer(generator, SFTConfig(epochs=sft_epochs)).train(train_examples)
    source = get_target("ecommerce").build_source()
    accuracies = []
    validity = []
    for text in SCENARIOS:
        prompt, spec = build_prompt(text, source, use_code)
        candidate = generator.generate_batch([prompt])[0]
        accuracies.append(
            decision_accuracy(candidate.decisions.to_dict(), reference_decisions(spec).to_dict())
        )
        validity.append(1.0 if syntactic_validity(candidate.fault.code) else 0.0)
    return {"variant": name, "decision_accuracy": mean(accuracies), "validity": mean(validity)}


def run_ablations(pipeline):
    train_examples = pipeline.dataset_generator.to_sft_examples(pipeline.dataset)
    epochs = pipeline.config.sft.epochs
    return [
        evaluate_variant("full (SFT + spec constraint + code)", train_examples, True, True, epochs),
        evaluate_variant("no SFT", train_examples, True, True, 0),
        evaluate_variant("no spec constraint", train_examples, False, True, epochs),
        evaluate_variant("no code context", train_examples, True, False, epochs),
        evaluate_variant("untrained, unconstrained", train_examples, False, True, 0),
    ]


def test_design_choice_ablations(benchmark, prepared_pipeline):
    results = benchmark.pedantic(run_ablations, args=(prepared_pipeline,), rounds=1, iterations=1)

    rows = [
        f"{entry['variant']:36s} decision_accuracy={entry['decision_accuracy']:.3f} "
        f"validity={entry['validity']:.2f}"
        for entry in results
    ]
    write_result("ablations", {"results": results}, "\n".join(rows))

    by_name = {entry["variant"]: entry for entry in results}
    full = by_name["full (SFT + spec constraint + code)"]
    # Expected shape: every ablation removes some accuracy relative to the full
    # system, and grammar-constrained rendering keeps outputs syntactically
    # valid in every configuration.
    assert full["decision_accuracy"] >= by_name["no SFT"]["decision_accuracy"] - 1e-9
    assert full["decision_accuracy"] >= by_name["no spec constraint"]["decision_accuracy"] - 1e-9
    assert full["decision_accuracy"] >= by_name["no code context"]["decision_accuracy"] - 1e-9
    assert full["decision_accuracy"] > by_name["untrained, unconstrained"]["decision_accuracy"]
    assert all(entry["validity"] == 1.0 for entry in results)
