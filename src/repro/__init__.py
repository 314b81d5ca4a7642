"""Neural Fault Injection: generating software faults from natural language.

A reproduction of Cotroneo & Liguori, *"Neural Fault Injection: Generating
Software Faults from Natural Language"* (DSN 2024).  The library implements the
complete methodology the paper envisions, on top of fully offline substrates:

* :mod:`repro.api` — the typed serving surface: request/response dataclasses,
  the :class:`FaultInjectionEngine` façade, and the continuous-batching
  scheduler (see docs/API.md);
* :mod:`repro.core` — the end-to-end pipeline, refinement sessions, campaigns;
* :mod:`repro.nlp` — the NLP engine (tokenisation, NER, spec extraction, code
  analysis, prompt construction);
* :mod:`repro.llm` — the trainable generation model (policy network, grammar-
  constrained decoding, supervised fine-tuning, checkpoints);
* :mod:`repro.rlhf` — reward model, simulated testers, KL-regularised policy
  optimisation, the iterative refinement loop;
* :mod:`repro.injection` — the programmable AST-level fault-injection substrate;
* :mod:`repro.integration` — automated integration, sandboxed testing, failure
  classification;
* :mod:`repro.dataset` — SFI-generated fine-tuning datasets;
* :mod:`repro.targets` — the applications used as systems under test;
* :mod:`repro.baselines` — conventional fault injection baselines;
* :mod:`repro.eval` — coverage, effectiveness, efficiency, alignment metrics.

Quickstart::

    from repro import FaultInjectionEngine, GenerateRequest

    with FaultInjectionEngine() as engine:
        response = engine.run(
            GenerateRequest(
                description="Simulate a scenario where a database transaction "
                "fails due to a timeout, causing an unhandled exception within "
                "the process_transaction function.",
                code=open("my_module.py").read(),
            )
        )
        print(response.payload.fault.code)

The original blocking façade (:class:`NeuralFaultInjector`) is kept as a thin
adapter over the engine — see docs/API.md for the migration guide.
"""

import importlib

__version__ = "1.0.0"

#: Public name → the submodule that defines it.  Names load on first access
#: (PEP 562), so ``import repro.targets`` — which every subprocess sandbox
#: run pays for — does not import the serving, model and NLP stacks.
_EXPORTS = {
    "CampaignOrchestrator": "core",
    "CampaignRequest": "api",
    "ChaosConfig": "config",
    "ComparisonResult": "core",
    "DatasetConfig": "config",
    "DatasetRequest": "api",
    "EngineConfig": "config",
    "ExecutionConfig": "config",
    "FailureMode": "types",
    "FaultDescription": "types",
    "FaultInjectionEngine": "api",
    "FaultInjectionServer": "server",
    "FaultSpec": "types",
    "FaultType": "types",
    "Feedback": "types",
    "GenerateRequest": "api",
    "GeneratedFault": "types",
    "HandlingStyle": "types",
    "InjectionOutcome": "types",
    "IntegrationConfig": "config",
    "ModelConfig": "config",
    "NeuralFaultInjector": "core",
    "Patch": "types",
    "PipelineConfig": "config",
    "RLHFConfig": "config",
    "RLHFRequest": "api",
    "RefinementSession": "core",
    "ReproError": "errors",
    "ResilienceConfig": "config",
    "Response": "api",
    "SFTConfig": "config",
    "ServerConfig": "config",
    "TriggerKind": "types",
    "WorkflowTrace": "core",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
