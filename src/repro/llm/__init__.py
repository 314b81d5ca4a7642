"""The generation model substrate: an offline, trainable stand-in for the LLM.

Components:

* :class:`FeatureEncoder` — prompt → fixed-size feature vector;
* :class:`PolicyNetwork` — multi-head softmax policy over the decision schema;
* :class:`Decoder` — greedy / temperature / top-k / nucleus decoding;
* :class:`CodeGrammar` — decisions → syntactically valid faulty Python;
* :class:`GrammarCompiler` / :class:`DecisionAutomaton` — compiled decoding
  constraints with jump-forward over force-determined decision slots;
* :class:`FaultGenerator` — the LLM-like facade used by the pipeline;
* :class:`SFTTrainer` — supervised fine-tuning on SFI-generated datasets;
* :func:`save_checkpoint` / :func:`load_checkpoint` — model persistence.
"""

from .checkpoints import load_checkpoint, save_checkpoint
from .compiled_grammar import (
    DecisionAutomaton,
    DecodePlan,
    GrammarCompiler,
    constraint_slots,
)
from .decisions import (
    DECISION_SLOTS,
    DecisionVector,
    decision_distance,
    reference_decisions,
    slot_sizes,
)
from .decoder import Decoder, DecodingResult
from .features import FeatureEncoder
from .generator import FaultGenerator, GenerationCandidate
from .grammar import CodeGrammar, RenderedFault
from .network import BatchForwardResult, Gradients, PolicyNetwork
from .sft import SFTExample, SFTReport, SFTTrainer

__all__ = [
    "DECISION_SLOTS",
    "BatchForwardResult",
    "CodeGrammar",
    "DecisionAutomaton",
    "DecisionVector",
    "DecodePlan",
    "Decoder",
    "DecodingResult",
    "FaultGenerator",
    "FeatureEncoder",
    "GenerationCandidate",
    "Gradients",
    "GrammarCompiler",
    "PolicyNetwork",
    "RenderedFault",
    "SFTExample",
    "SFTReport",
    "SFTTrainer",
    "constraint_slots",
    "decision_distance",
    "load_checkpoint",
    "reference_decisions",
    "save_checkpoint",
    "slot_sizes",
]
