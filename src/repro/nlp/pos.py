"""Rule-based part-of-speech tagging for fault descriptions.

A full statistical tagger is unnecessary for the restricted register testers
use; a lexicon plus suffix heuristics reaches the accuracy the downstream
relation extraction needs, stays dependency-free, and is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import lexicon
from .tokenizer import Token, Tokenizer


class PosTag(str, Enum):
    """Coarse part-of-speech categories used by the relation extractor."""

    NOUN = "noun"
    VERB = "verb"
    ADJ = "adj"
    ADV = "adv"
    DET = "det"
    PREP = "prep"
    CONJ = "conj"
    PRON = "pron"
    NUM = "num"
    IDENT = "ident"
    PUNCT = "punct"
    OTHER = "other"


@dataclass(frozen=True)
class TaggedToken:
    """A token together with its part-of-speech tag."""

    token: Token
    tag: PosTag

    @property
    def text(self) -> str:
        return self.token.text

    @property
    def lower(self) -> str:
        return self.token.lower


_DETERMINERS = frozenset({"a", "an", "the", "this", "that", "these", "those", "each", "every", "any", "some", "no"})
_PREPOSITIONS = frozenset(
    {
        "in", "on", "at", "to", "for", "from", "by", "with", "within", "into",
        "during", "after", "before", "under", "over", "between", "of", "via",
        "through", "inside", "across", "against", "without",
    }
)
_CONJUNCTIONS = frozenset({"and", "or", "but", "because", "so", "while", "when", "whenever", "if", "although", "since", "once"})
_PRONOUNS = frozenset({"it", "its", "they", "their", "we", "our", "you", "your", "i", "he", "she", "him", "her"})
_AUX_VERBS = frozenset(
    {
        "is", "are", "was", "were", "be", "been", "being", "has", "have", "had",
        "do", "does", "did", "can", "could", "should", "would", "will", "shall",
        "may", "might", "must",
    }
)
_COMMON_VERBS = frozenset(lexicon.ACTION_WORDS) | frozenset(
    {
        "fails", "failing", "failed", "causes", "causing", "caused", "occurs",
        "occurring", "happens", "becomes", "leads", "results", "throws",
        "raises", "returns", "handles", "handling", "processes", "processing",
        "completes", "commits", "rolls", "loses", "drops", "misses", "times",
        "exceeds", "grows", "spins", "waits", "blocks", "locks", "releases",
        "acquires", "closes", "opens", "reads", "writes", "sends", "receives",
        "logs", "logging", "simulating", "introducing", "injecting",
    }
)
_ADJECTIVES = frozenset(
    {
        "unhandled", "uncaught", "wrong", "incorrect", "invalid", "missing",
        "silent", "transient", "intermittent", "slow", "stale", "corrupted",
        "partial", "concurrent", "critical", "faulty", "broken", "empty",
        "full", "unavailable", "unreachable", "residual", "subtle", "specific",
        "graceful", "sophisticated", "realistic", "new", "next", "last",
        "first", "second", "third",
    }
)
_ADVERBS = frozenset(
    {
        "silently", "randomly", "occasionally", "sometimes", "intermittently",
        "always", "never", "immediately", "eventually", "gracefully",
        "repeatedly", "instead", "just", "only", "also", "directly",
    }
)


class PosTagger:
    """Deterministic lexicon + suffix part-of-speech tagger."""

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self._tokenizer = tokenizer or Tokenizer()

    def tag(self, text: str) -> list[TaggedToken]:
        """Tag every token in ``text``."""
        return [TaggedToken(token=token, tag=self._tag_token(token)) for token in self._tokenizer.tokenize(text)]

    def _tag_token(self, token: Token) -> PosTag:
        text = token.text
        lower = token.lower
        if not any(character.isalnum() for character in text):
            return PosTag.PUNCT
        if token.is_number:
            return PosTag.NUM
        if token.is_identifier:
            return PosTag.IDENT
        if lower in _DETERMINERS:
            return PosTag.DET
        if lower in _PREPOSITIONS:
            return PosTag.PREP
        if lower in _CONJUNCTIONS:
            return PosTag.CONJ
        if lower in _PRONOUNS:
            return PosTag.PRON
        if lower in _AUX_VERBS or lower in _COMMON_VERBS:
            return PosTag.VERB
        if lower in _ADVERBS or (lower.endswith("ly") and len(lower) > 4):
            return PosTag.ADV
        if lower in _ADJECTIVES:
            return PosTag.ADJ
        if lower in lexicon.NUMBER_WORDS:
            return PosTag.NUM
        if text in lexicon.KNOWN_EXCEPTIONS:
            return PosTag.IDENT
        # Suffix heuristics for open-class words.
        if lower.endswith(("ing", "ize", "ise", "ated", "ates")):
            return PosTag.VERB
        if lower.endswith(("tion", "sion", "ment", "ness", "ance", "ence", "ity", "er", "or", "ism")):
            return PosTag.NOUN
        if lower.endswith(("ous", "ful", "less", "able", "ible", "ive", "al", "ic")):
            return PosTag.ADJ
        if lower.endswith("ed") and len(lower) > 4:
            return PosTag.VERB
        if lower in lexicon.COMPONENT_WORDS or lower in lexicon.RESOURCE_WORDS:
            return PosTag.NOUN
        return PosTag.NOUN


def content_words(tagged: list[TaggedToken]) -> list[TaggedToken]:
    """Tokens carrying content (nouns, verbs, adjectives, identifiers, numbers)."""
    keep = {PosTag.NOUN, PosTag.VERB, PosTag.ADJ, PosTag.IDENT, PosTag.NUM}
    return [item for item in tagged if item.tag in keep and item.lower not in lexicon.STOPWORDS]
