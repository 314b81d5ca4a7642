"""Deterministic random number management.

All stochastic components (decoding, RLHF sampling, dataset generation,
probabilistic fault triggers) draw from :class:`SeededRNG` so that a single
seed pins down an entire experiment, which is essential for reproducible
benchmark runs.

Target workloads draw from :class:`WorkloadRNG` instead.  It reproduces, bit
for bit and with the standard library only, the two draws workloads make:
:meth:`SeededRNG.randint` (ranges of at most ``2**32`` values) and
:meth:`SeededRNG.choice` without ``p``.  Importing this module loads no
numpy (``SeededRNG`` imports it when constructed), so a sandboxed workload
process starts without it.  ``SeededRNG`` is the test oracle for
``WorkloadRNG``'s draws.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy.random.SeedSequence's hash constants.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

# numpy.random.PCG64's 128-bit LCG multiplier.
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _derive_seed(seed: int, namespace: str) -> int:
    """The 32-bit generator seed of ``namespace`` under the experiment ``seed``."""
    digest = hashlib.sha256(f"{seed}:{namespace}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _seed_sequence_state(entropy: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for a 32-bit entropy."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy)] + [hashmix(0) for _ in range(_POOL_SIZE - 1)]
    for source in range(_POOL_SIZE):
        for destination in range(_POOL_SIZE):
            if source != destination:
                pool[destination] = mix(pool[destination], hashmix(pool[source]))

    hash_const = _INIT_B
    words = []
    for index in range(2 * _POOL_SIZE):
        value = pool[index % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    # Little-endian pairs of 32-bit words form the 64-bit words.
    return [words[index] | (words[index + 1] << 32) for index in range(0, len(words), 2)]


class SeededRNG:
    """A thin, forkable wrapper around :class:`numpy.random.Generator`.

    Components receive independent sub-streams via :meth:`fork`, so adding a
    new consumer of randomness does not perturb the draws seen by existing
    components — a property plain shared generators do not have.
    """

    def __init__(self, seed: int = 0, namespace: str = "root") -> None:
        import numpy as np

        self.seed = int(seed)
        self.namespace = namespace
        self._generator = np.random.default_rng(_derive_seed(self.seed, namespace))

    def fork(self, namespace: str) -> "SeededRNG":
        """Create an independent generator for a named sub-component."""
        return SeededRNG(seed=self.seed, namespace=f"{self.namespace}/{namespace}")

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._generator.uniform(low, high))

    def randint(self, low: int, high: int) -> int:
        """Random integer in ``[low, high)``."""
        return int(self._generator.integers(low, high))

    def choice(self, options, p=None):
        """Choose one element from a sequence, optionally with probabilities."""
        index = self._generator.choice(len(options), p=p)
        return options[int(index)]

    def shuffle(self, items: list) -> list:
        """Return a new shuffled copy of ``items``."""
        order = self._generator.permutation(len(items))
        return [items[int(i)] for i in order]

    def normal(self, size=None, scale: float = 1.0):
        return self._generator.normal(0.0, scale, size=size)

    def bernoulli(self, probability: float) -> bool:
        return bool(self._generator.uniform() < probability)


class WorkloadRNG:
    """The workload draws of :class:`SeededRNG`, without numpy.

    For the same ``seed`` and ``namespace``, every interleaving of
    :meth:`randint` and :meth:`choice` returns what ``SeededRNG`` returns: the
    same seed derivation, numpy's ``SeedSequence`` mixing, its ``PCG64``
    generator and its 32-bit Lemire bounded integers.
    """

    def __init__(self, seed: int = 0, namespace: str = "root") -> None:
        self.seed = int(seed)
        self.namespace = namespace
        state_high, state_low, inc_high, inc_low = _seed_sequence_state(_derive_seed(self.seed, namespace))
        # PCG's seeding: one step from state 0 (which yields the odd
        # increment), add the initial state, step again.
        self._increment = ((((inc_high << 64) | inc_low) << 1) | 1) & _MASK128
        self._state = self._increment + ((state_high << 64) | state_low)
        self._step()
        # The upper half of the last 64-bit output, which the next 32-bit
        # draw returns (numpy's PCG64 keeps it between calls the same way).
        self._spare: int | None = None

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULTIPLIER + self._increment) & _MASK128

    def _next_uint32(self) -> int:
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        self._step()
        # PCG64's XSL-RR output: xor the halves, rotate by the top six bits.
        state = self._state
        rotation = state >> 122
        folded = ((state >> 64) ^ state) & _MASK64
        value = ((folded >> rotation) | (folded << (64 - rotation))) & _MASK64
        self._spare = value >> 32
        return value & _MASK32

    def _bounded(self, width: int) -> int:
        """Uniform integer in ``[0, width)``, as numpy's bounded-integer fill draws it."""
        if width <= 0:
            raise ValueError("cannot draw from an empty range")
        if width > 1 << 32:
            raise ValueError(f"WorkloadRNG draws ranges of at most 2**32 values, not {width}")
        if width == 1:
            return 0
        if width == 1 << 32:
            return self._next_uint32()
        # Lemire's multiply-shift with rejection of the biased low products.
        product = self._next_uint32() * width
        if product & _MASK32 < width:
            threshold = (1 << 32) % width
            while product & _MASK32 < threshold:
                product = self._next_uint32() * width
        return product >> 32

    def randint(self, low: int, high: int) -> int:
        """Random integer in ``[low, high)``."""
        return int(low) + self._bounded(int(high) - int(low))

    def choice(self, options):
        """Choose one element from a sequence, uniformly."""
        return options[self._bounded(len(options))]
