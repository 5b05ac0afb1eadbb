"""Seeded pseudo-random draws, bit-exact with ``numpy.random.default_rng``.

The workload generators and the Monte-Carlo layer draw from one seeded
PCG64 stream.  This module reproduces numpy's pipeline for an integer
seed in pure Python, so the package needs no numpy at run time and every
sampled instance is the one numpy would draw:

* ``SeedSequence``: the seed's 32-bit words are hash-mixed into a pool of
  4 words, which ``generate_state(4, uint64)`` expands into the 128-bit
  PCG state and stream increment;
* PCG64: the 128-bit LCG with the XSL-RR 128/64 output function, and the
  buffered upper half-word that numpy's ``next_uint32`` hands out on
  every second call;
* :class:`Generator`: ``random``, ``integers`` and ``choice`` with numpy's
  algorithms, for the call shapes this package makes.

``tests/test_rng_oracle.py`` checks long draw streams against numpy's.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
from itertools import accumulate
from typing import List, Optional, Sequence

__all__ = ["Generator"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_DOUBLE_UNIT = 2.0**-53
# ``choice`` accepts probabilities whose sum is within sqrt(eps) of 1.
_P_SUM_ATOL = math.sqrt(sys.float_info.epsilon)


def _seed_pool(seed: int) -> List[int]:
    """SeedSequence's entropy pool for a non-negative integer seed."""
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
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

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _generate_state(pool: List[int]) -> List[int]:
    """``SeedSequence.generate_state(4, np.uint64)``."""
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return [words[i] | (words[i + 1] << 32) for i in range(0, len(words), 2)]


def _kahan_sum(values: Sequence[float]) -> float:
    """numpy's compensated sum for ``choice``'s probability check."""
    if not values:
        return 0.0
    total = values[0]
    carry = 0.0
    for value in values[1:]:
        y = value - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


class Generator:
    """A PCG64 stream seeded like ``numpy.random.default_rng(seed)``.

    Only integer seeds are accepted: there is no OS-entropy fallback, so
    every stream is reproducible from its seed.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        s0, s1, s2, s3 = _generate_state(_seed_pool(seed))
        initstate = (s0 << 64) | s1
        self._inc = (((s2 << 64) | s3) << 1 | 1) & _MASK128
        # pcg_setseq_128_srandom_r: step from 0, add the seed state, step.
        state = (self._inc + initstate) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128
        self._half: Optional[int] = None

    def _next64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def _bounded(self, rng: int) -> int:
        """A uniform draw from ``[0, rng]``: numpy's
        ``random_bounded_uint64`` (Lemire's method on 32-bit words)."""
        if rng == 0:
            return 0
        if rng == _MASK32:
            return self._next32()
        if rng > _MASK32:
            raise ValueError("ranges wider than 2**32 values are not supported")
        rng_excl = rng + 1
        m = self._next32() * rng_excl
        leftover = m & _MASK32
        if leftover < rng_excl:
            threshold = (_MASK32 - rng) % rng_excl
            while leftover < threshold:
                m = self._next32() * rng_excl
                leftover = m & _MASK32
        return m >> 32

    def _shuffle(self, data: List[int], first: int) -> None:
        """Fisher-Yates over ``data[first:]`` from the end (``_shuffle_int``)."""
        for i in range(len(data) - 1, first - 1, -1):
            j = self._bounded(i)
            data[i], data[j] = data[j], data[i]

    def random(self) -> float:
        """A double in ``[0, 1)`` from the top 53 bits of one 64-bit draw."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in ``[low, high)``."""
        low = operator.index(low)
        high = operator.index(high)
        if high <= low:
            raise ValueError("high <= 0" if low == 0 else "low >= high")
        return low + self._bounded(high - 1 - low)

    def choice(
        self,
        a: int,
        size: Optional[int] = None,
        replace: bool = True,
        p: Optional[Sequence[float]] = None,
    ):
        """Indices from ``range(a)``: one int when ``size`` is None, else a
        list of ``size`` ints.

        Two forms are supported: weighted draws with replacement (``p``
        given) and uniform draws without replacement (``replace=False``).
        """
        n = operator.index(a)
        k = 1 if size is None else operator.index(size)
        if k < 0:
            raise ValueError("negative dimensions are not allowed")
        if n <= 0 and k != 0:
            raise ValueError("a must be a positive integer unless no samples are taken")
        if replace:
            if p is None:
                raise NotImplementedError("uniform choice with replacement: use integers")
            cdf = list(accumulate(self._checked_p(p, n)))
            last = cdf[-1]
            cdf = [c / last for c in cdf]
            draws = [bisect_right(cdf, self.random()) for _ in range(k)]
        else:
            if p is not None:
                raise NotImplementedError("weighted choice without replacement")
            if k > n:
                raise ValueError(
                    "Cannot take a larger sample than population when replace=False"
                )
            draws = self._sample_without_replacement(n, k)
        return draws[0] if size is None else draws

    @staticmethod
    def _checked_p(p: Sequence[float], n: int) -> List[float]:
        weights = [float(w) for w in p]
        if len(weights) != n:
            raise ValueError("a and p must have same size")
        total = _kahan_sum(weights)
        if math.isnan(total):
            raise ValueError("Probabilities contain NaN")
        if any(w < 0 for w in weights):
            raise ValueError("Probabilities are not non-negative")
        if abs(total - 1.0) > _P_SUM_ATOL:
            raise ValueError("probabilities do not sum to 1")
        return weights

    def _sample_without_replacement(self, n: int, k: int) -> List[int]:
        if n > 10000 and k > n // 50:
            # Large draws: shuffle the tail of the whole population.
            population = list(range(n))
            self._shuffle(population, max(n - k, 1))
            return population[n - k:]
        # Floyd's algorithm, then a shuffle of the sample.  numpy keeps
        # the chosen set in an open-addressing table; only membership
        # decides the output, so a Python set draws the same indices.
        chosen = set()
        sample = []
        for j in range(n - k, n):
            value = self._bounded(j)
            if value in chosen:
                value = j
            chosen.add(value)
            sample.append(value)
        self._shuffle(sample, 1)
        return sample
