"""Seeded sampling from discrete measures.

The framework computes execution measures *exactly* (``repro.semantics.measure``);
sampling is used by the Monte-Carlo cross-validation layer
(``repro.analysis.montecarlo``) and by the randomized workload generators.
All randomness flows through an explicit, seeded
:class:`repro.probability.rng.Generator` (a pure-Python PCG64 that draws
exactly what ``numpy.random.default_rng`` would), so every experiment is
bit-reproducible.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Sequence

from repro.probability.measures import DiscreteMeasure
from repro.probability.rng import Generator

__all__ = ["sample", "sample_many", "empirical_measure", "generator"]


def generator(seed: int) -> Generator:
    """A seeded PCG64 generator (single entry point for reproducibility)."""
    return Generator(seed)


def _pairwise_sum(values: Sequence[float]) -> float:
    """numpy's float64 ``sum``: sequential below 8 values, 8 interleaved
    accumulators up to blocks of 128, halving recursion above."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r = list(values[:8])
        rest = n - n % 8
        for i in range(8, rest, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[rest:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def sample(eta: DiscreteMeasure, rng: Generator) -> Hashable:
    """Draw one outcome from ``eta``.

    For sub-probability measures the deficiency is exposed as the outcome
    ``None`` — callers that model scheduler halting rely on this convention
    (a scheduler decision of mass < 1 halts with the residual probability,
    Definition 3.1).
    """
    outcomes: List[Hashable] = []
    weights: List[float] = []
    for outcome, weight in eta.items():
        outcomes.append(outcome)
        weights.append(float(weight))
    deficiency = float(eta.halting_mass)
    if deficiency > 1e-12:
        outcomes.append(None)
        weights.append(deficiency)
    total = sum(weights)
    probabilities = [w / total for w in weights]
    index = rng.choice(len(outcomes), p=probabilities)
    return outcomes[index]


def sample_many(eta: DiscreteMeasure, count: int, rng: Generator) -> List[Hashable]:
    """Draw ``count`` i.i.d. outcomes (one normalisation of the support)."""
    outcomes: List[Hashable] = []
    weights: List[float] = []
    for outcome, weight in eta.items():
        outcomes.append(outcome)
        weights.append(float(weight))
    deficiency = float(eta.halting_mass)
    if deficiency > 1e-12:
        outcomes.append(None)
        weights.append(deficiency)
    total = _pairwise_sum(weights)
    probabilities = [w / total for w in weights]
    indices = rng.choice(len(outcomes), size=count, p=probabilities)
    return [outcomes[i] for i in indices]


def empirical_measure(samples: Sequence[Hashable]) -> DiscreteMeasure:
    """Empirical distribution of a sample batch (float weights)."""
    if not samples:
        raise ValueError("empty sample batch")
    counts: Dict[Hashable, int] = {}
    for item in samples:
        counts[item] = counts.get(item, 0) + 1
    n = len(samples)
    return DiscreteMeasure({o: c / n for o, c in counts.items()})
