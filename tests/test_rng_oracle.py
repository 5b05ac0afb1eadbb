"""The in-repo PCG64 against numpy, draw for draw.

``repro.probability.rng.Generator`` must reproduce
``numpy.random.default_rng(seed)`` exactly, or every sampled instance of
E1, E3, E7 and E8 (and every pinned test expectation built from one)
silently changes.  numpy is the oracle here and nowhere else: it is a
test-only dependency, imported unconditionally so that a missing numpy
fails this file instead of skipping it.
"""

import math
import pickle
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from repro.probability.measures import SubDiscreteMeasure
from repro.probability.rng import Generator
from repro.probability.sampling import _pairwise_sum, sample, sample_many

SEEDS = [
    0, 1, 2, 3, 7, 11, 42, 99, 100, 107, 300, 1234, 10_000, 65_535,
    2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 17, 2**63 - 1,
    2**64 - 1, 2**64, 2**64 + 5, 2**96 + 3, 2**127 + 2**65 + 1,
    2**160 + 12_345, 10**30,
] + [random.Random(0).getrandbits(bits) for bits in (8, 16, 24, 33, 48, 65, 70, 129, 200)]


def _weights(picker: random.Random, size: int):
    raw = [picker.random() * picker.choice((1.0, 1e-3, 10.0)) for _ in range(size)]
    if size > 2 and picker.random() < 0.3:
        raw[picker.randrange(size)] = 0.0
    total = sum(raw)
    return [w / total for w in raw]


def _one_call(picker: random.Random):
    """A random call shape, applied identically to both generators."""
    shape = picker.randrange(8)
    if shape == 0:
        return lambda g: float(g.random())
    if shape == 1:
        low = picker.randrange(-50, 50)
        width = picker.choice((1, 2, 3, 8, 9, 100, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32))
        return lambda g: int(g.integers(low, low + width))
    if shape == 2:
        low = picker.randrange(0, 5)
        width = picker.randrange(1, 12)
        return lambda g: int(g.integers(low, low + width))
    if shape in (3, 4):
        n = picker.randrange(1, 65)
        k = picker.randrange(0, n + 1)
        return lambda g: [int(i) for i in g.choice(n, size=k, replace=False)]
    p = _weights(picker, picker.randrange(1, 201))
    if shape == 5:
        return lambda g: int(g.choice(len(p), p=p))
    size = picker.randrange(0, 30)
    return lambda g: [int(i) for i in g.choice(len(p), size=size, p=p)]


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_draw_streams_match_numpy(seed):
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    picker = random.Random(seed)
    for step in range(400):
        call = _one_call(picker)
        assert call(ours) == call(theirs), (seed, step)


@pytest.mark.parametrize("seed", [0, 5, 2**32 + 9, 2**64 + 1])
def test_pure_streams_match_numpy(seed):
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    assert [ours.random() for _ in range(300)] == [theirs.random() for _ in range(300)]
    assert [ours.integers(0, 2**32) for _ in range(301)] == [
        int(theirs.integers(0, 2**32)) for _ in range(301)
    ]
    # Width 1 draws nothing, so the buffered half-word carries over.
    assert [ours.integers(9, 10) for _ in range(5)] == [9] * 5
    theirs_tail = [int(theirs.integers(9, 10)) for _ in range(5)] + [
        int(theirs.integers(0, 7)) for _ in range(7)
    ]
    assert [9] * 5 + [ours.integers(0, 7) for _ in range(7)] == theirs_tail


@pytest.mark.parametrize("k", [1, 100, 400, 401, 20_000])
def test_choice_without_replacement_on_a_large_population(k):
    # Above 10000 numpy switches from Floyd's algorithm to a tail shuffle
    # once k exceeds n // 50.
    ours, theirs = Generator(17), np.random.default_rng(17)
    assert ours.choice(20_000, size=k, replace=False) == theirs.choice(
        20_000, size=k, replace=False
    ).tolist()
    assert ours.random() == theirs.random()


def _support(eta):
    """Outcomes and float weights, the deficiency as the outcome ``None``."""
    outcomes = [outcome for outcome, _ in eta.items()]
    weights = [float(weight) for _, weight in eta.items()]
    deficiency = float(eta.halting_mass)
    if deficiency > 1e-12:
        outcomes.append(None)
        weights.append(deficiency)
    return outcomes, weights


def _numpy_sample(eta, rng):
    """``sample`` as it was written against numpy."""
    outcomes, weights = _support(eta)
    probabilities = np.asarray(weights, dtype=np.float64) / sum(weights)
    return outcomes[rng.choice(len(outcomes), p=probabilities)]


def _numpy_sample_many(eta, count, rng):
    """``sample_many`` as it was written against numpy."""
    outcomes, weights = _support(eta)
    probabilities = np.asarray(weights, dtype=np.float64)
    probabilities = probabilities / probabilities.sum()
    return [outcomes[i] for i in rng.choice(len(outcomes), size=count, p=probabilities)]


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 257, 1000, 5000])
def test_normalisation_uses_numpys_pairwise_sum(length):
    # A last-bit difference in the normaliser almost never moves a draw,
    # so the sum itself is compared.
    picker = random.Random(length)
    values = [picker.random() * 10 ** picker.randint(-6, 6) for _ in range(length)]
    assert _pairwise_sum(values) == float(np.asarray(values).sum())


def _sub_measure(picker: random.Random, support: int) -> SubDiscreteMeasure:
    raw = [Fraction(picker.randrange(1, 1000), 997) for _ in range(support)]
    scale = Fraction(picker.randrange(1, 8), 8) / sum(raw)
    return SubDiscreteMeasure({("o", i): w * scale for i, w in enumerate(raw)})


@pytest.mark.parametrize("support", [1, 2, 7, 8, 9, 16, 17, 63, 129, 200, 300])
def test_sampling_matches_numpy_on_sub_probability_measures(support):
    picker = random.Random(support)
    for seed in (0, 1, 2**33):
        eta = _sub_measure(picker, support)
        assert eta.halting_mass > 0
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert sample(eta, ours) == _numpy_sample(eta, theirs)
            assert sample_many(eta, 25, ours) == _numpy_sample_many(eta, 25, theirs)


REJECTED = [
    ("integers", (3, 3), {}),
    ("integers", (0, 0), {}),
    ("integers", (5, 2), {}),
    ("choice", (3,), {"p": [0.5, 0.7, -0.2]}),
    ("choice", (2,), {"p": [0.5, 0.5 + 2 * math.sqrt(sys.float_info.epsilon)]}),
    ("choice", (2,), {"p": [0.4, 0.4]}),
    ("choice", (3,), {"p": [0.5, 0.5]}),
    ("choice", (3,), {"size": 4, "replace": False}),
    ("choice", (0,), {"size": 1, "replace": False}),
]


@pytest.mark.parametrize("method, args, kwargs", REJECTED)
def test_numpy_argument_checks_are_kept(method, args, kwargs):
    with pytest.raises(ValueError):
        getattr(np.random.default_rng(0), method)(*args, **kwargs)
    with pytest.raises(ValueError):
        getattr(Generator(0), method)(*args, **kwargs)


def test_probabilities_within_tolerance_of_one_are_accepted():
    p = [0.5, 0.5 + 0.5 * math.sqrt(sys.float_info.epsilon)]
    assert Generator(3).choice(2, size=50, p=p) == np.random.default_rng(3).choice(
        2, size=50, p=p
    ).tolist()


def test_call_shapes_outside_the_port_raise():
    # Only 32-bit Lemire and the two choice forms the package uses are
    # ported; anything else must fail loudly rather than draw differently.
    with pytest.raises(ValueError):
        Generator(0).integers(0, 2**32 + 1)
    with pytest.raises(NotImplementedError):
        Generator(0).choice(5, size=2)
    with pytest.raises(NotImplementedError):
        Generator(0).choice(2, size=1, replace=False, p=[0.5, 0.5])


@pytest.mark.parametrize("seed", [None, 1.0, "7", [1, 2]])
def test_only_integer_seeds_are_accepted(seed):
    with pytest.raises(TypeError):
        Generator(seed)


def test_negative_seeds_are_rejected():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Generator(-1)


def test_a_pickled_generator_continues_the_same_stream():
    ours, theirs = Generator(2**65 + 3), np.random.default_rng(2**65 + 3)
    for g in (ours, theirs):
        g.random()
        g.integers(0, 10)  # leaves the upper half-word buffered
    clone = pickle.loads(pickle.dumps(ours))
    expected = [int(theirs.integers(0, 1000)) for _ in range(9)] + [theirs.random()]
    assert [clone.integers(0, 1000) for _ in range(9)] + [clone.random()] == expected
    assert [ours.integers(0, 1000) for _ in range(9)] + [ours.random()] == expected
