"""Performance: PSIOA composition and joint-state exploration throughput.

Measures the cost of building composed automata lazily and of exploring
their reachable joint state space — the substrate cost every higher-level
check (implementation, emulation) pays.
"""

import pytest

from repro.core.composition import check_partial_compatibility, compose
from repro.core.psioa import reachable_states
from repro.probability.rng import Generator
from repro.systems.factory import random_psioa


def _pair(n_states):
    rng = Generator(n_states)
    left = random_psioa(("L", n_states), rng, n_states=n_states, n_actions=4)
    right = random_psioa(("R", n_states), rng, n_states=n_states, n_actions=4)
    return left, right


@pytest.mark.parametrize("n_states", [4, 8, 16])
def test_compose_and_explore(benchmark, n_states):
    left, right = _pair(n_states)

    def work():
        product = compose(left, right)
        return len(reachable_states(product, max_states=200_000))

    states = benchmark(work)
    assert states >= 1


@pytest.mark.parametrize("n_states", [4, 8])
def test_partial_compatibility_check(benchmark, n_states):
    left, right = _pair(n_states)
    result = benchmark(check_partial_compatibility, [left, right])
    assert result in (True, False)


def test_three_way_composition(benchmark):
    rng = Generator(99)
    automata = [
        random_psioa(("T", i), rng, n_states=4, n_actions=3) for i in range(3)
    ]

    def work():
        product = compose(*automata)
        return len(reachable_states(product, max_states=200_000))

    assert benchmark(work) >= 1
