"""Property-based invariants of the PCA layer over randomized dynamic
systems (spawning PCAs with seeded children)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.distinguish import estimated_perception_distance
from repro.config.pca import compose_pca, hide_pca
from repro.config.validate import validate_pca
from repro.core.psioa import reachable_states
from repro.probability.rng import Generator
from repro.semantics.insight import accept_insight
from repro.semantics.scheduler import ActionSequenceScheduler
from repro.systems.coin import coin, coin_observer
from repro.systems.ledger import spawning_pca

SEEDS = st.integers(min_value=0, max_value=2_000)


def random_spawner(seed, tag="p"):
    rng = Generator(seed)
    p = Fraction(int(rng.integers(0, 9)), 8)
    child = lambda: coin(
        ("child", tag, seed),
        p,
        toss=("toss", tag, seed),
        head=("head", tag, seed),
        tail=("tail", tag, seed),
    )
    return spawning_pca(
        child,
        name=("spawner", tag, seed),
        trigger=("spawn", tag, seed),
        manager_name=("mgr", tag, seed),
    )


class TestPcaInvariants:
    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_random_spawners_satisfy_definition_216(self, seed):
        validate_pca(random_spawner(seed))

    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_every_reachable_configuration_reduced_and_compatible(self, seed):
        pca = random_spawner(seed)
        for state in reachable_states(pca):
            config = pca.config(state)
            assert config.is_reduced()
            assert config.is_compatible()

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_composition_config_is_union(self, seed):
        left = random_spawner(seed, tag="L")
        right = random_spawner(seed + 1, tag="R")
        both = compose_pca(left, right)
        for state in reachable_states(both, max_states=5_000):
            config = both.config(state)
            left_config = left.config(state[0])
            right_config = right.config(state[1])
            assert config.ids() == left_config.ids() | right_config.ids()

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_hidden_pca_keeps_transitions(self, seed):
        pca = random_spawner(seed)
        hidden = hide_pca(pca, lambda q: set(pca.signature(q).outputs))
        for state in reachable_states(pca, max_states=5_000):
            for action in pca.signature(state).all_actions:
                assert hidden.transition(state, action) == pca.transition(state, action)

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_composed_pca_validates(self, seed):
        left = random_spawner(seed, tag="L")
        right = random_spawner(seed + 1, tag="R")
        validate_pca(compose_pca(left, right), max_states=10_000)


class TestEstimatedDistance:
    def test_estimate_brackets_exact_value(self):
        env = coin_observer()
        fair = coin("fair", Fraction(1, 2))
        biased = coin("biased", Fraction(3, 4))
        sched = ActionSequenceScheduler(["toss", "head", "acc"], local_only=True)
        estimate, radius = estimated_perception_distance(
            accept_insight(), env, fair, biased, sched, samples=4000, seed=3
        )
        assert abs(estimate - 0.25) <= radius

    def test_identical_systems_estimate_near_zero(self):
        env = coin_observer()
        fair = coin("fair", Fraction(1, 2))
        sched = ActionSequenceScheduler(["toss", "head", "acc"], local_only=True)
        estimate, radius = estimated_perception_distance(
            accept_insight(), env, fair, fair, sched, samples=4000, seed=4
        )
        assert estimate <= radius
