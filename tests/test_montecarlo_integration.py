"""Monte-Carlo cross-validation of the exact engine on the flagship
workloads.

The exact unfolding and the sampling path share only the automaton and
scheduler definitions, so agreement within Hoeffding bounds is strong
evidence against systematic bugs in either.
"""

from fractions import Fraction

import pytest

from repro.analysis.montecarlo import (
    crosscheck_f_dist,
    empirical_f_dist,
    hoeffding_radius,
    sample_execution,
)
from repro.core.composition import compose
from repro.probability.measures import total_variation
from repro.probability.rng import Generator
from repro.secure.emulation import hidden_world
from repro.semantics.insight import accept_insight, f_dist
from repro.semantics.measure import execution_measure
from repro.systems.channels import (
    channel_environment,
    channel_schema,
    channel_simulator,
    guessing_adversary,
    ideal_channel,
    real_channel,
)
from repro.systems.consensus import consensus_environment
from repro.systems.consensus_compositional import consensus_pair, consensus_pair_schema


class TestChannelCrosscheck:
    @pytest.mark.parametrize("k", [None, 2])
    def test_real_world_accept_probability(self, k):
        env = channel_environment(1)
        system = hidden_world(real_channel(("r", k), k), guessing_adversary())
        world = compose(env, system)
        scheduler = next(iter(channel_schema()(world, 8)))
        exact = f_dist(accept_insight(), env, system, scheduler, world=world)

        def value_of(execution):
            return accept_insight()(env, world, execution)

        assert crosscheck_f_dist(world, scheduler, value_of, exact, samples=3000, seed=5)

    def test_ideal_world_with_simulator(self):
        env = channel_environment(0)
        sim = channel_simulator(guessing_adversary())
        system = hidden_world(ideal_channel(), sim)
        world = compose(env, system)
        scheduler = next(iter(channel_schema()(world, 10)))
        exact = f_dist(accept_insight(), env, system, scheduler, world=world)

        def value_of(execution):
            return accept_insight()(env, world, execution)

        assert crosscheck_f_dist(world, scheduler, value_of, exact, samples=3000, seed=6)


class TestConsensusCrosscheck:
    def test_violation_probability_sampled(self):
        env = consensus_environment(0, 1)
        system = consensus_pair(2)
        world = compose(env, system)
        scheduler = next(iter(consensus_pair_schema()(world, 40)))
        exact = f_dist(accept_insight(), env, system, scheduler, world=world)
        assert exact(1) == Fraction(1, 4)

        rng = Generator(7)
        hits = 0
        samples = 2000
        for _ in range(samples):
            execution = sample_execution(world, scheduler, rng)
            hits += accept_insight()(env, world, execution)
        assert abs(hits / samples - 0.25) <= hoeffding_radius(samples)


class TestSampledTraceDistribution:
    def test_empirical_trace_distribution_converges(self):
        from repro.systems.coin import coin, coin_observer
        from repro.semantics.scheduler import ActionSequenceScheduler

        env = coin_observer()
        biased = coin("b", Fraction(2, 3))
        world = compose(env, biased)
        scheduler = ActionSequenceScheduler(["toss", "head", "acc"], local_only=True)
        exact = execution_measure(world, scheduler).map(
            lambda e: e.trace(world.signature)
        )
        rng = Generator(8)
        empirical = empirical_f_dist(
            world,
            scheduler,
            lambda e: e.trace(world.signature),
            samples=4000,
            rng=rng,
        )
        radius = hoeffding_radius(4000, support=max(len(exact), 2))
        assert float(total_variation(exact, empirical)) <= radius
