"""``best_distinguisher`` against the plain job-by-job search.

The reference below is the search spelled out: one job per (environment,
sigma) in enumeration order, each perception a fresh :func:`f_dist` (the
second world composed anew per job), and the winner kept by a strictly
greater comparison.  :func:`best_distinguisher` unfolds each world once
along the prefix tree and takes the unpaired candidates' perceptions once
per environment; it must name the same advantage (value and type), the
same environment and the same scheduler.  The properties run on random
PSIOA pairs with exact and float weights, one or two environments, paired
and unpaired, over a length-ordered oblivious schema (the prefix path),
the adaptive schema and a singleton whose parent is absent (the
:func:`execution_measure` fallback).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.distinguish import best_distinguisher
from repro.core.psioa import TablePSIOA
from repro.obs import metrics
from repro.probability.measures import DiscreteMeasure, total_variation
from repro.probability.rng import Generator
from repro.semantics.insight import accept_insight, compose_world, f_dist, trace_insight
from repro.semantics.schema import (
    SchedulerSchema,
    adaptive_schema,
    enumerate_action_sequences,
    oblivious_schema,
)
from repro.systems.factory import random_psioa

SEEDS = st.integers(min_value=0, max_value=10_000)


def reference(first, second, *, schema, insight, environments, bound, paired):
    """``(advantage, environment, scheduler)`` of the job-by-job search."""
    jobs = []
    for env in environments:
        world_first = compose_world(env, first)
        jobs += [(env, world_first, scheduler) for scheduler in schema(world_first, bound)]
    if not jobs:
        raise ValueError("empty environment universe")
    best = None
    for env, world_first, scheduler in jobs:
        dist_first = f_dist(insight, env, first, scheduler, world=world_first)
        if paired:
            advantage = total_variation(dist_first, f_dist(insight, env, second, scheduler))
        else:
            world_second = compose_world(env, second)
            advantage = min(
                total_variation(
                    dist_first, f_dist(insight, env, second, candidate, world=world_second)
                )
                for candidate in schema(world_second, bound)
            )
        if best is None or advantage > best[0]:
            best = (advantage, env.name, getattr(scheduler, "name", repr(scheduler)))
    return best


def floated(automaton):
    transitions = {
        key: DiscreteMeasure({target: float(w) for target, w in eta.items()})
        for key, eta in automaton.transitions.items()
    }
    return TablePSIOA(automaton.name, automaton.start, automaton.signatures, transitions)


def universe(seed, exact, n_envs, system_actions=2, env_actions=2):
    """Two systems over one alphabet and ``n_envs`` environments over their own."""
    rng = Generator(seed)
    first, second = (
        random_psioa((side, seed), rng, n_states=3, n_actions=system_actions, action_prefix="S")
        for side in ("A", "B")
    )
    if not exact:
        first, second = floated(first), floated(second)
    environments = [
        random_psioa(("E", i), rng, n_states=2, n_actions=env_actions, action_prefix=("X", i))
        for i in range(n_envs)
    ]
    return first, second, environments


def orphan_schema():
    """One length-``bound`` sequence per world: its parent is never enumerated."""

    def members(automaton, bound):
        *_, last = enumerate_action_sequences(automaton, bound)
        yield last

    return SchedulerSchema("orphan", members)


INSIGHTS = st.sampled_from([trace_insight(), accept_insight(("S", 0))])


def assert_same_as_reference(first, second, environments, **search):
    result = best_distinguisher(first, second, environments=environments, **search)
    advantage, env_name, scheduler_name = reference(
        first, second, environments=environments, **search
    )
    assert type(result.advantage) is type(advantage)
    assert (result.advantage, result.environment, result.scheduler) == (
        advantage,
        env_name,
        scheduler_name,
    )


class TestAgainstReference:
    @given(SEEDS, st.booleans(), st.integers(1, 2), st.booleans(), st.integers(0, 2), INSIGHTS)
    @settings(max_examples=40, deadline=None)
    def test_oblivious_schema(self, seed, exact, n_envs, paired, bound, insight):
        first, second, environments = universe(seed, exact, n_envs)
        assert_same_as_reference(
            first, second, environments,
            schema=oblivious_schema(), insight=insight, bound=bound, paired=paired,
        )

    @given(SEEDS, st.booleans(), st.integers(1, 2), st.booleans(), st.integers(0, 1), INSIGHTS)
    @settings(max_examples=15, deadline=None)
    def test_adaptive_schema(self, seed, exact, n_envs, paired, bound, insight):
        first, second, environments = universe(seed, exact, n_envs, env_actions=1)
        assert_same_as_reference(
            first, second, environments,
            schema=adaptive_schema(), insight=insight, bound=bound, paired=paired,
        )

    @given(SEEDS, st.booleans(), st.integers(1, 2), st.booleans(), st.integers(1, 3), INSIGHTS)
    @settings(max_examples=25, deadline=None)
    def test_singleton_without_parent(self, seed, exact, n_envs, paired, bound, insight):
        first, second, environments = universe(seed, exact, n_envs)
        assert_same_as_reference(
            first, second, environments,
            schema=orphan_schema(), insight=insight, bound=bound, paired=paired,
        )


class TestWork:
    def test_unpaired_asks_for_each_measure_once(self):
        first, second, environments = universe(3, True, 2)
        schema = oblivious_schema()
        expected = sum(
            len(list(schema(compose_world(env, first), 2)))
            + len(list(schema(compose_world(env, second), 2)))
            for env in environments
        )
        metrics.reset()
        best_distinguisher(
            first, second, schema=schema, insight=trace_insight(),
            environments=environments, bound=2, paired=False,
        )
        # |sigma| + |sigma'| per environment, not |sigma| * |sigma'|.
        assert metrics.counter("measure.unfold.calls").value == expected

    def test_empty_schema_is_an_empty_universe(self):
        first, second, environments = universe(0, True, 1)
        nothing = SchedulerSchema("none", lambda _automaton, _bound: iter(()))
        with pytest.raises(ValueError, match="empty environment universe"):
            best_distinguisher(
                first, second, schema=nothing, insight=trace_insight(),
                environments=environments, bound=2,
            )

    def test_first_maximal_pair_wins(self):
        # Identical systems: every pair ties at 0, so the first one is named.
        first, _second, environments = universe(5, True, 2)
        twin = TablePSIOA(("A2", 5), first.start, first.signatures, first.transitions)
        schema = oblivious_schema()
        result = best_distinguisher(
            first, twin, schema=schema, insight=trace_insight(),
            environments=environments, bound=1,
        )
        first_member = next(iter(schema(compose_world(environments[0], first), 1)))
        assert result.advantage == Fraction(0)
        assert (result.environment, result.scheduler) == (environments[0].name, first_member.name)
