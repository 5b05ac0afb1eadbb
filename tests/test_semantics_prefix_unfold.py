"""The prefix-tree unfold against its specification.

:func:`sequence_measures` and :func:`f_dists` must give exactly what
:func:`execution_measure` and :func:`f_dist` give, scheduler by scheduler:
the same outcomes with the same weights (value and type) in the same
insertion order, since float total variations sum in that order.  The
properties run on random PSIOA with exact and with float weights and on a
spawning PCA world, with ``local_only`` both ways and bounds 0-4, and on
families the prefix tree cannot follow (filtered, reordered, mixed), which
must fall back to :func:`execution_measure`.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.composition import compose
from repro.core.psioa import TablePSIOA
from repro.obs import metrics
from repro.perf import cache as perf_cache
from repro.probability.measures import DiscreteMeasure
from repro.probability.rng import Generator
from repro.semantics.insight import accept_insight, f_dist, f_dists, trace_insight
from repro.semantics.measure import execution_measure, sequence_measures
from repro.semantics.schema import enumerate_action_sequences
from repro.semantics.scheduler import (
    ActionSequenceScheduler,
    DeterministicScheduler,
    PriorityScheduler,
    bound_scheduler,
)
from repro.systems.coin import coin, coin_observer
from repro.systems.factory import random_psioa
from repro.systems.ledger import spawning_pca

SEEDS = st.integers(min_value=0, max_value=10_000)
BOUNDS = st.integers(min_value=0, max_value=4)


def items(measure):
    """A measure as its items in insertion order, weights with their types."""
    return [(outcome, type(weight), weight) for outcome, weight in measure.items()]


def floated(automaton):
    """``automaton`` with every transition weight a float (thirds round)."""
    transitions = {
        key: DiscreteMeasure({target: float(w) for target, w in eta.items()})
        for key, eta in automaton.transitions.items()
    }
    return TablePSIOA(automaton.name, automaton.start, automaton.signatures, transitions)


def make(seed, exact):
    automaton = random_psioa(("R", seed), Generator(seed), n_states=4, n_actions=3, branching=3)
    return automaton if exact else floated(automaton)


def sequences(alphabet, bound, local_only):
    """Every sequence over ``alphabet`` of length 0..bound, in length order."""
    return [
        ActionSequenceScheduler(sequence, local_only=local_only)
        for length in range(bound + 1)
        for sequence in itertools.product(alphabet, repeat=length)
    ]


def spawning_world(p):
    pca = spawning_pca(lambda: coin("child", p), name="X")
    env = coin_observer()
    return env, compose(env, pca)


SPAWN_ALPHABET = ("spawn", "toss", "head", "tail", "acc")


def assert_matches_spec(automaton, schedulers):
    got = [(s, items(m)) for s, m in sequence_measures(automaton, schedulers)]
    assert [s for s, _ in got] == list(schedulers)
    for scheduler, measure_items in got:
        assert measure_items == items(execution_measure(automaton, scheduler)), scheduler.name


def assert_f_dists_match(insight, env, world, schedulers):
    got = list(f_dists(insight, env, schedulers, world=world))
    assert [s for s, _ in got] == list(schedulers)
    for scheduler, dist in got:
        expected = f_dist(insight, env, None, scheduler, world=world)
        assert items(dist) == items(expected), scheduler.name


class TestAgainstExecutionMeasure:
    @given(SEEDS, st.booleans(), st.booleans(), BOUNDS)
    @settings(max_examples=30, deadline=None)
    def test_random_psioa(self, seed, exact, local_only, bound):
        automaton = make(seed, exact)
        alphabet = [(("R", seed), j) for j in range(3)]
        assert_matches_spec(automaton, sequences(alphabet, bound, local_only))

    @given(st.sampled_from([Fraction(5, 8), Fraction(1, 2), 0.3, 0.7]), st.booleans(), BOUNDS)
    @settings(max_examples=12, deadline=None)
    def test_spawning_pca_f_dists(self, p, local_only, bound):
        env, world = spawning_world(p)
        schedulers = sequences(SPAWN_ALPHABET, bound, local_only)
        for insight in (accept_insight(), trace_insight()):
            assert_f_dists_match(insight, env, world, schedulers)

    def test_schema_enumeration(self):
        # The library's own oblivious enumeration, inputs included.
        automaton = make(7, exact=False)
        assert_matches_spec(automaton, list(enumerate_action_sequences(automaton, 3)))


class TestFallback:
    @given(SEEDS, st.booleans(), st.lists(st.booleans(), min_size=40, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_filtered_family(self, seed, exact, keep):
        # Dropped members leave their children without a parent: those are
        # unfolded from scratch and then serve as parents themselves.
        automaton = make(seed, exact)
        alphabet = [(("R", seed), j) for j in range(3)]
        family = sequences(alphabet, 3, local_only=False)
        assert len(family) == len(keep)
        assert_matches_spec(automaton, [s for s, k in zip(family, keep) if k])

    @given(SEEDS, st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_reordered_family(self, seed, exact):
        automaton = make(seed, exact)
        alphabet = [(("R", seed), j) for j in range(3)]
        family = sequences(alphabet, 3, local_only=False)
        assert_matches_spec(automaton, list(reversed(family)) + family[::2])

    def test_mixed_scheduler_kinds(self):
        env, world = spawning_world(Fraction(3, 4))
        plain = sequences(SPAWN_ALPHABET, 2, local_only=True)
        mixed = []
        for i, member in enumerate(plain):
            mixed.append(member)
            if i % 4 == 0:
                mixed.append(ActionSequenceScheduler(member.sequence, local_only=False))
            if i % 7 == 0:
                mixed.append(bound_scheduler(DeterministicScheduler.greedy(), 3))
                mixed.append(PriorityScheduler([lambda a: a == "toss"], 2))
        assert_matches_spec(world, mixed)
        assert_f_dists_match(accept_insight(), env, world, mixed)


class TestWorkSaved:
    @pytest.fixture(autouse=True)
    def _no_cache(self):
        perf_cache.configure(enabled=False)

    def test_each_leaf_decided_once_per_child(self, monkeypatch):
        decided = []
        original = ActionSequenceScheduler.decide

        def counting(self, automaton, fragment):
            decided.append((self.sequence, fragment))
            return original(self, automaton, fragment)

        _env, world = spawning_world(Fraction(1, 4))
        family = sequences(SPAWN_ALPHABET, 3, local_only=True)
        monkeypatch.setattr(ActionSequenceScheduler, "decide", counting)
        nodes = {}
        before = 0  # decisions made before the member's measure was asked for
        for scheduler, measure in sequence_measures(world, family):
            sequence = scheduler.sequence
            made = decided[before:]
            before = len(decided)
            nodes[sequence] = measure
            if not sequence:
                continue
            leaves = [f for f in nodes[sequence[:-1]].outcomes() if len(f) == len(sequence) - 1]
            assert sorted(made, key=repr) == sorted(((sequence, f) for f in leaves), key=repr)
        assert len(decided) == len(set(decided))
        assert metrics.counter("scheduler.steps").value == len(decided)

    def test_counters(self):
        _env, world = spawning_world(Fraction(1, 4))
        family = sequences(SPAWN_ALPHABET, 3, local_only=True)
        list(sequence_measures(world, family))
        calls = metrics.counter("measure.unfold.calls").value
        steps = metrics.counter("measure.unfold.steps").value
        fragments = metrics.counter("measure.unfold.fragments").value
        assert calls == len(family)  # one per measure asked for
        assert fragments == metrics.counter("scheduler.steps").value
        metrics.reset()
        for scheduler in family:
            execution_measure(world, scheduler)
        assert metrics.counter("measure.unfold.calls").value == calls
        assert metrics.counter("measure.unfold.steps").value > steps
        assert metrics.counter("measure.unfold.fragments").value > fragments

    def test_parent_without_leaves_hands_on_its_objects(self):
        env, world = spawning_world(Fraction(1, 4))
        # Nothing but "spawn" is enabled at the start: ("head",) halts at once.
        family = [ActionSequenceScheduler(s, local_only=True) for s in [(), ("head",), ("head", "toss")]]
        measures = [m for _s, m in sequence_measures(world, family)]
        assert measures[0] is measures[1] is measures[2]
        dists = [d for _s, d in f_dists(accept_insight(), env, family, world=world)]
        assert dists[0] is dists[1] is dists[2]
        assert metrics.counter("measure.unfold.calls").value == 6
