"""Property-based invariants over randomly generated automata.

These tests pin down the semantic laws the framework relies on, using the
seeded factory so hypothesis explores genuinely different automata:

* the execution measure is a probability measure (mass exactly 1) for any
  bounded scheduler;
* cone probabilities agree with the unfolded measure;
* composition is commutative up to the positional state isomorphism;
* hiding commutes with composition at the signature level;
* renaming is invertible and preserves the execution measure through the
  action bijection;
* intrinsic transitions conserve mass and produce reduced configurations.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.configuration import Configuration
from repro.config.transitions import intrinsic_transition
from repro.core.composition import compose
from repro.core.executions import Fragment
from repro.core.psioa import reachable_states, validate_psioa
from repro.core.renaming import rename_psioa
from repro.core.signature import compose_signatures, hide_signature, signatures_compatible
from repro.probability.measures import total_variation
from repro.probability.rng import Generator
from repro.semantics.measure import cone_probability, execution_measure
from repro.semantics.scheduler import ActionSequenceScheduler, DeterministicScheduler, bound_scheduler
from repro.systems.factory import random_psioa

from tests.helpers import fair_coin, ticker

SEEDS = st.integers(min_value=0, max_value=10_000)


def make(seed, name="X", **kw):
    rng = Generator(seed)
    return random_psioa((name, seed), rng, **kw)


class TestExecutionMeasureLaws:
    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_mass_exactly_one_under_bounded_greedy(self, seed):
        automaton = make(seed, n_states=5, n_actions=3)
        scheduler = bound_scheduler(DeterministicScheduler.greedy(), 5)
        measure = execution_measure(automaton, scheduler)
        assert measure.total_mass == 1  # exact rational arithmetic

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_every_completed_execution_is_valid(self, seed):
        automaton = make(seed, n_states=4, n_actions=3)
        scheduler = bound_scheduler(DeterministicScheduler.greedy(), 4)
        for execution in execution_measure(automaton, scheduler).support():
            assert execution.is_execution_of(automaton)

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_cone_probability_consistent_with_unfolding(self, seed):
        automaton = make(seed, n_states=4, n_actions=3)
        scheduler = bound_scheduler(DeterministicScheduler.greedy(), 4)
        measure = execution_measure(automaton, scheduler)
        for execution in measure.support():
            for cut in range(len(execution) + 1):
                prefix = Fragment(execution.states[: cut + 1], execution.actions[:cut])
                cone = cone_probability(automaton, scheduler, prefix)
                total = sum(w for e, w in measure.items() if prefix <= e)
                assert cone == total

    @given(SEEDS, st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_longer_bounds_refine_the_measure(self, seed, bound):
        # Halting earlier coarsens: the measure at bound b pushes forward to
        # the measure at bound b' < b under prefix truncation.
        automaton = make(seed, n_states=4, n_actions=3)
        short = execution_measure(
            automaton, bound_scheduler(DeterministicScheduler.greedy(), bound)
        )
        long = execution_measure(
            automaton, bound_scheduler(DeterministicScheduler.greedy(), bound + 1)
        )

        def truncate(execution):
            cut = min(len(execution), bound)
            return Fragment(execution.states[: cut + 1], execution.actions[:cut])

        assert total_variation(long.map(truncate), short) == 0


class TestCompositionLaws:
    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_commutativity_up_to_state_swap(self, seed):
        left = make(seed, name="L", n_states=3, n_actions=2)
        right = make(seed + 1, name="R", n_states=3, n_actions=2)
        ab = compose(left, right)
        ba = compose(right, left)
        scheduler = bound_scheduler(DeterministicScheduler.greedy(), 4)
        measure_ab = execution_measure(ab, scheduler)
        measure_ba = execution_measure(ba, scheduler)

        def swap(execution):
            return Fragment(
                tuple((b, a) for a, b in execution.states), execution.actions
            )

        assert total_variation(measure_ab.map(swap), measure_ba) == 0

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_composed_signature_distributes(self, seed):
        left = make(seed, name="L", n_states=3, n_actions=2)
        right = make(seed + 1, name="R", n_states=3, n_actions=2)
        product = compose(left, right)
        for state in reachable_states(product, max_states=2_000):
            sigs = [left.signature(state[0]), right.signature(state[1])]
            assert signatures_compatible(sigs)
            assert product.signature(state) == compose_signatures(sigs)

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_hide_commutes_with_composition_on_signatures(self, seed):
        left = make(seed, name="L", n_states=3, n_actions=2)
        right = make(seed + 1, name="R", n_states=3, n_actions=2)
        product = compose(left, right)
        for state in reachable_states(product, max_states=2_000):
            sig = product.signature(state)
            hidden_after = hide_signature(sig, sig.outputs)
            # Hiding *all* outputs componentwise then composing gives the
            # same partition (no output matching can occur afterwards).
            left_hidden = hide_signature(left.signature(state[0]), sig.outputs)
            right_hidden = hide_signature(right.signature(state[1]), sig.outputs)
            composed_before = compose_signatures([left_hidden, right_hidden])
            assert hidden_after.all_actions == composed_before.all_actions
            assert hidden_after.internals == composed_before.internals


class TestRenamingLaws:
    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_rename_preserves_measure_through_bijection(self, seed):
        automaton = make(seed, n_states=4, n_actions=3)
        renamed = rename_psioa(automaton, lambda a: ("r", a))
        scheduler = bound_scheduler(DeterministicScheduler.greedy(), 4)
        original = execution_measure(automaton, scheduler)
        image = execution_measure(renamed, scheduler)

        def rename_execution(execution):
            return Fragment(
                execution.states, tuple(("r", a) for a in execution.actions)
            )

        assert total_variation(original.map(rename_execution), image) == 0

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_lemma_a1_renamed_automata_valid(self, seed):
        automaton = make(seed, n_states=4, n_actions=3)
        validate_psioa(rename_psioa(automaton, lambda a: ("r", a)), states=range(4))

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_rename_roundtrip_identity(self, seed):
        automaton = make(seed, n_states=4, n_actions=3)
        back = rename_psioa(
            rename_psioa(automaton, lambda a: ("r", a)), lambda a: a[1], name="back"
        )
        for state in range(4):
            assert back.signature(state) == automaton.signature(state)


class TestIntrinsicTransitionLaws:
    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_mass_conserved_and_outcomes_reduced(self, seed):
        rng = Generator(seed)
        automaton = random_psioa(("C", seed), rng, n_states=4, n_actions=3)
        config = Configuration.initial([automaton]).reduce()
        if len(config) == 0:
            return  # degenerate: start state already empty-signature
        for action in sorted(config.signature().all_actions, key=repr):
            eta = intrinsic_transition(config, action)
            assert eta.total_mass == 1
            for outcome in eta.support():
                assert outcome.is_reduced()

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_creation_adds_member_at_start(self, seed):
        spawner = ticker(("sp", seed), 1, action=("go", seed))
        child = fair_coin(("child", seed))
        config = Configuration.initial([spawner])
        eta = intrinsic_transition(config, ("go", seed), created=[child])
        for outcome in eta.support():
            if ("child", seed) in outcome.ids():
                assert outcome.state_of(("child", seed)) == child.start
