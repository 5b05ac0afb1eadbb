"""Property-based checks of the bounds lemmas over random automata.

Generalizes E1/E3 from a size sweep to hypothesis-driven random workloads:
the composition and hiding constants must stay below the universal
ceilings for *every* generated automaton pair, not just the benchmarked
sizes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounded.bounds import (
    composition_constant,
    hiding_constant,
    measure_time_bound,
    recognizer_bound,
)
from repro.core.composition import compose
from repro.core.renaming import hide_psioa
from repro.probability.rng import Generator
from repro.systems.factory import random_psioa

SEEDS = st.integers(min_value=0, max_value=5_000)


def pair(seed, n=4):
    rng = Generator(seed)
    left = random_psioa(("bL", seed), rng, n_states=n, n_actions=3)
    right = random_psioa(("bR", seed), rng, n_states=n, n_actions=3)
    return left, right


class TestLemma43Property:
    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_composition_constant_universally_bounded(self, seed):
        left, right = pair(seed)
        b1 = measure_time_bound(left, states=range(4))
        b2 = measure_time_bound(right, states=range(4))
        states = [(a, b) for a in range(4) for b in range(4)]
        b12 = measure_time_bound(compose(left, right), states=states)
        assert composition_constant([b1, b2], b12) <= 8.0

    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_composed_bound_at_least_max_component(self, seed):
        left, right = pair(seed)
        b1 = measure_time_bound(left, states=range(4))
        b2 = measure_time_bound(right, states=range(4))
        states = [(a, b) for a in range(4) for b in range(4)]
        b12 = measure_time_bound(compose(left, right), states=states)
        assert b12 >= max(b1, b2)


class TestLemma45Property:
    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_hiding_constant_universally_bounded(self, seed):
        rng = Generator(seed)
        automaton = random_psioa(("bh", seed), rng, n_states=4, n_actions=3)
        outputs = sorted(
            {a for sig in automaton.signatures.values() for a in sig.outputs}, key=repr
        )
        b = measure_time_bound(automaton, states=range(4))
        b_prime = recognizer_bound(outputs)
        hidden = hide_psioa(automaton, lambda q: set(outputs))
        bh = measure_time_bound(hidden, states=range(4))
        assert hiding_constant(b, b_prime, bh) <= 2.0

    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_hiding_preserves_part_encodings(self, seed):
        # Hiding only moves signature components; the *automaton parts*
        # (Definition 4.1 item 1 — state/action/transition encodings) are
        # untouched.  Decoder costs may shift slightly (the signature scan
        # order changes), which is exactly why the lemma states a ratio
        # bound rather than equality.
        from repro.bounded.encoding import encoded_length, transition_length

        rng = Generator(seed)
        automaton = random_psioa(("bi", seed), rng, n_states=4, n_actions=3)
        outputs = {a for sig in automaton.signatures.values() for a in sig.outputs}
        hidden = hide_psioa(automaton, lambda q: outputs)
        for state in range(4):
            assert encoded_length(state) == encoded_length(state)
            for action in automaton.signature(state).all_actions:
                assert action in hidden.signature(state).all_actions
                assert transition_length(
                    state, action, automaton.transition(state, action)
                ) == transition_length(state, action, hidden.transition(state, action))
