"""The counting path of the cost model against its specification.

:func:`repro.bounded.costmodel.operation_counts` is what measures ``b``; the
reference decoders are the executable specification.  Every (q, a) the
counting path reports must carry exactly ``ReferenceDecoders.worst_case``
and ``transition_length``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounded.bounds import measure_pca_time_bound, measure_time_bound
from repro.bounded.costmodel import ReferenceDecoders, operation_counts
from repro.bounded.encoding import transition_length
from repro.config.pca import compose_pca
from repro.core.composition import compose
from repro.core.psioa import TablePSIOA, reachable_states
from repro.core.renaming import hide_psioa
from repro.core.signature import Signature
from repro.probability.measures import DiscreteMeasure, dirac
from repro.probability.rng import Generator
from repro.systems.coin import coin
from repro.systems.factory import random_psioa
from repro.systems.ledger import ledger_manager_pca, spawning_pca


def assert_counts_match(automaton):
    decoders = ReferenceDecoders(automaton)
    for state in reachable_states(automaton):
        counted = {}
        for action, eta, count, length in operation_counts(automaton, state):
            assert eta == automaton.transition(state, action)
            assert length == transition_length(state, action, eta)
            counted[action] = count
        expected = {
            action: decoders.worst_case(state, action)
            for action in automaton.signature(state).all_actions
        }
        assert counted == expected, state


class Twin:
    """Distinct values sharing one ``repr``, hence one encoding: a decoder
    looking up the second stops at the first."""

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        return isinstance(other, Twin) and other.tag == self.tag

    def __hash__(self):
        return hash(("twin", self.tag))

    def __repr__(self):
        return "twin"


def tied_automaton():
    """Candidates that tie on encoding length (one-character names), a
    transition with support 3, and twin actions and targets."""
    third = Fraction(1, 3)
    spread = DiscreteMeasure({"p": third, "q": third, "r": third})
    twins = DiscreteMeasure({Twin(0): Fraction(1, 2), Twin(1): Fraction(1, 2)})
    signatures = {
        "p": Signature(inputs={"b", "a"}, outputs={"d", "c"}, internals={"e"}),
        "q": Signature(outputs={"x", Twin("a"), Twin("b")}),
        "r": Signature(internals={"z"}),
        Twin(0): Signature(),
        Twin(1): Signature(inputs={"y"}),
    }
    transitions = {
        ("p", "a"): spread,
        ("p", "b"): dirac("q"),
        ("p", "c"): spread,
        ("p", "d"): dirac("p"),
        ("p", "e"): dirac("r"),
        ("q", "x"): twins,
        ("q", Twin("a")): dirac("p"),
        ("q", Twin("b")): twins,
        ("r", "z"): spread,
        (Twin(1), "y"): dirac("p"),
    }
    return TablePSIOA("tied", "p", signatures, transitions)


class TestCountingOracle:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_states=st.integers(min_value=1, max_value=6),
        n_actions=st.integers(min_value=1, max_value=5),
        branching=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_psioa_compositions_and_hidings(self, seed, n_states, n_actions, branching):
        rng = Generator(seed)
        left = random_psioa(
            ("cL", seed), rng, n_states=n_states, n_actions=n_actions, branching=min(branching, n_states)
        )
        right = random_psioa(("cR", seed), rng, n_states=3, n_actions=2)
        outputs = {a for sig in left.signatures.values() for a in sig.outputs}
        half = set(sorted(outputs, key=repr)[: len(outputs) // 2])
        for automaton in (
            left,
            compose(left, right),
            hide_psioa(left, lambda q: outputs),
            hide_psioa(compose(left, right), lambda q: half),
        ):
            assert_counts_match(automaton)

    @pytest.mark.parametrize("clients", [1, 2])
    def test_ledger_and_spawning_pca(self, clients):
        ledger = ledger_manager_pca(clients, name=("ledger", clients))
        spawner = spawning_pca(
            lambda: coin(("spawned-coin",), Fraction(1, 2)), name=("spawner", clients)
        )
        for pca in (ledger, spawner, compose_pca(ledger, spawner)):
            assert_counts_match(pca)

    def test_tied_lengths_wide_support_and_twins(self):
        automaton = tied_automaton()
        assert len(reachable_states(automaton)) == 5
        assert_counts_match(automaton)

    def test_transition_called_once_per_action(self):
        calls = []
        automaton = tied_automaton()
        automaton._transition = lambda q, a: calls.append((q, a)) or automaton.transitions[(q, a)]
        list(operation_counts(automaton, "p"))
        assert sorted(calls) == sorted(("p", a) for a in "abcde")


class TestPinnedFullModeRows:
    """Rows of the ``--full`` sweeps, recorded with the reference decoders."""

    def test_e1_row_n32(self):
        n = 32
        rng = Generator(100 + n)
        left = random_psioa(("L", n), rng, n_states=n, n_actions=n // 2)
        right = random_psioa(("R", n), rng, n_states=n, n_actions=n // 2)
        b1 = measure_time_bound(left, states=range(n))
        b2 = measure_time_bound(right, states=range(n))
        states = [(a, b) for a in range(n) for b in range(n)]
        b12 = measure_time_bound(compose(left, right), states=states)
        assert (b1, b2, b12) == (16676, 15775, 32239)

    def test_e2_row_three_clients(self):
        ledger = ledger_manager_pca(3, name=("ledger", 3))
        spawner = spawning_pca(
            lambda: coin(("spawned-coin",), Fraction(1, 2)), name=("spawner", 3)
        )
        b1 = measure_pca_time_bound(ledger)
        b2 = measure_pca_time_bound(spawner)
        b12 = measure_pca_time_bound(compose_pca(ledger, spawner))
        assert (b1, b2, b12) == (19962, 16430, 47879)
