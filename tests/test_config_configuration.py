"""Tests for configurations and configuration transitions (Defs 2.9-2.14)."""

import pickle
from fractions import Fraction

import pytest

from repro.config.configuration import Configuration
from repro.config.transitions import intrinsic_transition, preserving_transition
from repro.core.psioa import PsioaError
from repro.core.signature import Signature

from tests.helpers import coin_automaton, fair_coin, listener, ticker


def tagged_coin(i, p=Fraction(1, 2)):
    """A coin with per-instance action names so several can coexist."""
    return coin_automaton(
        ("coin", i), p, toss=("toss", i), head=("head", i), tail=("tail", i)
    )


class TestConfiguration:
    def test_initial_places_automata_at_start(self):
        coin = fair_coin()
        ear = listener("ear", {"toss"})
        config = Configuration.initial([coin, ear])
        assert config.state_of(coin) == "q0"
        assert config.state_of("ear") == "s"
        assert config.ids() == {"fair", "ear"}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(PsioaError):
            Configuration([(fair_coin("x"), "q0"), (fair_coin("x"), "qH")])

    def test_intrinsic_signature(self):
        # Definition 2.11: out(C) union of outputs, in(C) = union inputs - out(C).
        coin = fair_coin()
        ear = listener("ear", {"toss", "other"})
        config = Configuration.initial([coin, ear])
        sig = config.signature()
        assert sig.outputs == {"toss"}
        assert sig.inputs == {"other"}

    def test_incompatible_configuration_detected(self):
        a = ticker("a", 1, action="x")
        b = ticker("b", 1, action="x")
        config = Configuration.initial([a, b])
        assert not config.is_compatible()
        with pytest.raises(PsioaError):
            config.signature()

    def test_reduce_drops_empty_signature_members(self):
        coin = fair_coin()
        config = Configuration([(coin, "qF"), (listener("ear", {"x"}), "s")])
        assert not config.is_reduced()
        reduced = config.reduce()
        assert reduced.ids() == {"ear"}
        assert reduced.is_reduced()

    def test_union_requires_disjoint_ids(self):
        c1 = Configuration.initial([fair_coin("a")])
        c2 = Configuration.initial([fair_coin("b")])
        merged = c1.union(c2)
        assert merged.ids() == {"a", "b"}
        with pytest.raises(PsioaError):
            merged.union(c1)

    def test_restrict(self):
        config = Configuration.initial([fair_coin("a"), fair_coin("b")])
        assert config.restrict(["a"]).ids() == {"a"}

    def test_replace_states(self):
        coin = fair_coin()
        config = Configuration.initial([coin])
        moved = config.replace_states({"fair": "qH"})
        assert moved.state_of(coin) == "qH"
        assert config.state_of(coin) == "q0"  # immutability

    def test_value_equality_and_hash(self):
        c1 = Configuration.initial([fair_coin(), listener("ear", {"x"})])
        c2 = Configuration([(listener("ear", {"x"}), "s"), (fair_coin(), "q0")])
        assert c1 == c2
        assert hash(c1) == hash(c2)
        assert len({c1, c2}) == 1

    def test_memoized_repr_unchanged_and_survives_pickle(self):
        config = Configuration.initial([fair_coin(), listener("ear", {"x"})])
        expected = "Configuration('ear'@'s', 'fair'@'q0')"
        assert repr(config) == expected
        assert repr(config) is repr(config)
        for original in (config, Configuration.initial([fair_coin(), listener("ear", {"x"})])):
            # Once with the memo filled, once empty.
            restored = pickle.loads(pickle.dumps(original))
            assert restored == config
            assert repr(restored) == expected

    def test_empty_configuration(self):
        empty = Configuration.empty()
        assert len(empty) == 0
        assert empty.signature().is_empty
        assert empty.is_reduced()


class TestPreservingTransition:
    def test_single_mover(self):
        coin = fair_coin()
        ear = listener("ear", {"toss", "head", "tail"})
        config = Configuration.initial([coin, ear])
        eta = preserving_transition(config, "toss")
        heads = config.replace_states({"fair": "qH"})
        tails = config.replace_states({"fair": "qT"})
        assert eta(heads) == Fraction(1, 2)
        assert eta(tails) == Fraction(1, 2)

    def test_automaton_set_preserved(self):
        coin = fair_coin()
        config = Configuration.initial([coin, listener("ear", {"toss"})])
        eta = preserving_transition(config, "toss")
        for outcome in eta.support():
            assert outcome.ids() == config.ids()

    def test_shared_action_moves_all_participants(self):
        # The listener shares the coin's output and must step synchronously.
        coin = coin_automaton("det", 1)
        fwd = listener("ear", {"toss"})
        config = Configuration.initial([coin, fwd])
        eta = preserving_transition(config, "toss")
        (outcome,) = eta.support()
        assert outcome.state_of("det") == "qH"
        assert outcome.state_of("ear") == "s"

    def test_action_outside_signature_rejected(self):
        config = Configuration.initial([fair_coin()])
        with pytest.raises(PsioaError):
            preserving_transition(config, "nonsense")

    def test_incompatible_configuration_rejected(self):
        config = Configuration.initial([ticker("a", 1, action="x"), ticker("b", 1, action="x")])
        with pytest.raises(PsioaError):
            preserving_transition(config, "x")


class TestIntrinsicTransition:
    def test_no_creation_no_destruction_matches_preserving(self):
        coin = fair_coin()
        config = Configuration.initial([coin, listener("ear", {"toss", "head", "tail"})])
        assert intrinsic_transition(config, "toss") == preserving_transition(config, "toss")

    def test_creation_adds_automaton_at_start_state(self):
        spawner = ticker("spawner", 1, action="spawn")
        config = Configuration.initial([spawner])
        worker = tagged_coin(0)
        eta = intrinsic_transition(config, "spawn", created=[worker])
        # Spawner reaches state 1 (empty signature) and is destroyed; the
        # fresh coin joins at its start state.
        (outcome,) = eta.support()
        assert outcome.ids() == {("coin", 0)}
        assert outcome.state_of(("coin", 0)) == "q0"

    def test_destruction_merges_mass(self):
        # A deterministic coin announcing 'head' reaches qF (empty signature)
        # and is destroyed; the listener remains.
        coin = coin_automaton("det", 1)
        ear = listener("ear", {("noop",)})
        config = Configuration([(coin, "qH"), (ear, "s")])
        eta = intrinsic_transition(config, "head")
        (outcome,) = eta.support()
        assert outcome.ids() == {"ear"}
        assert eta(outcome) == 1

    def test_probabilistic_destruction(self):
        # Coin at q0: after 'toss' both branches stay alive (qH, qT non-empty).
        coin = fair_coin()
        config = Configuration.initial([coin])
        eta = intrinsic_transition(config, "toss")
        assert len(eta.support()) == 2

    def test_creation_set_must_be_fresh(self):
        coin = fair_coin()
        config = Configuration.initial([coin])
        with pytest.raises(PsioaError, match="overlaps"):
            intrinsic_transition(config, "toss", created=[fair_coin()])

    def test_duplicate_creation_ids_rejected(self):
        config = Configuration.initial([ticker("t", 1, action="go")])
        with pytest.raises(PsioaError, match="duplicate"):
            intrinsic_transition(config, "go", created=[tagged_coin(1), tagged_coin(1)])

    def test_requires_reduced_configuration(self):
        coin = fair_coin()
        not_reduced = Configuration([(coin, "qF"), (ticker("t", 1, action="go"), 0)])
        with pytest.raises(PsioaError, match="reduced"):
            intrinsic_transition(not_reduced, "go")

    def test_created_automaton_with_immediately_empty_signature_is_destroyed(self):
        # Creating an automaton already at an empty-signature start state is
        # a no-op after reduction (Definition 2.14's eta_r).
        from repro.core.psioa import TablePSIOA

        husk = TablePSIOA("husk", "dead", {"dead": Signature()}, {})
        config = Configuration.initial([ticker("t", 1, action="go")])
        eta = intrinsic_transition(config, "go", created=[husk])
        (outcome,) = eta.support()
        assert "husk" not in outcome.ids()
