"""Tests for strong probabilistic simulation relations (Segala lineage)."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.simulation import (
    is_strong_simulation,
    lifting_feasible,
    simulation_counterexample,
)
from repro.core.psioa import TablePSIOA
from repro.core.signature import Signature
from repro.probability.measures import DiscreteMeasure, dirac, uniform
from repro.semantics.balance import perception_distance
from repro.semantics.insight import trace_insight
from repro.semantics.scheduler import ActionSequenceScheduler
from repro.systems.coin import coin

from tests.helpers import fair_coin


class TestLifting:
    def test_identical_measures_identity_relation(self):
        eta = uniform(["a", "b"])
        assert lifting_feasible(eta, eta, lambda x, y: x == y)

    def test_full_relation_always_feasible(self):
        eta = uniform(["a", "b"])
        theta = DiscreteMeasure({"x": Fraction(1, 3), "y": Fraction(2, 3)})
        assert lifting_feasible(eta, theta, lambda x, y: True)

    def test_empty_relation_infeasible(self):
        eta = dirac("a")
        theta = dirac("x")
        assert not lifting_feasible(eta, theta, lambda x, y: False)

    def test_split_state_coupling(self):
        # eta splits one outcome of theta into two halves.
        eta = DiscreteMeasure({"h1": Fraction(1, 4), "h2": Fraction(1, 4), "t": Fraction(1, 2)})
        theta = DiscreteMeasure({"H": Fraction(1, 2), "T": Fraction(1, 2)})
        related = lambda x, y: (x in ("h1", "h2") and y == "H") or (x == "t" and y == "T")
        assert lifting_feasible(eta, theta, related)

    def test_weight_mismatch_infeasible(self):
        eta = DiscreteMeasure({"h": Fraction(3, 4), "t": Fraction(1, 4)})
        theta = DiscreteMeasure({"H": Fraction(1, 2), "T": Fraction(1, 2)})
        related = lambda x, y: (x, y) in {("h", "H"), ("t", "T")}
        assert not lifting_feasible(eta, theta, related)

    def test_partial_bipartite_needs_enough_capacity(self):
        # h can map to H only; t to H or T: feasible iff weights fit.
        eta = DiscreteMeasure({"h": Fraction(1, 4), "t": Fraction(3, 4)})
        theta = DiscreteMeasure({"H": Fraction(1, 2), "T": Fraction(1, 2)})
        related = lambda x, y: (x, y) in {("h", "H"), ("t", "H"), ("t", "T")}
        assert lifting_feasible(eta, theta, related)
        related_tight = lambda x, y: (x, y) in {("h", "H"), ("t", "T")}
        assert not lifting_feasible(eta, theta, related_tight)


def hall_violations(eta_a, eta_b, relation):
    """Every subset S of supp(eta_a) with eta_a(S) > eta_b(R(S)).

    By Hall/Strassen, a coupling supported on ``relation`` exists iff the
    total masses agree and this list is empty."""
    points = sorted(eta_a.support(), key=repr)
    violations = []
    for size in range(1, len(points) + 1):
        for subset in combinations(points, size):
            image = {y for y in eta_b.support() if any((x, y) in relation for x in subset)}
            if sum(eta_a(x) for x in subset) > sum((eta_b(y) for y in image), Fraction(0)):
                violations.append(subset)
    return violations


def hall_feasible(eta_a, eta_b, relation):
    return eta_a.total_mass == eta_b.total_mass and not hall_violations(
        eta_a, eta_b, relation
    )


@st.composite
def lifting_instances(draw):
    """Supports of <= 5 points with random Fraction weights and a random
    relation, in one of three shapes: two independent probability
    measures; two measures of (usually) unequal mass; or eta_B the second
    marginal of a random coupling on the relation (feasible by
    construction) with the smallest unit of mass then maybe moved between
    two points of eta_B.  Those near-tight instances are where a single
    Hall subset decides the answer."""
    size_a = draw(st.integers(1, 5))
    size_b = draw(st.integers(1, 5))
    left = [f"a{i}" for i in range(size_a)]
    right = [f"b{j}" for j in range(size_b)]
    relation = {(x, y) for x in left for y in right if draw(st.booleans())}
    unit = Fraction(1, draw(st.integers(1, 12)))
    shape = draw(st.sampled_from(("independent", "unequal", "coupled")))
    if shape != "coupled":
        weights_a = {x: unit * draw(st.integers(1, 4)) for x in left}
        weights_b = {y: unit * draw(st.integers(1, 4)) for y in right}
        if shape == "independent":
            return (_measure(weights_a), _measure(weights_b)), relation
        largest = max(sum(weights_a.values()), sum(weights_b.values()))
        return (_measure(weights_a, largest), _measure(weights_b, largest)), relation
    relation.add((left[0], right[0]))
    joint = {pair: unit * draw(st.integers(0, 3)) for pair in sorted(relation)}
    weights_a = {x: sum((w for (a, _), w in joint.items() if a == x), Fraction(0)) for x in left}
    weights_b = {y: sum((w for (_, b), w in joint.items() if b == y), Fraction(0)) for y in right}
    donor, taker = draw(st.sampled_from(right)), draw(st.sampled_from(right))
    if weights_b[donor] >= unit:
        weights_b[donor] -= unit
        weights_b[taker] += unit
    largest = max(sum(weights_a.values()), 1)
    return (_measure(weights_a, largest), _measure(weights_b, largest)), relation


def _measure(weights, scale=None):
    """``weights`` divided by ``scale`` (default: their sum) as a measure."""
    scale = scale or sum(weights.values())
    return DiscreteMeasure({x: w / scale for x, w in weights.items()}, require_probability=False)


# Singletons pass Hall's condition, but S = {a0, a1} needs 2/3 from b0 alone.
HINGE_A = DiscreteMeasure({"a0": Fraction(1, 3), "a1": Fraction(1, 3), "a2": Fraction(1, 3)})
HINGE_B = DiscreteMeasure({"b0": Fraction(1, 2), "b1": Fraction(1, 2)})
HINGE_R = {("a0", "b0"), ("a1", "b0"), ("a2", "b0"), ("a2", "b1")}


class TestLiftingAgainstHallOracle:
    def test_instance_hinging_on_one_subset(self):
        assert hall_violations(HINGE_A, HINGE_B, HINGE_R) == [("a0", "a1")]
        assert not lifting_feasible(HINGE_A, HINGE_B, lambda x, y: (x, y) in HINGE_R)
        # Move 1/6 onto b0 and the same subset becomes exactly tight.
        tight_b = DiscreteMeasure({"b0": Fraction(2, 3), "b1": Fraction(1, 3)})
        assert hall_violations(HINGE_A, tight_b, HINGE_R) == []
        assert lifting_feasible(HINGE_A, tight_b, lambda x, y: (x, y) in HINGE_R)

    @given(lifting_instances())
    @settings(max_examples=300, deadline=None)
    @example(((HINGE_A, HINGE_B), HINGE_R))
    @example(
        (
            (
                _measure({"a0": Fraction(1, 2)}, 1),
                _measure({"b0": Fraction(1, 3)}, 1),
            ),
            {("a0", "b0")},
        )
    )
    def test_matches_brute_force_hall_check(self, instance):
        (eta_a, eta_b), relation = instance
        assert lifting_feasible(eta_a, eta_b, lambda x, y: (x, y) in relation) == (
            hall_feasible(eta_a, eta_b, relation)
        )


def split_coin(name="split"):
    """A fair coin whose heads branch passes through two intermediate
    states — a refinement of the plain coin."""
    signatures = {
        "q0": Signature(outputs={"toss"}),
        "qH1": Signature(outputs={"head"}),
        "qH2": Signature(outputs={"head"}),
        "qT": Signature(outputs={"tail"}),
        "qF": Signature(),
    }
    transitions = {
        ("q0", "toss"): DiscreteMeasure(
            {"qH1": Fraction(1, 4), "qH2": Fraction(1, 4), "qT": Fraction(1, 2)}
        ),
        ("qH1", "head"): dirac("qF"),
        ("qH2", "head"): dirac("qF"),
        ("qT", "tail"): dirac("qF"),
    }
    return TablePSIOA(name, "q0", signatures, transitions)


REFINEMENT = {
    ("q0", "q0"),
    ("qH1", "qH"),
    ("qH2", "qH"),
    ("qT", "qT"),
    ("qF", "qF"),
}


class TestStrongSimulation:
    def test_identity_is_a_simulation(self):
        a = fair_coin("a")
        b = fair_coin("b")
        assert is_strong_simulation(a, b, lambda x, y: x == y)

    def test_refinement_simulation(self):
        assert is_strong_simulation(split_coin(), fair_coin(), REFINEMENT)

    def test_wrong_weights_rejected(self):
        biased = coin("biased", Fraction(3, 4))
        fair = fair_coin()
        witness = simulation_counterexample(
            biased, fair, lambda x, y: x == y
        )
        assert witness is not None
        assert "coupling" in witness

    def test_missing_action_rejected(self):
        fair = fair_coin()
        mute = TablePSIOA("mute", "q0", {"q0": Signature()}, {})
        witness = simulation_counterexample(fair, mute, lambda x, y: True)
        assert "enabled in A but not in B" in witness

    def test_unrelated_starts_rejected(self):
        a = fair_coin("a")
        b = fair_coin("b")
        witness = simulation_counterexample(a, b, lambda x, y: False)
        assert "start states" in witness

    def test_explicit_pairs_to_check(self):
        assert is_strong_simulation(
            split_coin(),
            fair_coin(),
            REFINEMENT,
            pairs_to_check=list(REFINEMENT),
        )

    def test_soundness_simulation_implies_equal_perception(self):
        """Related systems are indistinguishable: the observational reading
        of a simulation relation, checked via the exact semantics."""
        from tests.test_semantics_insight_balance import observer

        refined = split_coin()
        abstract = fair_coin()
        assert is_strong_simulation(refined, abstract, REFINEMENT)
        env = observer()
        sched = ActionSequenceScheduler(["toss", "head", "acc"], local_only=True)
        assert (
            perception_distance(
                trace_insight(), env, refined, sched, abstract, sched
            )
            == 0
        )
