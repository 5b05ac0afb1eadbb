"""The implementation search on a sequence schema's prefix tree against the
same schema listed member by member.

Without a witness, :func:`implements` and :func:`implementation_distance`
walk a :func:`sequence_schema`'s prefix tree and never list the members
below a node with no leaves.  The reference is the same schema with its
tree taken away (``SchedulerSchema(name, members, contains)``), which runs
the search over every member through :func:`sequence_measures`.  Both must
give the same distance (value and type), and the same verdict, distance and
counterexample at every epsilon.  The properties run on random PSIOA pairs
with exact and float weights, bounds ``q1 != q2`` and alphabets with actions
that are never enabled, so that most of the tree lies below dead nodes.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.psioa import TablePSIOA
from repro.probability.measures import DiscreteMeasure
from repro.probability.rng import Generator
from repro.secure.implementation import implementation_distance, implements
from repro.semantics.insight import accept_insight, compose_world, trace_insight
from repro.semantics.schema import SchedulerSchema, sequence_schema
from repro.semantics.scheduler import ActionSequenceScheduler
from repro.systems.factory import random_psioa

SEEDS = st.integers(min_value=0, max_value=10_000)
BOUNDS = st.integers(min_value=0, max_value=3)
INSIGHTS = st.sampled_from([trace_insight(), accept_insight(("S", 0))])
#: Actions no automaton here ever enables.
NEVER = [("never", 0), ("never", 1)]


def floated(automaton):
    transitions = {
        key: DiscreteMeasure({target: float(w) for target, w in eta.items()})
        for key, eta in automaton.transitions.items()
    }
    return TablePSIOA(automaton.name, automaton.start, automaton.signatures, transitions)


def universe(seed, exact):
    """Two systems over one alphabet, an environment over its own, and the
    alphabet of both with the never-enabled actions mixed in."""
    rng = Generator(seed)
    first, second = (
        random_psioa((side, seed), rng, n_states=3, n_actions=2, action_prefix="S")
        for side in ("A", "B")
    )
    env = random_psioa("E", rng, n_states=2, n_actions=2, action_prefix="X")
    if not exact:
        first, second = floated(first), floated(second)
    alphabet = [("S", 0), NEVER[0], ("X", 0), ("S", 1), NEVER[1], ("X", 1)]
    return first, second, [env], alphabet


def schemas(alphabet, local_only):
    walked = sequence_schema("seq", alphabet, local_only=local_only)
    listed = SchedulerSchema(walked.name, walked.members, walked.contains)
    assert walked.tree is not None and listed.tree is None
    return walked, listed


def epsilons(distance):
    """Below, at and above ``distance``, and the extremes."""
    return [0, distance / 2, distance, distance + Fraction(1, 16), 1]


class TestAgainstEveryMember:
    @given(SEEDS, st.booleans(), st.booleans(), BOUNDS, BOUNDS, INSIGHTS)
    @settings(max_examples=40, deadline=None)
    def test_search_matches(self, seed, exact, local_only, q1, q2, insight):
        first, second, environments, alphabet = universe(seed, exact)
        walked, listed = schemas(alphabet, local_only)
        kw = dict(insight=insight, environments=environments, q1=q1, q2=q2)
        expected = implementation_distance(first, second, schema=listed, **kw)
        got = implementation_distance(first, second, schema=walked, **kw)
        assert (got, type(got)) == (expected, type(expected))
        for epsilon in epsilons(expected):
            reference = implements(first, second, schema=listed, epsilon=epsilon, **kw)
            result = implements(first, second, schema=walked, epsilon=epsilon, **kw)
            assert result.holds == reference.holds
            assert (result.distance, type(result.distance)) == (
                reference.distance,
                type(reference.distance),
            )
            assert result.counterexample == reference.counterexample

    @given(SEEDS, st.booleans(), BOUNDS, BOUNDS)
    @settings(max_examples=15, deadline=None)
    def test_witness_sees_every_member(self, seed, exact, q1, q2):
        # A witness depends on sigma itself, so nothing is skipped.
        first, second, environments, alphabet = universe(seed, exact)
        walked, listed = schemas(alphabet, local_only=True)
        asked = {"walked": [], "listed": []}

        def witness_for(side):
            def witness(env, scheduler):
                asked[side].append(scheduler.sequence)
                return ActionSequenceScheduler(scheduler.sequence[:q2], local_only=True)

            return witness

        kw = dict(insight=trace_insight(), environments=environments, q1=q1, q2=q2)
        got = implementation_distance(
            first, second, schema=walked, witness=witness_for("walked"), **kw
        )
        expected = implementation_distance(
            first, second, schema=listed, witness=witness_for("listed"), **kw
        )
        assert (got, type(got)) == (expected, type(expected))
        members = [s.sequence for s in walked(compose_world(environments[0], first), q1)]
        assert asked["walked"] == asked["listed"] == members
