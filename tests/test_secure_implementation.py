"""Tests for the approximate implementation relation (Def 4.12) and its
composability/transitivity (Lemmas 4.13-4.14, Theorems 4.15-4.16)."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounded.bounds import measure_time_bound
from repro.bounded.families import PSIOAFamily, compose_families
from repro.core.composition import compose
from repro.core.psioa import TablePSIOA
from repro.core.signature import Signature
from repro.obs import metrics
from repro.perf import cache as perf_cache
from repro.probability.measures import DiscreteMeasure, dirac, total_variation
from repro.secure.implementation import (
    ImplementationResult,
    family_implementation_profile,
    implementation_distance,
    implements,
    neg_pt_implements,
)
from repro.semantics.insight import accept_insight, compose_world, f_dist, trace_insight
from repro.semantics.schema import SchedulerSchema, oblivious_schema
from repro.semantics.scheduler import ActionSequenceScheduler

from tests.helpers import coin_automaton, listener, ticker


def observer(name="E", accept_on="head"):
    signatures = {
        "watch": Signature(inputs={"head", "tail"}),
        "happy": Signature(inputs={"head", "tail"}, outputs={"acc"}),
        "done": Signature(inputs={"head", "tail"}),
    }
    transitions = {
        ("watch", "head"): dirac("happy" if accept_on == "head" else "watch"),
        ("watch", "tail"): dirac("happy" if accept_on == "tail" else "watch"),
        ("happy", "head"): dirac("happy"),
        ("happy", "tail"): dirac("happy"),
        ("happy", "acc"): dirac("done"),
        ("done", "head"): dirac("done"),
        ("done", "tail"): dirac("done"),
    }
    return TablePSIOA(name, "watch", signatures, transitions)


def sequence_schema(name, alphabet):
    """Oblivious schedulers over ``alphabet``, locally controlled, shortest
    first."""

    def members(automaton, bound):
        for length in range(bound + 1):
            for seq in itertools.product(alphabet, repeat=length):
                yield ActionSequenceScheduler(seq, local_only=True)

    return SchedulerSchema(name, members)


ENVS = [observer()]
SCHEMA = sequence_schema("coin-oblivious", ["toss", "head", "tail", "acc"])
INSIGHT = accept_insight()


class TestImplements:
    def test_reflexive_at_zero(self):
        coin = coin_automaton("c", Fraction(1, 2))
        result = implements(
            coin,
            coin,
            schema=SCHEMA,
            insight=INSIGHT,
            environments=ENVS,
            q1=3,
            q2=3,
            epsilon=0,
        )
        assert result.holds
        assert result.distance == 0
        assert bool(result)

    def test_biased_coin_implements_fair_up_to_bias(self):
        fair = coin_automaton("fair", Fraction(1, 2))
        biased = coin_automaton("biased", Fraction(1, 2) + Fraction(1, 8))
        result = implements(
            biased,
            fair,
            schema=SCHEMA,
            insight=INSIGHT,
            environments=ENVS,
            q1=3,
            q2=3,
            epsilon=Fraction(1, 8),
        )
        assert result.holds

    def test_fails_below_true_distance(self):
        fair = coin_automaton("fair", Fraction(1, 2))
        biased = coin_automaton("biased", Fraction(3, 4))
        result = implements(
            biased,
            fair,
            schema=SCHEMA,
            insight=INSIGHT,
            environments=ENVS,
            q1=3,
            q2=3,
            epsilon=Fraction(1, 8),
        )
        assert not result.holds
        assert result.counterexample is not None

    def test_p_filter_excludes_large_environments(self):
        # With every environment filtered out, the relation holds vacuously.
        fair = coin_automaton("fair", Fraction(1, 2))
        det = coin_automaton("det", 1)
        result = implements(
            det,
            fair,
            schema=SCHEMA,
            insight=INSIGHT,
            environments=ENVS,
            q1=3,
            q2=3,
            epsilon=0,
            p=1,  # far below the observer's measured bound
        )
        assert result.holds

    def test_witness_shortcircuits_search(self):
        coin = coin_automaton("c", Fraction(1, 2))
        calls = []

        def witness(env, scheduler):
            calls.append(scheduler)
            return scheduler  # identity works for A == B

        result = implements(
            coin,
            coin,
            schema=SCHEMA,
            insight=INSIGHT,
            environments=ENVS,
            q1=2,
            q2=2,
            epsilon=0,
            witness=witness,
        )
        assert result.holds
        assert calls


class TestImplementationDistance:
    def test_distance_equals_bias(self):
        fair = coin_automaton("fair", Fraction(1, 2))
        biased = coin_automaton("biased", Fraction(3, 4))
        d = implementation_distance(
            biased,
            fair,
            schema=SCHEMA,
            insight=INSIGHT,
            environments=ENVS,
            q1=3,
            q2=3,
        )
        assert d == Fraction(1, 4)

    def test_theorem_416_transitivity(self):
        # d(A1,A3) <= d(A1,A2) + d(A2,A3) with matched bounds.
        a1 = coin_automaton("a1", Fraction(1, 2))
        a2 = coin_automaton("a2", Fraction(5, 8))
        a3 = coin_automaton("a3", Fraction(3, 4))
        kw = dict(schema=SCHEMA, insight=INSIGHT, environments=ENVS, q1=3, q2=3)
        d12 = implementation_distance(a1, a2, **kw)
        d23 = implementation_distance(a2, a3, **kw)
        d13 = implementation_distance(a1, a3, **kw)
        assert d13 <= d12 + d23

    def test_lemma_413_composability(self):
        # Composing a context A3 cannot increase the distance.
        fair = coin_automaton("fair", Fraction(1, 2))
        biased = coin_automaton("biased", Fraction(5, 8))
        context = ticker("ctx", 2, action="ctx-tick")
        kw = dict(schema=SCHEMA, insight=INSIGHT, environments=ENVS, q1=3, q2=3)
        d_bare = implementation_distance(biased, fair, **kw)
        d_composed = implementation_distance(
            compose(context, biased, name="cb"),
            compose(context, fair, name="cf"),
            **kw,
        )
        assert d_composed <= d_bare


class TestFamilies:
    def xor_coin_family(self, name, delta_exponent_offset=0):
        """Coin family with bias 2^-(k+offset): epsilon(k) negligible."""

        def build(k):
            bias = Fraction(1, 2 ** (k + delta_exponent_offset))
            return coin_automaton((name, k), Fraction(1, 2) + bias)

        return PSIOAFamily(name, build)

    def test_profile_decays_geometrically(self):
        fair = PSIOAFamily("fair", lambda k: coin_automaton(("fair", k), Fraction(1, 2)))
        biased = self.xor_coin_family("biased", 1)
        profile = family_implementation_profile(
            biased,
            fair,
            schema=SCHEMA,
            insight=INSIGHT,
            environment_family=lambda k: ENVS,
            q1=lambda k: 3,
            q2=lambda k: 3,
            ks=range(1, 6),
        )
        values = [v for _, v in profile]
        assert values == sorted(values, reverse=True)
        assert neg_pt_implements(profile)

    def test_constant_error_profile_not_negligible(self):
        fair = PSIOAFamily("fair", lambda k: coin_automaton(("fair", k), Fraction(1, 2)))
        skewed = PSIOAFamily("skewed", lambda k: coin_automaton(("skewed", k), Fraction(3, 4)))
        profile = family_implementation_profile(
            skewed,
            fair,
            schema=SCHEMA,
            insight=INSIGHT,
            environment_family=lambda k: ENVS,
            q1=lambda k: 3,
            q2=lambda k: 3,
            ks=range(1, 6),
        )
        assert not neg_pt_implements(profile)

    def test_theorem_415_family_composability(self):
        # Composing a polynomially-bounded context family preserves neg,pt.
        fair = PSIOAFamily("fair", lambda k: coin_automaton(("fair", k), Fraction(1, 2)))
        biased = self.xor_coin_family("biased", 1)
        context = PSIOAFamily("ctx", lambda k: ticker(("ctx", k), 1, action="ctx-tick"))
        profile = family_implementation_profile(
            compose_families(context, biased),
            compose_families(context, fair),
            schema=SCHEMA,
            insight=INSIGHT,
            environment_family=lambda k: ENVS,
            q1=lambda k: 3,
            q2=lambda k: 3,
            ks=range(1, 6),
        )
        assert neg_pt_implements(profile)


def _reference_distances(first, second, env, *, schema, insight, q1, q2, witness):
    """The quadratic loop: fresh worlds and every candidate unfolded again
    for each outer scheduler.  Yields ``(sigma, min_sigma' TV)``."""
    for scheduler in schema(compose_world(env, first), q1):
        if witness is not None:
            candidates = [witness(env, scheduler)]
        else:
            candidates = schema(compose_world(env, second), q2)
        dist_first = f_dist(insight, env, first, scheduler)
        best = None
        for candidate in candidates:
            d = total_variation(dist_first, f_dist(insight, env, second, candidate))
            if best is None or d < best:
                best = d
                if best <= 0:
                    break
        yield scheduler, best


def reference_implements(first, second, *, environments, epsilon, p=None, **kw):
    worst = 0
    for env in environments:
        if p is not None and measure_time_bound(env) > p:
            continue
        for scheduler, best in _reference_distances(first, second, env, **kw):
            if best is None or best > epsilon:
                return ImplementationResult(
                    holds=False,
                    epsilon=epsilon,
                    distance=best,
                    counterexample=(env.name, getattr(scheduler, "name", scheduler)),
                )
            worst = max(worst, best)
    return ImplementationResult(holds=True, epsilon=epsilon, distance=worst)


def reference_distance(first, second, *, environments, **kw):
    worst = 0
    for env in environments:
        for _scheduler, best in _reference_distances(first, second, env, **kw):
            if best is None:
                raise ValueError("scheduler schema produced no candidate sigma'")
            worst = max(worst, best)
    return worst


def _reversed_witness(env, scheduler):
    """A deliberately poor constructive witness: the reversed sequence."""
    return ActionSequenceScheduler(tuple(reversed(scheduler.sequence)), local_only=True)


class TestAgainstQuadraticReference:
    """Sharing the candidates' perceptions across the sigma loop changes how
    often they are computed, never the distance or the counterexample."""

    ENVS = [observer("E-head", accept_on="head"), observer("E-tail", accept_on="tail")]
    PAIRS = [
        (Fraction(3, 4), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(3, 4)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 3), 1),
    ]

    @pytest.fixture(params=["cache-on", "cache-off"])
    def cache(self, request):
        perf_cache.configure(enabled=request.param == "cache-on")

    @pytest.mark.parametrize("witness", [None, _reversed_witness], ids=["search", "witness"])
    @pytest.mark.parametrize("insight", [accept_insight(), trace_insight()], ids=["accept", "trace"])
    def test_distance_matches_reference(self, cache, insight, witness):
        for p_first, p_second in self.PAIRS:
            kw = dict(
                schema=SCHEMA,
                insight=insight,
                environments=self.ENVS,
                q1=3,
                q2=3,
                witness=witness,
            )
            first = coin_automaton("first", p_first)
            second = coin_automaton("second", p_second)
            expected = reference_distance(first, second, **kw)
            got = implementation_distance(first, second, **kw)
            assert (got, type(got)) == (expected, type(expected))

    @pytest.mark.parametrize("witness", [None, _reversed_witness], ids=["search", "witness"])
    @pytest.mark.parametrize(
        "epsilon", [0, Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)], ids=str
    )
    def test_implements_matches_reference(self, cache, epsilon, witness):
        for p_first, p_second in self.PAIRS:
            kw = dict(
                schema=SCHEMA,
                insight=INSIGHT,
                environments=self.ENVS,
                q1=3,
                q2=3,
                witness=witness,
                epsilon=epsilon,
            )
            first = coin_automaton("first", p_first)
            second = coin_automaton("second", p_second)
            assert implements(first, second, **kw) == reference_implements(first, second, **kw)


def two_coin(name, p1, p2):
    """Two coins behind one announcer: ``toss1`` lands heads w.p. ``p1``,
    ``toss2`` w.p. ``p2``; either is then announced as ``head``/``tail``."""

    def land(p):
        return DiscreteMeasure({"qH": p, "qT": 1 - p})

    signatures = {
        "q0": Signature(outputs={"toss1", "toss2"}),
        "qH": Signature(outputs={"head"}),
        "qT": Signature(outputs={"tail"}),
        "qF": Signature(),
    }
    transitions = {
        ("q0", "toss1"): land(p1),
        ("q0", "toss2"): land(p2),
        ("qH", "head"): dirac("qF"),
        ("qT", "tail"): dirac("qF"),
    }
    return TablePSIOA(name, "q0", signatures, transitions)


TWO_COIN_SCHEMA = sequence_schema("two-coin", ["toss1", "toss2", "head", "tail", "acc"])


def distinct_perceptions(insight, env, automaton, bound, schema):
    world = compose_world(env, automaton)
    return {
        frozenset(f_dist(insight, env, automaton, s, world=world).items())
        for s in schema(world, bound)
    }


class TestPruningAndMemo:
    """Pruning each sigma's scan at the running max, scoring each distinct
    perception once and reusing a scanned sigma's result never change the
    distance or the counterexample (the quadratic loop is the oracle)."""

    ENVS = TestAgainstQuadraticReference.ENVS

    @pytest.fixture(params=["cache-on", "cache-off"])
    def cache(self, request):
        perf_cache.configure(enabled=request.param == "cache-on")

    @pytest.mark.parametrize("insight", [accept_insight(), trace_insight()], ids=["accept", "trace"])
    def test_late_worst_sigma(self, cache, insight):
        # toss1 differs by 1/8 and comes first in schema order; toss2
        # differs by 1/4 and comes later, so the toss2 sigmas are scanned
        # after the running max is already 1/8.
        first = two_coin("first", Fraction(5, 8), Fraction(3, 4))
        second = two_coin("second", Fraction(1, 2), Fraction(1, 2))
        kw = dict(schema=TWO_COIN_SCHEMA, insight=insight, environments=self.ENVS, q1=3, q2=3)
        expected = reference_distance(first, second, witness=None, **kw)
        assert expected == Fraction(1, 4)
        got = implementation_distance(first, second, **kw)
        assert (got, type(got)) == (expected, type(expected))
        for epsilon in [0, Fraction(1, 8), Fraction(3, 16), Fraction(1, 4)]:
            result = implements(first, second, epsilon=epsilon, **kw)
            assert result == reference_implements(
                first, second, epsilon=epsilon, witness=None, **kw
            )
        failed = implements(first, second, epsilon=Fraction(3, 16), **kw)
        assert failed.distance == Fraction(1, 4)
        assert "toss2" in str(failed.counterexample)

    def test_scan_stops_only_within_running_max(self, cache):
        # Under E-head, the toss1 sigma sets the running max to 1/8.  The
        # toss2 sigma (11/16) then meets a candidate at 3/16 before the one
        # at 1/16: stopping anywhere above 1/8 would report 3/16.
        first = two_coin("first", Fraction(5, 8), Fraction(11, 16))
        second = two_coin("second", Fraction(1, 2), Fraction(3, 4))
        kw = dict(schema=TWO_COIN_SCHEMA, insight=INSIGHT, environments=self.ENVS, q1=3, q2=3)
        assert implementation_distance(first, second, **kw) == Fraction(1, 8)
        assert reference_distance(first, second, witness=None, **kw) == Fraction(1, 8)

    def test_many_sigma_share_one_perception(self, cache):
        first = coin_automaton("first", Fraction(3, 4))
        second = coin_automaton("second", Fraction(1, 2))
        env = observer()
        world = compose_world(env, first)
        n_sigma = len(list(SCHEMA(world, 3)))
        n_first = len(distinct_perceptions(INSIGHT, env, first, 3, SCHEMA))
        n_second = len(distinct_perceptions(INSIGHT, env, second, 3, SCHEMA))
        assert n_first * n_second < n_sigma
        kw = dict(schema=SCHEMA, insight=INSIGHT, environments=[env], q1=3, q2=3)
        calls = metrics.counter("secure.tv.calls")
        before = calls.value
        got = implementation_distance(first, second, **kw)
        assert got == reference_distance(first, second, witness=None, **kw)
        assert calls.value - before <= n_first * n_second

    @settings(max_examples=20, deadline=None)
    @given(
        biases=st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=8), min_size=4, max_size=4
        ),
        epsilon=st.fractions(min_value=0, max_value=1, max_denominator=16),
        trace=st.booleans(),
        cache_on=st.booleans(),
    )
    def test_matches_reference_on_random_biases(self, biases, epsilon, trace, cache_on):
        perf_cache.configure(enabled=cache_on)
        first = two_coin("first", *biases[:2])
        second = two_coin("second", *biases[2:])
        insight = trace_insight() if trace else INSIGHT
        kw = dict(schema=TWO_COIN_SCHEMA, insight=insight, environments=self.ENVS, q1=3, q2=3)
        expected = reference_distance(first, second, witness=None, **kw)
        got = implementation_distance(first, second, **kw)
        assert (got, type(got)) == (expected, type(expected))
        result = implements(first, second, epsilon=epsilon, **kw)
        reference = reference_implements(first, second, epsilon=epsilon, witness=None, **kw)
        assert result == reference
        assert type(result.distance) is type(reference.distance)

    @pytest.mark.parametrize(
        "outer, candidates, deduped",
        [
            # Candidates far closer than FLOAT_TOLERANCE, the later one
            # strictly closer to the outer coin.
            (0.75, (0.5, 0.5 + 1e-12), 0.25),
            # Equal values, float then exact: only the exact one scores 1/6.
            (Fraction(1, 3), (0.5, Fraction(1, 2)), 0.5 - Fraction(1, 3)),
        ],
        ids=["within-tolerance", "float-vs-fraction"],
    )
    def test_equal_but_not_identical_perceptions_both_scored(self, outer, candidates, deduped):
        # The two candidates' perceptions are DiscreteMeasure-equal.  Scoring
        # only the first, as a dedup on that equality would, gives
        # ``deduped``; the exact key scores both, as the reference does.
        first = two_coin("first", outer, outer)
        second = two_coin("second", *candidates)
        env = observer()
        world = compose_world(env, second)
        one, other = (
            f_dist(INSIGHT, env, second, ActionSequenceScheduler(seq, local_only=True), world=world)
            for seq in [("toss1", "head", "acc"), ("toss2", "head", "acc")]
        )
        assert one == other
        kw = dict(schema=TWO_COIN_SCHEMA, insight=INSIGHT, environments=[env], q1=3, q2=3)
        expected = reference_distance(first, second, witness=None, **kw)
        assert (expected, type(expected)) != (deduped, type(deduped))
        got = implementation_distance(first, second, **kw)
        assert (got, type(got)) == (expected, type(expected))


class TestUnfoldBudget:
    def test_each_perception_unfolded_once(self):
        # One environment: Sch_q1(E||A) perceptions plus at most every
        # Sch_q2(E||B) candidate, never one candidate per outer scheduler.
        perf_cache.configure(enabled=False)
        biased = coin_automaton("biased", Fraction(3, 4))
        fair = coin_automaton("fair", Fraction(1, 2))
        env = observer()
        q1 = q2 = 3
        n_first = len(list(SCHEMA(compose_world(env, biased), q1)))
        n_second = len(list(SCHEMA(compose_world(env, fair), q2)))
        unfolds = metrics.counter("measure.unfold.calls")
        before = unfolds.value
        d = implementation_distance(
            biased, fair, schema=SCHEMA, insight=INSIGHT, environments=[env], q1=q1, q2=q2
        )
        assert d == Fraction(1, 4)
        assert unfolds.value - before <= n_first + n_second


class TestEmptyCandidateSchema:
    # Schedulers for q1 > 0 only: with q2 = 0 no sigma' exists at all.
    SCHEMA = SchedulerSchema(
        "no-q0", lambda automaton, bound: SCHEMA(automaton, bound) if bound > 0 else iter(())
    )

    def test_distance_raises(self):
        coin = coin_automaton("c", Fraction(1, 2))
        with pytest.raises(ValueError, match="no candidate"):
            implementation_distance(
                coin, coin, schema=self.SCHEMA, insight=INSIGHT, environments=ENVS, q1=1, q2=0
            )

    def test_implements_fails(self):
        coin = coin_automaton("c", Fraction(1, 2))
        result = implements(
            coin,
            coin,
            schema=self.SCHEMA,
            insight=INSIGHT,
            environments=ENVS,
            q1=1,
            q2=0,
            epsilon=1,
        )
        assert not result.holds
        assert result.distance is None
        assert result.counterexample is not None
