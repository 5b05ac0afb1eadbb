"""Property-based tests of the per-automaton transition memo.

The contract under test (see ``docs/performance.md``):

* a memoized transition is the very object the automaton's transition
  function returned, and equal to an unmemoized one;
* an unfolding is identical with the memo on and off;
* with the memo off (``configure(enabled=False)``) no automaton fills one;
* the memo lives and dies with its automaton, and never rides a pickle;
* the bound-measuring cost model, which asks for each ``(q, a)`` once,
  leaves the memo of the automaton it measures empty.
"""

import gc
import pickle
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounded.costmodel import operation_counts
from repro.core.composition import compose
from repro.core.psioa import PSIOA, reachable_states
from repro.obs import metrics
from repro.perf import cache as perf_cache
from repro.probability.rng import Generator
from repro.semantics.measure import execution_measure
from repro.semantics.scheduler import DeterministicScheduler, bound_scheduler
from repro.systems.factory import random_psioa

from tests.helpers import coin_automaton

SEEDS = st.integers(min_value=0, max_value=10_000)


def make(seed, name="X", **kw):
    rng = Generator(seed)
    return random_psioa((name, seed), rng, **kw)


def _memo_on():
    perf_cache.configure(enabled=True)


class TestCacheSoundness:
    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_cached_transitions_match_uncached(self, seed):
        automaton = make(seed, n_states=5, n_actions=3)
        _memo_on()
        for state in automaton.states:
            for action in automaton.enabled(state):
                cached = automaton.transition(state, action)
                again = automaton.transition(state, action)
                assert again is cached  # identity: served from the memo
                assert automaton._tmemo[(state, action)] is cached
                perf_cache.configure(enabled=False)
                raw = automaton.transition(state, action)
                perf_cache.configure(enabled=True)
                assert cached == raw and dict(cached.items()) == dict(raw.items())

    def test_disabled_cache_stays_empty(self):
        automaton = coin_automaton("off", Fraction(1, 2))
        scheduler = bound_scheduler(DeterministicScheduler.greedy(), 3)
        perf_cache.configure(enabled=False)
        hits = metrics.counter("perf.cache.transition.hits").value
        misses = metrics.counter("perf.cache.transition.misses").value
        execution_measure(automaton, scheduler)
        automaton.transition("q0", "toss")
        assert automaton._tmemo == {}
        assert perf_cache.stats() == {"transition": {"hits": hits, "misses": misses}}

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_unfolding_identical_with_and_without_cache(self, seed):
        automaton = make(seed, n_states=5, n_actions=3)
        scheduler = bound_scheduler(DeterministicScheduler.greedy(), 5)
        _memo_on()
        cached = execution_measure(automaton, scheduler)
        hits = metrics.counter("perf.cache.transition.hits").value
        again = execution_measure(automaton, scheduler)
        # The second unfolding is built anew; its transitions come from the memo.
        assert again is not cached and dict(again.items()) == dict(cached.items())
        assert metrics.counter("perf.cache.transition.hits").value > hits
        perf_cache.configure(enabled=False)
        uncached = execution_measure(automaton, scheduler)
        perf_cache.configure(enabled=True)
        assert dict(cached.items()) == dict(uncached.items())


class TestMemoLifetime:
    def test_memo_dies_with_its_automaton(self):
        _memo_on()
        automaton = coin_automaton("mortal", Fraction(1, 3))
        execution_measure(automaton, bound_scheduler(DeterministicScheduler.greedy(), 3))
        assert automaton._tmemo
        # Automata are slotted without ``__weakref__``: look for survivors
        # among the objects the collector tracks instead.
        del automaton
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, PSIOA) and o.name == "mortal"]

    def test_memo_never_rides_a_pickle(self):
        _memo_on()
        cold = coin_automaton("shipped", Fraction(1, 3))
        warm = coin_automaton("shipped", Fraction(1, 3))
        execution_measure(warm, bound_scheduler(DeterministicScheduler.greedy(), 3))
        assert warm._tmemo and not cold._tmemo
        blob = pickle.dumps(warm)
        assert len(blob) == len(pickle.dumps(cold))
        copy = pickle.loads(blob)
        assert copy._tmemo == {}
        for (state, action), eta in warm._tmemo.items():
            assert copy.transition(state, action) == eta

    def test_cost_model_leaves_the_memo_empty(self):
        _memo_on()
        composed = compose(
            coin_automaton("left", Fraction(1, 2)),
            coin_automaton("right", Fraction(1, 3), toss="flip", head="up", tail="down"),
        )
        states = reachable_states(composed)
        composed._tmemo.clear()  # exploring the states filled it
        counted = sum(1 for state in states for _ in operation_counts(composed, state))
        assert counted > 0 and composed._tmemo == {}
