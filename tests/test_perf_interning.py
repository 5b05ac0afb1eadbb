"""Property-based tests of the perf layer's interning and cache soundness.

The contract under test (see ``docs/performance.md``):

* interned Fragment / DiscreteMeasure twins are **the same object**, equal
  and hash-equal to their uninterned counterparts — interning is invisible
  to any equality- or hash-based consumer;
* interning is scoped per automaton: value-equal objects from *different*
  automata are never unified (automaton equality is name-based, so
  cross-automaton twins may differ semantically);
* float-weighted measures are never interned (their equality is
  tolerance-based);
* a mutated automaton plus :func:`repro.perf.cache.invalidate` never serves
  a stale transition;
* the bounded stores respect their entry caps and count evictions;
* ``REPRO_CACHE=off`` (via ``configure``) keeps every store empty.
"""

import gc
import weakref
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executions import Fragment
from repro.core.psioa import TablePSIOA
from repro.core.signature import Signature
from repro.obs import metrics
from repro.perf import cache as perf_cache
from repro.perf.cache import _BoundedStore
from repro.probability.measures import DiscreteMeasure, dirac
from repro.probability.rng import Generator
from repro.semantics.measure import execution_measure
from repro.semantics.scheduler import (
    ActionSequenceScheduler,
    DeterministicScheduler,
    bound_scheduler,
)
from repro.systems.factory import random_psioa

from tests.helpers import coin_automaton

SEEDS = st.integers(min_value=0, max_value=10_000)


def make(seed, name="X", **kw):
    rng = Generator(seed)
    return random_psioa((name, seed), rng, **kw)


def _fresh_cache():
    perf_cache.configure(enabled=True)
    perf_cache.clear()


def _some_fragments(automaton, bound=4):
    scheduler = bound_scheduler(DeterministicScheduler.greedy(), bound)
    return sorted(execution_measure(automaton, scheduler).support(), key=repr)


class TestInternedTwins:
    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_fragment_twins_equal_and_hash_equal(self, seed):
        automaton = make(seed, n_states=5, n_actions=3)
        _fresh_cache()
        for fragment in _some_fragments(automaton):
            twin = Fragment(tuple(fragment.states), tuple(fragment.actions))
            assert twin is not fragment
            canonical = perf_cache.intern_fragment(automaton, fragment)
            canonical_twin = perf_cache.intern_fragment(automaton, twin)
            assert canonical_twin is canonical
            assert canonical == twin and canonical == fragment
            assert hash(canonical) == hash(twin) == hash(fragment)

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_measure_twins_equal_and_identical(self, seed):
        automaton = make(seed, n_states=4, n_actions=3)
        _fresh_cache()
        for state in automaton.states:
            for action in automaton.enabled(state):
                eta = automaton.transitions[(state, action)]
                twin = DiscreteMeasure(dict(eta.items()))
                canonical = perf_cache.intern_measure(automaton, eta)
                canonical_twin = perf_cache.intern_measure(automaton, twin)
                assert canonical_twin is canonical
                assert canonical == twin and hash(canonical) == hash(twin)

    def test_interning_is_scoped_per_automaton(self):
        # Name-based automaton equality means value-equal objects from two
        # automata may be semantically different — they must not unify.
        first = coin_automaton("same-name", Fraction(1, 2))
        second = coin_automaton("same-name", Fraction(1, 3))
        _fresh_cache()
        fragment = Fragment.initial("q0")
        twin = Fragment.initial("q0")
        c1 = perf_cache.intern_fragment(first, fragment)
        c2 = perf_cache.intern_fragment(second, twin)
        assert c1 is fragment and c2 is twin and c1 is not c2

    def test_float_measures_are_never_interned(self):
        automaton = coin_automaton("float", Fraction(1, 2))
        _fresh_cache()
        m1 = DiscreteMeasure({"a": 0.5, "b": 0.5})
        m2 = DiscreteMeasure({"a": 0.5, "b": 0.5})
        assert perf_cache.intern_measure(automaton, m1) is m1
        assert perf_cache.intern_measure(automaton, m2) is m2
        assert perf_cache.CACHE.measure_interner.size() == 0

    def test_repeat_interning_counts_hits(self):
        automaton = coin_automaton("hits", Fraction(1, 2))
        _fresh_cache()
        before = metrics.counter("perf.intern.fragment.hits").value
        fragment = Fragment.initial("q0")
        perf_cache.intern_fragment(automaton, fragment)
        perf_cache.intern_fragment(automaton, Fragment.initial("q0"))
        assert metrics.counter("perf.intern.fragment.hits").value == before + 1


class TestCacheSoundness:
    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_cached_transitions_match_uncached(self, seed):
        automaton = make(seed, n_states=5, n_actions=3)
        _fresh_cache()
        for state in automaton.states:
            for action in automaton.enabled(state):
                cached = automaton.transition(state, action)
                again = automaton.transition(state, action)
                assert again is cached  # identity: served from the cache
                perf_cache.configure(enabled=False)
                raw = automaton.transition(state, action)
                perf_cache.configure(enabled=True)
                assert cached == raw and dict(cached.items()) == dict(raw.items())

    def test_mutation_plus_invalidate_never_serves_stale(self):
        automaton = TablePSIOA(
            "mut",
            "q0",
            {"q0": Signature(outputs={"go"}), "q1": Signature(), "q2": Signature()},
            {("q0", "go"): dirac("q1")},
        )
        _fresh_cache()
        first = automaton.transition("q0", "go")
        assert first("q1") == 1
        # In-place mutation: retarget the transition, then invalidate.
        automaton.transitions[("q0", "go")] = dirac("q2")
        dropped = perf_cache.invalidate(automaton)
        assert dropped >= 1
        fresh = automaton.transition("q0", "go")
        assert fresh("q2") == 1 and fresh("q1") == 0

    def test_invalidate_drops_decisions_and_measures_of_the_object(self):
        automaton = coin_automaton("inv", Fraction(1, 2))
        scheduler = bound_scheduler(DeterministicScheduler.greedy(), 3)
        _fresh_cache()
        execution_measure(automaton, scheduler)
        assert perf_cache.CACHE.measures.size() == 1
        assert perf_cache.CACHE.decisions.size() > 0
        perf_cache.invalidate(automaton)
        assert perf_cache.CACHE.measures.size() == 0
        assert perf_cache.CACHE.decisions.size() == 0
        assert perf_cache.CACHE.transitions.size() == 0

    def test_memoized_unfolding_keeps_its_scheduler_alive(self):
        # One automaton owns the memo entries of many schedulers.  Each entry
        # must hold its own scheduler: were its id freed, a new scheduler
        # could take that id and be served this scheduler's measure.
        automaton = coin_automaton("keepalive", Fraction(1, 3))
        _fresh_cache()
        execution_measure(automaton, ActionSequenceScheduler(("toss",)))
        second = ActionSequenceScheduler(("toss", "head"))
        execution_measure(automaton, second)
        alive = weakref.ref(second)
        # The decision tier also holds schedulers; model its LRU eviction.
        perf_cache.CACHE.decisions.clear()
        del second
        gc.collect()
        assert alive() is not None

    def test_disabled_cache_stays_empty(self):
        automaton = coin_automaton("off", Fraction(1, 2))
        scheduler = bound_scheduler(DeterministicScheduler.greedy(), 3)
        perf_cache.configure(enabled=False)
        perf_cache.clear()
        execution_measure(automaton, scheduler)
        automaton.transition("q0", "toss")
        stats = perf_cache.stats()
        assert all(block["size"] == 0 for block in stats.values())

    def test_bounded_store_respects_entry_cap(self):
        store = _BoundedStore("test-cap", max_owners=4, max_entries=3)
        owner_obj = object()
        for i in range(10):
            store.put(id(owner_obj), owner_obj, ("key", i), i)
        assert store.size() == 3
        assert store.evictions.value == 7
        # The survivors are the most recently inserted keys.
        assert store.get(id(owner_obj), ("key", 9)) == 9
        assert store.get(id(owner_obj), ("key", 0)) is None

    def test_bounded_store_respects_owner_cap(self):
        store = _BoundedStore("test-owners", max_owners=2, max_entries=8)
        keep = [object() for _ in range(3)]
        for obj in keep:
            store.put(id(obj), obj, "k", "v")
        # Third owner evicted the least-recently-used first owner wholesale.
        assert store.get(id(keep[0]), "k") is None
        assert store.get(id(keep[1]), "k") == "v"
        assert store.get(id(keep[2]), "k") == "v"

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_unfolding_identical_with_and_without_cache(self, seed):
        automaton = make(seed, n_states=5, n_actions=3)
        scheduler = bound_scheduler(DeterministicScheduler.greedy(), 5)
        _fresh_cache()
        cached = execution_measure(automaton, scheduler)
        memoized = execution_measure(automaton, scheduler)
        assert memoized is cached
        perf_cache.configure(enabled=False)
        uncached = execution_measure(automaton, scheduler)
        perf_cache.configure(enabled=True)
        assert dict(cached.items()) == dict(uncached.items())
