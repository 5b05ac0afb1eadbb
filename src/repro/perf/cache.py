"""Transparent memoization for the unfolding engine (the ``repro.perf`` cache).

The execution-measure machinery recomputes the same pure values over and
over: ``PSIOA.transition(state, action)`` is a pure function of its
arguments (transition determinism, Definition 2.1), scheduler decisions are
pure functions of ``(automaton, fragment)`` (Definition 3.1 schedulers are
maps, and every scheduler shipped by the library decides by replaying the
fragment), and a full unfolding ``execution_measure(A, sigma)`` is a pure
function of the pair.  This module caches all three behind the call sites
that already exist, so enabling the cache changes *nothing* about results —
only about how often the underlying computations run.  Exactness is
preserved by construction: cached values are the very objects the
uncached computation produced, and interning only unifies objects that
compare equal under exact (rational) arithmetic.

Identity is the cache key
-------------------------
Owner keys come from :func:`owner_key`, which is ``id(obj)``: entries
belong to one object, never to a value-equal twin, and no key ever costs
more than a dict probe.  Every store keeps a strong reference to the
objects behind its keys (the *keepalive*), so an id can never be
recycled by the allocator while its entries are live.  The cost is that
cached objects stay alive until their entries are evicted; the LRU
bounds below cap that.

Invalidation
------------
Mutating an automaton in place (e.g. editing a ``TablePSIOA`` table) makes
its cached transitions stale.  Call :func:`invalidate` with the mutated
object to drop every entry derived from it (transitions, decisions,
memoized measures, derived values, interned twins).  :func:`clear` drops
everything.  Fresh-per-run isolation is automatic in the experiment
harness: the guarded runner clears the cache at the start of every
experiment child.

Configuration
-------------
The cache starts enabled; :func:`configure` switches it (``RunConfig.apply``
calls it with the resolved ``cache`` setting).  All
stores publish ``perf.cache.<store>.{hits,misses,evictions}`` counters and
``perf.intern.<kind>.{hits,misses}`` counters on the global
:mod:`repro.obs.metrics` registry, so cache behaviour shows up in run
reports and bench trajectories without extra plumbing.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Tuple

from repro.obs.metrics import counter as _counter

__all__ = [
    "CACHE",
    "cache_enabled",
    "configure",
    "owner_key",
    "cached_transition",
    "cached_decision",
    "cached_derived",
    "measure_cache_get",
    "measure_cache_put",
    "intern_fragment",
    "intern_measure",
    "invalidate",
    "clear",
    "stats",
]

#: Default size bounds.  Per-owner entry caps bound the width of a single
#: automaton's table; owner caps bound how many distinct automata/scheduler
#: pairs are tracked at once (least-recently-used owners are dropped whole).
DEFAULT_BOUNDS = {
    "transition_owners": 256,
    "transition_entries": 16384,
    "decision_owners": 512,
    "decision_entries": 16384,
    "measure_owners": 256,
    "measure_entries": 512,
    "derived_owners": 512,
    "derived_entries": 64,
    "intern_fragments": 65536,
    "intern_measures": 16384,
}


class _BoundedStore:
    """A two-level LRU store: owner -> (keepalive, key -> value).

    ``owner`` is an id-derived hashable; ``keepalive`` is the object (or
    tuple of objects) whose identity the owner encodes — held strongly so
    the id stays valid for the lifetime of the entries.
    """

    __slots__ = ("name", "max_owners", "max_entries", "_owners", "hits", "misses", "evictions")

    def __init__(self, name: str, max_owners: int, max_entries: int) -> None:
        self.name = name
        self.max_owners = max_owners
        self.max_entries = max_entries
        #: owner -> [keepalive, OrderedDict(key -> value)]
        self._owners: "OrderedDict[Hashable, Tuple[Any, OrderedDict]]" = OrderedDict()
        self.hits = _counter(f"perf.cache.{name}.hits")
        self.misses = _counter(f"perf.cache.{name}.misses")
        self.evictions = _counter(f"perf.cache.{name}.evictions")

    def get(self, owner: Hashable, key: Hashable) -> Optional[Any]:
        slot = self._owners.get(owner)
        if slot is None:
            self.misses.inc()
            return None
        entries = slot[1]
        value = entries.get(key)
        if value is None:
            self.misses.inc()
            return None
        entries.move_to_end(key)
        self._owners.move_to_end(owner)
        self.hits.inc()
        return value

    def put(self, owner: Hashable, keepalive: Any, key: Hashable, value: Any) -> None:
        slot = self._owners.get(owner)
        if slot is None:
            while len(self._owners) >= self.max_owners:
                _, (_, dropped) = self._owners.popitem(last=False)
                self.evictions.inc(len(dropped))
            slot = (keepalive, OrderedDict())
            self._owners[owner] = slot
        entries = slot[1]
        while len(entries) >= self.max_entries:
            entries.popitem(last=False)
            self.evictions.inc()
        entries[key] = value
        self._owners.move_to_end(owner)

    def invalidate_object(self, obj: Any) -> int:
        """Drop every owner whose keepalive contains ``obj`` (by identity)."""
        stale = []
        for owner, (keepalive, _entries) in self._owners.items():
            if keepalive is obj or (
                isinstance(keepalive, tuple) and any(part is obj for part in keepalive)
            ):
                stale.append(owner)
        dropped = 0
        for owner in stale:
            dropped += len(self._owners.pop(owner)[1])
        return dropped

    def clear(self) -> None:
        self._owners.clear()

    def size(self) -> int:
        return sum(len(entries) for _, entries in self._owners.values())


class _Interner:
    """Hash-consing table: maps a value-equal object to its canonical twin.

    Tables are **scoped per owner** (per automaton identity).  Cross-owner
    unification would be unsound: automaton equality is *name*-based
    (Definition 2.1 identifies automata by their id), so two value-equal
    configurations built by different PCA objects may embed behaviorally
    different sub-automata.  Within one automaton, value-equal fragments and
    measures are interchangeable — the reachability and unfolding engines
    already dedup on exactly that equality.
    """

    __slots__ = ("name", "cap", "_owners", "hits", "misses")

    def __init__(self, name: str, cap: int) -> None:
        self.name = name
        self.cap = cap
        #: owner -> (keepalive, {obj: canonical twin})
        self._owners: "OrderedDict[Hashable, Tuple[Any, Dict[Any, Any]]]" = OrderedDict()
        self.hits = _counter(f"perf.intern.{name}.hits")
        self.misses = _counter(f"perf.intern.{name}.misses")

    def intern(self, owner: Hashable, keepalive: Any, obj: Any) -> Any:
        slot = self._owners.get(owner)
        if slot is None:
            # Bound the number of tracked owners at the table cap's square
            # root heuristic is overkill; reuse the entry cap and drop the
            # least-recently-used owner whole.  Dropping loses sharing only.
            while len(self._owners) >= 64:
                self._owners.popitem(last=False)
            slot = (keepalive, {})
            self._owners[owner] = slot
        table = slot[1]
        canonical = table.get(obj)
        if canonical is not None:
            self.hits.inc()
            return canonical
        self.misses.inc()
        if len(table) >= self.cap:
            # FIFO eviction: dropping a canonical twin only loses sharing,
            # never correctness.
            table.pop(next(iter(table)))
        table[obj] = obj
        return obj

    def invalidate_object(self, obj: Any) -> int:
        stale = [
            owner
            for owner, (keepalive, _table) in self._owners.items()
            if keepalive is obj
        ]
        dropped = 0
        for owner in stale:
            dropped += len(self._owners.pop(owner)[1])
        return dropped

    def clear(self) -> None:
        self._owners.clear()

    def size(self) -> int:
        return sum(len(table) for _, table in self._owners.values())


def _weights_exact(measure: Any) -> bool:
    """True when every weight participates in exact rational arithmetic.

    Interning float-weighted measures would canonicalize values that are
    only *tolerance*-equal, silently changing downstream float arithmetic;
    exact weights compare by true equality, so unification is lossless.
    """
    for _outcome, weight in measure.items():
        if not isinstance(weight, (int, Fraction)) or isinstance(weight, bool):
            return False
    return True


class PerfCache:
    """The process-global cache bundle (see the module docstring)."""

    def __init__(self, bounds: Optional[Dict[str, int]] = None) -> None:
        b = dict(DEFAULT_BOUNDS)
        if bounds:
            b.update(bounds)
        self.enabled = True
        self.transitions = _BoundedStore(
            "transition", b["transition_owners"], b["transition_entries"]
        )
        self.decisions = _BoundedStore(
            "decision", b["decision_owners"], b["decision_entries"]
        )
        self.measures = _BoundedStore("measure", b["measure_owners"], b["measure_entries"])
        self.derived = _BoundedStore("derived", b["derived_owners"], b["derived_entries"])
        self.fragments = _Interner("fragment", b["intern_fragments"])
        self.measure_interner = _Interner("measure", b["intern_measures"])
        self._stores = (self.transitions, self.decisions, self.measures, self.derived)
        self._tables = self._stores + (self.fragments, self.measure_interner)

    # -- lifecycle -----------------------------------------------------------

    def clear(self) -> None:
        for table in self._tables:
            table.clear()

    @contextmanager
    def chunk_scope(self, *, cold: bool) -> Iterator[None]:
        """Run a sweep chunk in the caller against the tables a worker's
        chunk starts from, then restore the caller's own.

        A remote worker's chunk child starts ``cold`` (empty tables); a
        forked chunk child starts from a copy of the caller's.  Either way
        nothing the chunk caches reaches the caller, so a chunk recomputed
        here after its executor was lost counts exactly the hits and misses
        the lost executor would have shipped."""
        saved = [table._owners for table in self._tables]
        for table, owners in zip(self._tables, saved):
            table._owners = OrderedDict()
            if not cold:
                for owner, (keepalive, entries) in owners.items():
                    table._owners[owner] = (keepalive, entries.copy())
        try:
            yield
        finally:
            for table, owners in zip(self._tables, saved):
                table._owners = owners

    def invalidate(self, obj: Any) -> int:
        """Drop every cached value whose keepalive holds ``obj``."""
        return sum(table.invalidate_object(obj) for table in self._tables)

    def stats(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for store in self._stores:
            out[store.name] = {
                "size": store.size(),
                "hits": store.hits.value,
                "misses": store.misses.value,
                "evictions": store.evictions.value,
            }
        for interner in (self.fragments, self.measure_interner):
            out[f"intern.{interner.name}"] = {
                "size": interner.size(),
                "hits": interner.hits.value,
                "misses": interner.misses.value,
            }
        return out


#: The singleton every call site binds against.
CACHE = PerfCache()


def cache_enabled() -> bool:
    return CACHE.enabled


def configure(*, enabled: bool) -> None:
    """Switch the cache on or off for this process (and its forks)."""
    CACHE.enabled = bool(enabled)


def clear() -> None:
    CACHE.clear()


def invalidate(obj: Any) -> int:
    """Drop every cached value derived from ``obj``; returns how many."""
    return CACHE.invalidate(obj)


def stats() -> Dict[str, Dict[str, int]]:
    return CACHE.stats()


# -- call-site helpers ----------------------------------------------------------
#
# These are invoked from the hot paths (PSIOA.transition,
# Scheduler.decide_checked, execution_measure) *after* the enabled check, so
# the disabled path pays only one attribute read.


def owner_key(obj: Any) -> int:
    """The cache owner key for ``obj``: its identity (the entry's keepalive
    holds ``obj``, so the id cannot be recycled while the entry lives)."""
    return id(obj)


def cached_transition(automaton: Any, state: Hashable, action: Hashable) -> Any:
    """Memoized ``eta_(A, q, a)`` — calls the automaton's raw transition
    function on a miss.  Lookup failures (disabled actions) propagate and
    are never cached."""
    owner = owner_key(automaton)
    key = (state, action)
    eta = CACHE.transitions.get(owner, key)
    if eta is not None:
        return eta
    eta = automaton._transition(state, action)
    eta = intern_measure(automaton, eta)
    CACHE.transitions.put(owner, automaton, key, eta)
    return eta


def cached_decision(scheduler: Any, automaton: Any, fragment: Hashable) -> Any:
    """Memoized validated scheduler decision for ``(automaton, fragment)``."""
    owner = (owner_key(scheduler), owner_key(automaton))
    decision = CACHE.decisions.get(owner, fragment)
    if decision is not None:
        return decision
    decision = scheduler._decide_checked_uncached(automaton, fragment)
    CACHE.decisions.put(owner, (scheduler, automaton), fragment, decision)
    return decision


def cached_derived(owner_obj: Any, key: Hashable, compute: Callable[[], Any]) -> Any:
    """Generic per-object memo for derived values (e.g. ``acts(A)``)."""
    if not CACHE.enabled:
        return compute()
    owner = owner_key(owner_obj)
    value = CACHE.derived.get(owner, key)
    if value is not None:
        return value
    value = compute()
    CACHE.derived.put(owner, owner_obj, key, value)
    return value


def measure_cache_get(automaton: Any, scheduler: Any, key: Hashable) -> Optional[Any]:
    """Lookup of a memoized full unfolding; the key already encodes the
    scheduler's owner key plus the unfolding parameters."""
    entry = CACHE.measures.get(owner_key(automaton), key)
    return None if entry is None else entry[1]


def measure_cache_put(automaton: Any, scheduler: Any, key: Hashable, measure: Any) -> None:
    # One automaton owns the entries of many schedulers, and the owner's
    # keepalive holds only the first of them.  Each entry therefore carries
    # its own scheduler, so the identity behind its owner key (part of the
    # entry key) cannot be recycled by a new scheduler while the entry lives.
    CACHE.measures.put(owner_key(automaton), (automaton, scheduler), key, (scheduler, measure))


def intern_fragment(automaton: Any, fragment: Any) -> Any:
    """Return the canonical twin of ``fragment`` within ``automaton``'s scope
    (equal and hash-equal; see :class:`_Interner` for why scoping matters)."""
    return CACHE.fragments.intern(owner_key(automaton), automaton, fragment)


def intern_measure(automaton: Any, measure: Any) -> Any:
    """Return the canonical twin of an exact-weighted measure within
    ``automaton``'s scope.

    Measures with float weights are returned unchanged: their equality is
    tolerance-based, so unifying them could alter float results downstream.
    """
    if not _weights_exact(measure):
        return measure
    return CACHE.measure_interner.intern(owner_key(automaton), automaton, measure)
