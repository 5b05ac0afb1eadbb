"""The transition memo (the ``repro.perf`` cache).

``PSIOA.transition(q, a)`` is a pure function of the automaton and
``(q, a)`` (transition determinism, Definition 2.1), so each automaton
memoizes its own transitions in a dict created with it (``PSIOA._tmemo``).
The memo lives and dies with its automaton and needs no invalidation:
automata are never mutated in place (a changed automaton is a new object
with an empty memo).  It never rides a pickle, so a sweep chunk shipped
to a worker starts cold.  Memoized values are the very objects the
transition function returned, so switching the memo changes no result.

:func:`configure` switches the memo for this process and its forks
(``RunConfig.apply`` calls it); :func:`cache_enabled` is the one reader
(``PSIOA.transition`` and a socket worker's run frame call it).
Lookups publish ``perf.cache.transition.{hits,misses}`` on the global
:mod:`repro.obs.metrics` registry.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable

from repro.obs.metrics import counter as _counter

__all__ = ["cache_enabled", "configure", "cached_transition", "transition_once", "stats"]

_enabled = True

_HITS = _counter("perf.cache.transition.hits")
_MISSES = _counter("perf.cache.transition.misses")


def cache_enabled() -> bool:
    return _enabled


def configure(*, enabled: bool) -> None:
    """Switch the transition memo on or off for this process (and its forks)."""
    global _enabled
    _enabled = bool(enabled)


def cached_transition(automaton: Any, state: Hashable, action: Hashable) -> Any:
    """Memoized ``eta_(A, q, a)``: calls the automaton's raw transition
    function on a miss.  Lookup failures (disabled actions) propagate and
    are never memoized."""
    memo = automaton._tmemo
    key = (state, action)
    eta = memo.get(key)
    if eta is not None:
        _HITS.inc()
        return eta
    _MISSES.inc()
    eta = memo[key] = automaton._transition(state, action)
    return eta


def transition_once(automaton: Any, state: Hashable, action: Hashable) -> Any:
    """``eta_(A, q, a)`` for a caller that asks for each ``(q, a)`` once:
    reused from ``automaton``'s memo when there, else computed and not
    stored in it (an inner automaton whose ``transition`` it calls, as a
    composition's components are, still memoizes)."""
    eta = automaton._tmemo.get((state, action))
    return automaton._transition(state, action) if eta is None else eta


def stats() -> Dict[str, Dict[str, int]]:
    """This process's memo traffic: ``{"transition": {hits, misses}}``."""
    return {"transition": {"hits": _HITS.value, "misses": _MISSES.value}}


# -- names the end-to-end benchmark still looks up ------------------------------
#
# ``e2ebench/layers.py`` wraps each of these by name and fails when one is
# missing.  Nothing in ``src/`` calls them.  ROADMAP item 1 (missing targets
# read as absent layers) deletes them.


def cached_decision(scheduler: Any, automaton: Any, fragment: Hashable) -> Any:
    return scheduler._decide_checked_uncached(automaton, fragment)


def cached_derived(owner_obj: Any, key: Hashable, compute: Callable[[], Any]) -> Any:
    return compute()


def measure_cache_get(automaton: Any, scheduler: Any, key: Hashable) -> None:
    return None


def measure_cache_put(automaton: Any, scheduler: Any, key: Hashable, measure: Any) -> None:
    return None


def intern_fragment(automaton: Any, fragment: Any) -> Any:
    return fragment


def intern_measure(automaton: Any, measure: Any) -> Any:
    return measure
