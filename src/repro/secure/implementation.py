"""The approximate implementation relation (paper Definition 4.12) and its
composability/transitivity machinery (Lemmas 4.13–4.14, Theorems 4.15–4.16).

``A <=^{Sch,f}_{p,q1,q2,eps} B`` holds when for every ``p``-bounded
environment ``E`` of both automata and every ``q1``-bounded scheduler
``sigma in Sch(E||A)`` there is a ``q2``-bounded scheduler
``sigma' in Sch(E||B)`` with ``sigma S^{<=eps}_{E,f} sigma'``.

The checker realizes the two quantifier blocks differently:

* the universal block (environments × schedulers) ranges over an explicit
  finite universe — the caller supplies the environments (optionally
  filtered by measured bound ``p``) and the schema enumerates the
  ``q1``-bounded schedulers;
* the existential block is resolved either **constructively**, via a
  ``witness`` function producing ``sigma'`` from ``(E, sigma)`` (the
  paper's positive results all build the witness — e.g. ``Forward^s`` for
  Lemma 4.29), or by **search** over the schema's ``q2``-bounded members.

``implementation_distance`` computes the tightest epsilon (the max-min
total-variation distance), which the experiment harness sweeps to validate
the composability and transitivity bounds numerically.

The search does each piece of inner-loop work once, without changing any
result.  Each ``sigma``'s scan over ``sigma'`` stops once its minimum is at
most the running max, since that ``sigma`` cannot raise the max; ``implements``
keeps the max at most ``epsilon``, so a failing ``sigma`` is always scanned in
full and its distance is exact.  Only candidates with distinct perceptions
are scored, and a ``sigma`` whose perception was already scanned reuses that
result.  Perceptions compare on an exact key, never within float tolerance.
``secure.tv.calls`` counts the total-variation evaluations that remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter_ns as _clock
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.bounded.bounds import measure_time_bound
from repro.bounded.families import PSIOAFamily, SchedulerFamily
from repro.core.psioa import PSIOA
from repro.obs.metrics import counter as _counter, timer as _timer
from repro.probability.asymptotics import is_negligible_fit
from repro.probability.measures import total_variation
from repro.semantics.insight import InsightFunction, compose_world, f_dist
from repro.semantics.schema import SchedulerSchema
from repro.semantics.scheduler import Scheduler

__all__ = [
    "ImplementationResult",
    "implements",
    "implementation_distance",
    "family_implementation_profile",
    "neg_pt_implements",
]

#: Total-variation evaluations in the existential search (one per
#: ``(sigma, sigma')`` pair actually scored); shows what pruning saves.
_TV_CALLS = _counter("secure.tv.calls")
#: Phase clock of :func:`_min_distance`, one call per evaluation it counts.
#: Its time includes the perceptions it draws lazily (their unfoldings).
_TV_TIME = _timer("secure.tv")


@dataclass(frozen=True)
class ImplementationResult:
    """Outcome of an implementation check.

    ``distance`` is the max-min perception distance actually measured; the
    relation holds iff ``distance <= epsilon``.  On failure,
    ``counterexample`` names the (environment, scheduler) pair with no
    matching ``sigma'``.
    """

    holds: bool
    epsilon: object
    distance: object
    counterexample: Optional[Tuple[object, object]] = None

    def __bool__(self) -> bool:
        return self.holds


class _Perceptions:
    """The distinct perceptions ``f-dist_(E,B)(sigma')`` of one environment's
    candidates, each computed the first time an outer scheduler reaches it.

    ``f-dist_(E,B)(sigma')`` does not depend on the outer ``sigma``, so
    ``schema(E||B, q2)`` is enumerated once, lazily and in schema order, and
    every later pass re-reads the perceptions already computed.  A candidate
    whose perception equals (:func:`_exact_key`) an earlier one's is dropped:
    it is at the same distance from every ``sigma``.  A candidate no pass
    reaches (every pass stopped early) is never unfolded.
    """

    def __init__(self, insight, env, second, world, candidates):
        self._insight = insight
        self._env = env
        self._second = second
        self._world = world
        self._pending = iter(candidates)
        self._seen: List[object] = []
        self._keys: set = set()

    def __iter__(self):
        yield from self._seen
        for candidate in self._pending:
            dist = f_dist(self._insight, self._env, self._second, candidate, world=self._world)
            key = _exact_key(dist)
            if key not in self._keys:
                self._keys.add(key)
                self._seen.append(dist)
                yield dist


def _exact_key(measure):
    """A key that two perceptions share only when every total variation
    against them is the same value.

    ``DiscreteMeasure`` equality holds within ``FLOAT_TOLERANCE`` for floats,
    so it cannot serve.  Exact weights key as a set of items.  Float weights
    key on the items in order, with their types, since the float sums in
    :func:`total_variation` follow that order.
    """
    items = tuple(measure.items())
    if all(isinstance(weight, (int, Fraction)) for _, weight in items):
        return frozenset(items)
    return tuple((outcome, type(weight), weight) for outcome, weight in items)


def _min_distance(dist_first, perceptions: Iterable[object], *, stop_at=0):
    """min over ``perceptions`` of TV(dist_first, perception), stopping at the
    first one within ``stop_at``; ``None`` when there is none."""
    start = _clock()
    best = None
    calls = 0
    for dist_second in perceptions:
        calls += 1
        d = total_variation(dist_first, dist_second)
        if best is None or d < best:
            best = d
            if best <= stop_at:
                break
    _TV_CALLS.inc(calls)
    _TV_TIME.record(_clock() - start, calls)
    return best


def _worst_case(first, second, environments, *, schema, insight, q1, q2, witness, epsilon=None):
    """``max_{E, sigma} min_{sigma'} TV`` over ``environments``.

    Returns ``(worst, None)``, or ``(best, (E, sigma))`` for the first
    ``sigma`` with no ``sigma'`` or whose minimum exceeds ``epsilon``.

    ``E||A`` and ``E||B`` are composed once per environment.  Each
    ``sigma``'s scan stops once its minimum is at most the running ``worst``:
    such a ``sigma`` cannot raise the max.  A ``sigma`` whose minimum
    exceeds ``epsilon >= worst`` is never stopped, so its ``best`` is exact.
    Without a witness, the candidates' perceptions are shared by the whole
    ``sigma`` loop (:class:`_Perceptions`), and a ``sigma`` whose perception
    was already scanned reuses that scan's result.  The reused value is
    exact, or at most a ``worst`` that has only risen since.
    """
    worst = 0
    for env in environments:
        world_first = compose_world(env, first)
        world_second = compose_world(env, second)
        if witness is None:
            shared = _Perceptions(insight, env, second, world_second, schema(world_second, q2))
            scanned = {}
        for scheduler in schema(world_first, q1):
            dist_first = f_dist(insight, env, first, scheduler, world=world_first)
            if witness is None:
                key = _exact_key(dist_first)
                if key in scanned:
                    best = scanned[key]
                else:
                    best = _min_distance(dist_first, shared, stop_at=worst)
                    scanned[key] = best
            else:
                sigma_prime = witness(env, scheduler)
                best = _min_distance(
                    dist_first, [f_dist(insight, env, second, sigma_prime, world=world_second)]
                )
            if best is None or (epsilon is not None and best > epsilon):
                return best, (env, scheduler)
            if best > worst:
                worst = best
    return worst, None


def implements(
    first: PSIOA,
    second: PSIOA,
    *,
    schema: SchedulerSchema,
    insight: InsightFunction,
    environments: Sequence[PSIOA],
    q1: int,
    q2: int,
    epsilon,
    p: Optional[int] = None,
    witness: Optional[Callable[[PSIOA, Scheduler], Scheduler]] = None,
) -> ImplementationResult:
    """Check ``A <=^{Sch,f}_{p,q1,q2,eps} B`` over a finite universe
    (Definition 4.12).

    Parameters mirror the definition; ``environments`` is the universe the
    ``forall E`` ranges over (filtered to ``p``-time-bounded members when
    ``p`` is given), and ``witness`` short-circuits the existential search
    with a constructive ``sigma'``.
    """
    if p is not None:
        environments = (env for env in environments if measure_time_bound(env) <= p)
    kw = dict(schema=schema, insight=insight, q1=q1, q2=q2, witness=witness)
    distance, failure = _worst_case(first, second, environments, epsilon=epsilon, **kw)
    if failure is None:
        return ImplementationResult(holds=True, epsilon=epsilon, distance=distance)
    env, scheduler = failure
    return ImplementationResult(
        holds=False,
        epsilon=epsilon,
        distance=distance,
        counterexample=(env.name, getattr(scheduler, "name", scheduler)),
    )


def implementation_distance(
    first: PSIOA,
    second: PSIOA,
    *,
    schema: SchedulerSchema,
    insight: InsightFunction,
    environments: Sequence[PSIOA],
    q1: int,
    q2: int,
    witness: Optional[Callable[[PSIOA, Scheduler], Scheduler]] = None,
):
    """The tightest epsilon: ``max_{E, sigma} min_{sigma'} TV``.

    This is the quantity the composability/transitivity experiments track:
    Theorem 4.16 predicts ``d(A1, A3) <= d(A1, A2) + d(A2, A3)`` and
    Lemma 4.13 predicts ``d(A3||A1, A3||A2) <= d(A1, A2)`` for matched
    environment universes.
    """
    kw = dict(schema=schema, insight=insight, q1=q1, q2=q2, witness=witness)
    worst, failure = _worst_case(first, second, environments, **kw)
    if failure is not None:
        raise ValueError("scheduler schema produced no candidate sigma'")
    return worst


def family_implementation_profile(
    first: PSIOAFamily,
    second: PSIOAFamily,
    *,
    schema: SchedulerSchema,
    insight: InsightFunction,
    environment_family: Callable[[int], Sequence[PSIOA]],
    q1: Callable[[int], int],
    q2: Callable[[int], int],
    ks: Sequence[int],
    witness: Optional[Callable[[int, PSIOA, Scheduler], Scheduler]] = None,
) -> List[Tuple[int, float]]:
    """The error profile ``(k, eps(k))`` of a family implementation
    (Definition 4.12, family form): for each ``k`` the tightest epsilon of
    ``A_k <= B_k``."""
    profile: List[Tuple[int, float]] = []
    for k in ks:
        witness_k = None
        if witness is not None:
            witness_k = lambda env, sched, _k=k: witness(_k, env, sched)
        distance = implementation_distance(
            first[k],
            second[k],
            schema=schema,
            insight=insight,
            environments=environment_family(k),
            q1=q1(k),
            q2=q2(k),
            witness=witness_k,
        )
        profile.append((k, float(distance)))
    return profile


def neg_pt_implements(profile: Sequence[Tuple[int, float]]) -> bool:
    """``A <=^{Sch,f}_{neg,pt} B`` over the sampled horizon: the error
    profile admits a decaying geometric envelope (see
    :mod:`repro.probability.asymptotics` for the substitution note)."""
    return is_negligible_fit(profile)
