"""The execution measure ``epsilon_sigma`` (paper Section 3).

A scheduler ``sigma`` induces a probability measure on the measurable space
``(Execs(A), F_Execs(A))`` whose sigma-field is generated by cones of
finite execution fragments.  For the *bounded* schedulers the security
layer quantifies over (Definition 4.6), every execution terminates within a
known number of steps, so the measure is supported on finitely many finite
executions and can be computed exactly:

* the probability that the system halts exactly at execution ``alpha`` is
  ``epsilon_sigma(alpha) = P(alpha reached) * P(sigma halts after alpha)``,
* the cone probability ``epsilon_sigma(C_alpha)`` is ``P(alpha reached)``.

:func:`execution_measure` unfolds the execution tree breadth-first,
multiplying scheduler decision weights with transition weights — the
product construction sketched in [3] and [7].  Exact (rational) arithmetic
is preserved when both the automaton and the scheduler use exact weights.
"""

from __future__ import annotations

from time import perf_counter_ns as _clock
from typing import Dict, Optional

from repro.core.executions import Fragment
from repro.core.psioa import PSIOA
from repro.obs.metrics import counter as _counter, timer as _timer
from repro.obs.trace import NULL_SPAN as _NULL_SPAN, TRACER as _TRACER, span as _span
from repro.perf import cache as _perf_cache
from repro.probability.measures import DiscreteMeasure
from repro.semantics.scheduler import Scheduler

#: Unfolding instruments: calls, frontier fragments expanded, transition
#: expansions (one per scheduled action whose target measure is enumerated).
#: Tallied in locals inside the loop and flushed once per unfolding.
_UNFOLD_CALLS = _counter("measure.unfold.calls")
_UNFOLD_FRAGMENTS = _counter("measure.unfold.fragments")
_UNFOLD_TRANSITIONS = _counter("measure.unfold.transitions")
_UNFOLD_MEMO_HITS = _counter("measure.unfold.memo_hits")
#: Phase clock: one call per unfolding asked for, memo hits included.
_UNFOLD_TIME = _timer("measure.unfold")

__all__ = ["execution_measure", "cone_probability", "UnboundedUnfoldingError"]


class UnboundedUnfoldingError(RuntimeError):
    """The scheduler did not halt within the requested depth.

    Raised instead of silently truncating: a truncated measure would make
    theorem checks unsound.  Callers that want truncation pass
    ``truncate=True`` and the residual mass is attributed to the frontier
    fragments (useful for diagnostics only).
    """


def execution_measure(
    automaton: PSIOA,
    scheduler: Scheduler,
    *,
    max_depth: Optional[int] = None,
    truncate: bool = False,
    mass_epsilon: float = 0.0,
) -> DiscreteMeasure:
    """Compute ``epsilon_sigma`` as a measure over *completed* executions.

    Parameters
    ----------
    automaton:
        The PSIOA (or PCA) being scheduled.
    scheduler:
        The scheduler ``sigma``; its :meth:`~Scheduler.step_bound` (when
        known) caps the unfolding depth automatically.
    max_depth:
        Explicit depth cap; required when the scheduler has no intrinsic
        bound.
    truncate:
        When true, fragments still active at the depth cap contribute their
        residual mass as if the scheduler halted there (diagnostic use).
    mass_epsilon:
        Active branches with mass at or below this threshold are pruned
        (floating-point workloads only; keep 0 for exact arithmetic).

    Returns a :class:`DiscreteMeasure` over :class:`Fragment` executions
    (each weighted by reach-probability times halt-probability).
    """
    bound = scheduler.step_bound()
    if bound is None:
        bound = max_depth
    elif max_depth is not None:
        bound = min(bound, max_depth)
    if bound is None:
        raise UnboundedUnfoldingError(
            "scheduler has no intrinsic step bound; pass max_depth explicitly"
        )
    start = _clock()
    try:
        return _unfold(automaton, scheduler, bound, truncate, mass_epsilon)
    finally:
        _UNFOLD_TIME.record(_clock() - start)


def _unfold(
    automaton: PSIOA,
    scheduler: Scheduler,
    bound: int,
    truncate: bool,
    mass_epsilon: float,
) -> DiscreteMeasure:
    """The body of :func:`execution_measure` once the depth bound is known."""
    # Whole-unfolding memo: epsilon_sigma is a pure function of the
    # (automaton, scheduler) pair and the unfolding parameters, so repeated
    # unfoldings of the same pair are served from the perf cache.  Keys are
    # object identities (repro.perf.cache.owner_key); the scheduler object
    # rides in the cache entry so the identity behind its key cannot be
    # recycled while the entry lives.
    cache = _perf_cache.CACHE if _perf_cache.CACHE.enabled else None
    if cache is not None:
        memo_key = (
            _perf_cache.owner_key(scheduler),
            bound,
            bool(truncate),
            repr(mass_epsilon),
        )
        memoized = _perf_cache.measure_cache_get(automaton, scheduler, memo_key)
        if memoized is not None:
            _UNFOLD_MEMO_HITS.inc()
            return memoized

    _UNFOLD_CALLS.inc()
    fragments_expanded = 0
    transitions_expanded = 0

    initial = Fragment.initial(automaton.start)
    if cache is not None:
        initial = _perf_cache.intern_fragment(automaton, initial)
    completed: Dict[Fragment, object] = {}
    residual: Dict[Fragment, object] = {}
    active: Dict[Fragment, object] = {initial: 1}

    # Branch on the flag here (rather than inside _span) so span arguments —
    # the name stringification in particular — are never evaluated on the
    # disabled path; this function runs thousands of times per experiment.
    if _TRACER.enabled:
        unfold_span = _span(
            "measure.execution_measure",
            automaton=str(getattr(automaton, "name", "?")),
            bound=bound,
        )
    else:
        unfold_span = _NULL_SPAN
    with unfold_span:
        # One pass per depth, 0..bound inclusive.  Each fragment is decided
        # EXACTLY ONCE: the same decision object feeds its halting mass,
        # its extensions, and — at the depth bound — its residual
        # continuation mass, so depth-bound fragments are not re-decided in
        # a separate residual pass (tests/test_perf_differential.py locks
        # this invariant by counting decide_checked invocations).
        for depth in range(bound + 1):
            if not active:
                break
            at_bound = depth == bound
            next_active: Dict[Fragment, object] = {}
            for fragment, mass in active.items():
                fragments_expanded += 1
                decision = scheduler.decide_checked(automaton, fragment)
                halt_mass = decision.halting_mass
                if halt_mass != 0:
                    weight = mass * halt_mass
                    completed[fragment] = completed.get(fragment, 0) + weight
                if at_bound:
                    # The scheduler may still halt exactly here (e.g. a
                    # script of `bound` actions); any continuation mass
                    # means it genuinely did not terminate.
                    continue_mass = mass - mass * halt_mass
                    if continue_mass != 0:
                        residual[fragment] = continue_mass
                    continue
                for action, action_weight in decision.items():
                    transitions_expanded += 1
                    eta = automaton.transition(fragment.lstate, action)
                    branch_mass = mass * action_weight
                    for target, target_weight in eta.items():
                        extended = fragment.extend(action, target)
                        if cache is not None:
                            extended = _perf_cache.intern_fragment(automaton, extended)
                        weight = branch_mass * target_weight
                        if mass_epsilon and weight <= mass_epsilon:
                            continue
                        next_active[extended] = next_active.get(extended, 0) + weight
            active = next_active
        if unfold_span is not _NULL_SPAN:
            unfold_span.set(fragments=fragments_expanded, transitions=transitions_expanded)
    _UNFOLD_FRAGMENTS.inc(fragments_expanded)
    _UNFOLD_TRANSITIONS.inc(transitions_expanded)

    if residual:
        if not truncate:
            raise UnboundedUnfoldingError(
                f"{len(residual)} execution branches still active after depth {bound}; "
                f"scheduler did not halt (total residual mass "
                f"{sum(residual.values())!r})"
            )
        for fragment, mass in residual.items():
            completed[fragment] = completed.get(fragment, 0) + mass

    result = DiscreteMeasure(completed, require_probability=not mass_epsilon)
    if cache is not None:
        _perf_cache.measure_cache_put(automaton, scheduler, memo_key, result)
    return result


def cone_probability(
    automaton: PSIOA,
    scheduler: Scheduler,
    prefix: Fragment,
    *,
    max_depth: Optional[int] = None,
) -> object:
    """``epsilon_sigma(C_prefix)``: probability of the cone of ``prefix``.

    Computed directly along the prefix: the product over its steps of the
    scheduler's weight for the step's action times the transition's weight
    for the step's target (no unfolding needed).
    """
    if prefix.fstate != automaton.start:
        return 0
    mass: object = 1
    fragment = Fragment.initial(automaton.start)
    for source, action, target in prefix.steps():
        decision = scheduler.decide_checked(automaton, fragment)
        action_weight = decision(action)
        if action_weight == 0:
            return 0
        eta = automaton.transition(source, action)
        step_weight = eta(target)
        if step_weight == 0:
            return 0
        mass = mass * action_weight * step_weight
        fragment = fragment.extend(action, target)
    return mass
