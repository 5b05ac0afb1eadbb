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

:func:`sequence_measures` computes the same measures for a whole family of
oblivious schedulers at once.  The measure of the sequence ``s.a`` is that
of ``s`` with each full-length execution (a *leaf*) extended by ``a``
where ``a`` is enabled, so a family listed in length order (every schema of
:class:`~repro.semantics.scheduler.ActionSequenceScheduler` in this
package) is unfolded along its prefix tree, one level per member.
:func:`execution_measure` stays the specification: both paths expand a
level through the same :func:`_expand` and build equal measures, item for
item and in the same insertion order.
"""

from __future__ import annotations

from time import perf_counter_ns as _clock
from typing import Callable, Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

from repro.core.executions import Fragment
from repro.core.psioa import PSIOA
from repro.obs.metrics import counter as _counter, timer as _timer
from repro.obs.trace import NULL_SPAN as _NULL_SPAN, TRACER as _TRACER, span as _span
from repro.probability.measures import DiscreteMeasure
from repro.semantics.scheduler import ActionSequenceScheduler, Scheduler

#: Unfolding instruments: calls, frontier fragments expanded, transition
#: expansions (one per scheduled action whose target measure is enumerated).
#: Tallied in locals inside the loop and flushed once per unfolding.
_UNFOLD_CALLS = _counter("measure.unfold.calls")
_UNFOLD_FRAGMENTS = _counter("measure.unfold.fragments")
_UNFOLD_TRANSITIONS = _counter("measure.unfold.transitions")
#: Levels expanded: one per depth pass of an unfolding, and one per prefix
#: tree child that extends its parent's leaves (see sequence_measures).
_UNFOLD_STEPS = _counter("measure.unfold.steps")
#: Phase clock: one call per unfolding asked for.
_UNFOLD_TIME = _timer("measure.unfold")

__all__ = [
    "execution_measure",
    "sequence_measures",
    "cone_probability",
    "UnboundedUnfoldingError",
]


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
    _UNFOLD_CALLS.inc()
    fragments_expanded = 0
    transitions_expanded = 0
    levels = 0

    completed: Dict[Fragment, object] = {}
    residual: Dict[Fragment, object] = {}
    active: Dict[Fragment, object] = {Fragment.initial(automaton.start): 1}

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
        # One pass per depth, 0..bound inclusive.  At the depth bound the
        # pass collects residual continuation mass instead of extending.
        for depth in range(bound + 1):
            if not active:
                break
            levels += 1
            fragments_expanded += len(active)
            active, transitions = _expand(
                automaton,
                scheduler,
                active,
                completed,
                residual if depth == bound else None,
                mass_epsilon,
            )
            transitions_expanded += transitions
        if unfold_span is not _NULL_SPAN:
            unfold_span.set(fragments=fragments_expanded, transitions=transitions_expanded)
    _UNFOLD_FRAGMENTS.inc(fragments_expanded)
    _UNFOLD_TRANSITIONS.inc(transitions_expanded)
    _UNFOLD_STEPS.inc(levels)

    if residual:
        if not truncate:
            raise UnboundedUnfoldingError(
                f"{len(residual)} execution branches still active after depth {bound}; "
                f"scheduler did not halt (total residual mass "
                f"{sum(residual.values())!r})"
            )
        for fragment, mass in residual.items():
            completed[fragment] = completed.get(fragment, 0) + mass

    return DiscreteMeasure(completed, require_probability=not mass_epsilon)


class _Node(NamedTuple):
    """One prefix-tree node of :func:`sequence_measures`."""

    #: The mass that halted before the sequence's end.
    halted: Dict[Fragment, object]
    #: The executions of full length, with their reach probabilities.
    leaves: Dict[Fragment, object]
    measure: DiscreteMeasure
    #: ``image(measure)``, or None without an ``image``.
    mapped: object


def sequence_measures(
    automaton: PSIOA,
    schedulers: Iterable[Scheduler],
    *,
    image: Optional[Callable[[DiscreteMeasure], object]] = None,
) -> Iterator[Tuple[Scheduler, object]]:
    """Yield ``(sigma, execution_measure(automaton, sigma))`` for each of
    ``schedulers``, in order, unfolding oblivious ones along their prefix
    tree.

    The child ``s.a`` of an :class:`ActionSequenceScheduler` ``s`` (same
    ``local_only``) that was a member of the previous length is not unfolded
    from scratch: each leaf of ``s`` (an execution of length ``|s|``) is
    decided once by ``s.a`` and extended through ``a`` when enabled.  A
    child that extends no leaf has its parent's measure and gets the same
    object, so a parent with no leaf hands it on without a decision.  Any
    other scheduler (another class, or a sequence whose parent was not on
    the previous length, as in a filtered or reordered family) goes through
    :func:`execution_measure`.  Only the previous length's nodes are kept,
    and every measure is built as a :class:`DiscreteMeasure`, so its mass
    is checked.

    With ``image``, ``image(measure)`` is yielded in place of the measure;
    it is computed once per measure object, so a reused measure's image is
    reused too.
    """
    previous: Dict[tuple, _Node] = {}
    current: Dict[tuple, _Node] = {}
    length = -1
    for scheduler in schedulers:
        if type(scheduler) is not ActionSequenceScheduler:
            measure = execution_measure(automaton, scheduler)
            yield scheduler, measure if image is None else image(measure)
            continue
        sequence = scheduler.sequence
        if len(sequence) != length:
            # ``previous`` only ever holds members one action shorter.
            previous = current if len(sequence) == length + 1 else {}
            current = {}
            length = len(sequence)
        parent = previous.get((scheduler.local_only, sequence[:-1]))
        if parent is None:
            node = _leaf_split(execution_measure(automaton, scheduler), length, image)
        else:
            start = _clock()
            node = _extend_leaves(automaton, scheduler, parent, image) if parent.leaves else parent
            _UNFOLD_CALLS.inc()
            _UNFOLD_TIME.record(_clock() - start)
        current[(scheduler.local_only, sequence)] = node
        yield scheduler, node.measure if image is None else node.mapped


def _leaf_split(measure: DiscreteMeasure, length: int, image) -> _Node:
    """The node of a sequence of ``length`` actions, from its measure.

    The leaves are its executions of full length; a sequence scheduler
    halts on them with probability 1, so their weight is their reach
    probability.
    """
    halted: Dict[Fragment, object] = {}
    leaves: Dict[Fragment, object] = {}
    for fragment, weight in measure.items():
        (leaves if len(fragment) == length else halted)[fragment] = weight
    return _Node(halted, leaves, measure, None if image is None else image(measure))


def _extend_leaves(automaton: PSIOA, scheduler: Scheduler, parent: _Node, image) -> _Node:
    """The node of ``scheduler`` from its parent's: one level of
    :func:`_expand` over the parent's leaves.

    The insertion order is :func:`execution_measure`'s (halted before the
    parent's length, halted at it, then the new leaves), so float total
    variations over the measure sum in the same order.
    """
    completed = dict(parent.halted)
    leaves, transitions = _expand(automaton, scheduler, parent.leaves, completed, None, 0.0)
    _UNFOLD_FRAGMENTS.inc(len(parent.leaves))
    _UNFOLD_TRANSITIONS.inc(transitions)
    _UNFOLD_STEPS.inc()
    if not leaves:
        # Every leaf halted with its whole mass: ``completed`` lists the
        # parent's measure item for item, so that object is handed on.
        return _Node(completed, leaves, parent.measure, parent.mapped)
    measure = DiscreteMeasure({**completed, **leaves})
    return _Node(completed, leaves, measure, None if image is None else image(measure))


def _expand(
    automaton: PSIOA,
    scheduler: Scheduler,
    active: Dict[Fragment, object],
    completed: Dict[Fragment, object],
    residual: Optional[Dict[Fragment, object]],
    mass_epsilon: float,
) -> Tuple[Dict[Fragment, object], int]:
    """Expand one level of an unfolding: ``active`` maps the level's
    fragments to their reach probabilities.

    Each fragment is decided EXACTLY ONCE: the same decision object feeds
    its halting mass (added to ``completed``), its extensions and — when
    ``residual`` is given, at the depth bound — its continuation mass, so
    depth-bound fragments are not re-decided in a separate residual pass
    (tests/test_perf_differential.py locks this invariant by counting
    ``decide_checked`` invocations).  Returns the next level and the number
    of transitions expanded.  Each transition goes through
    ``automaton.transition``, so with the cache switch on it is memoized on
    the automaton.  Nothing else is memoized: each fragment is decided once
    per unfolding.
    """
    next_active: Dict[Fragment, object] = {}
    transitions = 0
    for fragment, mass in active.items():
        decision = scheduler.decide_checked(automaton, fragment)
        halt_mass = decision.halting_mass
        if halt_mass != 0:
            weight = mass * halt_mass
            completed[fragment] = completed.get(fragment, 0) + weight
        if residual is not None:
            # The scheduler may still halt exactly here (e.g. a script of
            # `bound` actions); any continuation mass means it genuinely
            # did not terminate.
            continue_mass = mass - mass * halt_mass
            if continue_mass != 0:
                residual[fragment] = continue_mass
            continue
        for action, action_weight in decision.items():
            transitions += 1
            eta = automaton.transition(fragment.lstate, action)
            branch_mass = mass * action_weight
            for target, target_weight in eta.items():
                extended = fragment.extend(action, target)
                weight = branch_mass * target_weight
                if mass_epsilon and weight <= mass_epsilon:
                    continue
                next_active[extended] = next_active.get(extended, 0) + weight
    return next_active, transitions


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
