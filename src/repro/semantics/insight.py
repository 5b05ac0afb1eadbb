"""Insight functions and their image measures (paper Definitions 3.4–3.7).

An insight function ``f_(E,A)`` maps executions of ``E || A`` into a
measurable space ``(G_E, F_G_E)`` that depends only on the environment, so
perceptions of different automata under the same environment can be
compared.  The paper's three standard instances are provided:

* ``trace`` — the external-action trace of the composition,
* ``accept`` — 1 iff a distinguished action occurs (from [3]; the classic
  cryptographic distinguisher bit),
* ``print`` — the environment-side projection from [7]: the subsequence of
  actions that are external actions of the *environment* at the moment they
  fire.

``f-dist`` (Definition 3.5) is the image of ``epsilon_sigma`` under the
insight function; with finite supports it is an exact pushforward.
:func:`f_dists` gives the f-dists of a whole scheduler family, unfolded
along its prefix tree (:func:`~repro.semantics.measure.sequence_measures`).

Stability by composition (Definition 3.7) — the property that ``E`` has no
more distinguishing power than ``E || B`` — holds for all three instances
because each factors through the executions of the larger composition; the
empirical checker :func:`check_stability_by_composition` validates the
inequality on concrete systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Optional, Tuple, Union

from repro.core.composition import ComposedPSIOA, compose
from repro.core.executions import Fragment
from repro.core.psioa import PSIOA
from repro.probability.measures import DiscreteMeasure, total_variation
from repro.semantics.measure import execution_measure, prefix_tree_measures, sequence_measures
from repro.semantics.schema import SequenceTree
from repro.semantics.scheduler import Scheduler

__all__ = [
    "InsightFunction",
    "trace_insight",
    "accept_insight",
    "print_insight",
    "compose_world",
    "f_dist",
    "f_dists",
    "check_stability_by_composition",
]


@dataclass(frozen=True)
class InsightFunction:
    """An insight function (Definition 3.4).

    ``apply(env, world, execution)`` maps an execution of the composition
    ``world = E || A`` to a value in ``G_E``.  The value space must not
    depend on ``A`` — only on ``E`` — which each provided instance
    guarantees structurally.
    """

    name: str
    apply: Callable[[PSIOA, ComposedPSIOA, Fragment], Hashable]

    def __call__(self, env: PSIOA, world: ComposedPSIOA, execution: Fragment) -> Hashable:
        return self.apply(env, world, execution)


def compose_world(env: PSIOA, automaton: PSIOA) -> ComposedPSIOA:
    """The canonical composition ``E || A`` with the environment first.

    Keeping the environment at index 0 lets insight functions project onto
    it positionally.
    """
    return compose(env, automaton)


def _trace(env: PSIOA, world: ComposedPSIOA, execution: Fragment) -> Hashable:
    return execution.trace(world.signature)


def trace_insight() -> InsightFunction:
    """The ``trace`` insight function: external-action traces of ``E || A``."""
    return InsightFunction("trace", _trace)


def accept_insight(accept_action: Hashable = "acc") -> InsightFunction:
    """The ``accept`` insight function of [3]/[4].

    Returns 1 iff ``accept_action`` occurs in the trace — the environment's
    distinguisher bit.
    """

    def apply(env: PSIOA, world: ComposedPSIOA, execution: Fragment) -> int:
        for source, action, _target in execution.steps():
            if action == accept_action and action in world.signature(source).external:
                return 1
        return 0

    return InsightFunction(f"accept[{accept_action!r}]", apply)


def print_insight() -> InsightFunction:
    """The ``print`` insight function of [7].

    Projects the execution onto the actions that are external actions of
    the *environment* at the moment they fire, judged at the environment's
    local state.  This is the perception the monotonicity-w.r.t.-creation
    results of [7] are stated for.
    """

    def apply(env: PSIOA, world: ComposedPSIOA, execution: Fragment) -> Hashable:
        index = world.component_index(env.name)
        out = []
        for source, action, _target in execution.steps():
            env_state = source[index]
            if action in env.signature(env_state).external:
                out.append(action)
        return tuple(out)

    return InsightFunction("print", apply)


def f_dist(
    insight: InsightFunction,
    env: PSIOA,
    automaton: PSIOA,
    scheduler: Scheduler,
    *,
    max_depth: Optional[int] = None,
    world: Optional[ComposedPSIOA] = None,
) -> DiscreteMeasure:
    """``f-dist_(E,A)(sigma)`` (Definition 3.5): the image of
    ``epsilon_sigma`` under ``f_(E,A)``.

    ``world`` may be supplied when the composition ``E || A`` was already
    built (it must have the environment as component 0).
    """
    if world is None:
        world = compose_world(env, automaton)
    measure = execution_measure(world, scheduler, max_depth=max_depth)
    return measure.map(lambda execution: insight(env, world, execution))


def f_dists(
    insight: InsightFunction,
    env: PSIOA,
    schedulers: Union[Iterable[Scheduler], SequenceTree],
    *,
    world: ComposedPSIOA,
) -> Iterator[Tuple[Scheduler, DiscreteMeasure]]:
    """``(sigma, f-dist_(E,A)(sigma))`` for each of ``schedulers``, in order,
    on the composition ``world = E || A`` (environment first).

    Each perception equals :func:`f_dist`'s item for item.  The measures
    come from :func:`~repro.semantics.measure.sequence_measures`, and each
    new one is mapped once: a scheduler whose measure object is reused gets
    the same perception object back.  A :class:`SequenceTree` is walked
    without the members below a node with no leaves
    (:func:`~repro.semantics.measure.prefix_tree_measures`).
    """

    def perceive(measure: DiscreteMeasure) -> DiscreteMeasure:
        return measure.map(lambda execution: insight(env, world, execution))

    if isinstance(schedulers, SequenceTree):
        return prefix_tree_measures(world, schedulers, image=perceive)
    return sequence_measures(world, schedulers, image=perceive)


def check_stability_by_composition(
    insight: InsightFunction,
    env: PSIOA,
    context: PSIOA,
    first: PSIOA,
    second: PSIOA,
    scheduler_first: Scheduler,
    scheduler_second: Scheduler,
    *,
    max_depth: Optional[int] = None,
) -> bool:
    """Empirical check of Definition 3.7 on a concrete quintuple.

    Verifies that the distinguishing power of ``E`` alone does not exceed
    that of ``E || B``: the total-variation distance of the ``(E, B||A_i)``
    perceptions is at most that of the ``(E || B, A_i)`` perceptions, for
    the given scheduler pair.
    """
    world_first = compose(env, context, first)
    world_second = compose(env, context, second)
    # Both views push forward the same executions: unfold each world once.
    measure_first = execution_measure(world_first, scheduler_first, max_depth=max_depth)
    measure_second = execution_measure(world_second, scheduler_second, max_depth=max_depth)

    # Perception of the small environment E (B folded into the system side).
    dist_small_1 = measure_first.map(lambda e: insight(env, world_first, e))
    dist_small_2 = measure_second.map(lambda e: insight(env, world_second, e))

    # Perception of the large environment E || B over the same executions:
    # both E and B (components 0 and 1) observe.
    def big_view(world):
        def apply(execution: Fragment):
            out = []
            for source, action, _target in execution.steps():
                env_sig = env.signature(source[0])
                ctx_sig = context.signature(source[1])
                if action in env_sig.external or action in ctx_sig.external:
                    out.append(action)
            return tuple(out)

        return apply

    dist_big_1 = measure_first.map(big_view(world_first))
    dist_big_2 = measure_second.map(big_view(world_second))

    small = total_variation(dist_small_1, dist_small_2)
    big = total_variation(dist_big_1, dist_big_2)
    return small <= big
