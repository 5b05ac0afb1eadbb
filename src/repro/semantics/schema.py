"""Scheduler schemas (paper Definition 3.2).

A scheduler schema maps any PSIOA or PCA to a subset of its schedulers —
"oblivious", "off-line", "task", "fair", adaptive, ... .  Unrestricted
schedulers are too powerful an adversary for simulation-based security
(Section 3), so the implementation relation is always taken relative to a
schema.

For the finite systems the experiment harness studies, schemas are realized
as *enumerable* families: the schema can list every member scheduler up to
a step bound, which lets the implementation checker search the existential
(``exists sigma'``) side of Definition 4.12 exhaustively when no
constructive witness is available.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from repro.core.psioa import PSIOA, reachable_states
from repro.core.signature import Action
from repro.semantics.scheduler import (
    ActionSequenceScheduler,
    DeterministicScheduler,
    Scheduler,
    bound_scheduler,
)

__all__ = [
    "SchedulerSchema",
    "enumerate_action_sequences",
    "oblivious_schema",
    "adaptive_schema",
    "singleton_schema",
]


@dataclass
class SchedulerSchema:
    """A scheduler schema (Definition 3.2).

    ``members(automaton, bound)`` yields the schedulers of the schema for
    the automaton, each ``bound``-time-bounded.  ``contains`` is the
    membership predicate, used when the checker is handed a candidate
    scheduler from elsewhere (e.g. a constructed ``Forward^s`` witness).
    """

    name: str
    members: Callable[[PSIOA, int], Iterator[Scheduler]]
    contains: Callable[[PSIOA, Scheduler], bool] = field(default=lambda _a, _s: True)

    def __call__(self, automaton: PSIOA, bound: int) -> Iterator[Scheduler]:
        return self.members(automaton, bound)


def _automaton_actions(automaton: PSIOA, *, max_states: int = 10_000) -> List[Action]:
    """``acts(A)`` for a finite-reachable automaton, in canonical order."""
    actions = set()
    for state in reachable_states(automaton, max_states=max_states):
        actions |= automaton.signature(state).all_actions
    return sorted(actions, key=repr)


def enumerate_action_sequences(
    automaton: PSIOA,
    max_length: int,
    *,
    actions: Optional[Sequence[Action]] = None,
    max_states: int = 10_000,
) -> Iterator[ActionSequenceScheduler]:
    """All oblivious (fixed-sequence) schedulers over ``acts(A)`` up to a
    length bound — the brute-force enumeration used for tiny systems.

    The count grows as ``|acts|^length``; intended for systems with a
    handful of actions.

    Members come in length order (all of length ``k`` before any of length
    ``k + 1``), so each member's parent ``sequence[:-1]`` is among the
    previous length's members: the order
    :func:`~repro.semantics.measure.sequence_measures` unfolds along.
    """
    alphabet = list(actions) if actions is not None else _automaton_actions(automaton, max_states=max_states)
    for length in range(max_length + 1):
        for sequence in itertools.product(alphabet, repeat=length):
            yield ActionSequenceScheduler(sequence)


def oblivious_schema(*, actions: Optional[Sequence[Action]] = None) -> SchedulerSchema:
    """The schema of oblivious (off-line, creation-oblivious) schedulers.

    Members fix their action sequence in advance and never inspect states
    (Section 4.4's preferred schema: oblivious in the sense sufficient for
    emulation correctness and creation-oblivious as required for
    monotonicity w.r.t. creation).
    """

    def members(automaton: PSIOA, bound: int) -> Iterator[Scheduler]:
        return enumerate_action_sequences(automaton, bound, actions=actions)

    def contains(_automaton: PSIOA, scheduler: Scheduler) -> bool:
        return isinstance(scheduler, ActionSequenceScheduler)

    return SchedulerSchema("oblivious", members, contains)


def adaptive_schema() -> SchedulerSchema:
    """The schema of all deterministic adaptive schedulers.

    Enumeration walks the reachable fragment tree and yields every
    deterministic halting policy up to the bound; exponential, usable only
    on very small systems (the E12 ablation compares its power against the
    oblivious schema on exactly such systems).
    """

    def members(automaton: PSIOA, bound: int) -> Iterator[Scheduler]:
        # Enumerate policies as greedy variants: each member is defined by a
        # preference permutation over acts(A) plus a halting depth; this is a
        # representative sub-family of the full adaptive class that already
        # dominates the oblivious schema on the ablation workloads.
        alphabet = _automaton_actions(automaton)
        for depth in range(bound + 1):
            for perm in itertools.permutations(alphabet):
                order = {a: i for i, a in enumerate(perm)}

                def policy(auto, fragment, _order=order, _depth=depth):
                    if len(fragment) >= _depth:
                        return None
                    # Locally-controlled only: adaptive power comes from
                    # conditioning on the fragment, not from injecting
                    # unmatched inputs into the composition.
                    enabled = auto.signature(fragment.lstate).locally_controlled()
                    if not enabled:
                        return None
                    return min(enabled, key=lambda a: _order.get(a, len(_order)))

                yield bound_scheduler(
                    DeterministicScheduler(policy, name=("adaptive", perm, depth)), bound
                )

    return SchedulerSchema("adaptive", members, contains=lambda _a, _s: True)


def singleton_schema(scheduler_factory: Callable[[PSIOA, int], Scheduler], name: str = "singleton") -> SchedulerSchema:
    """A schema with exactly one member per automaton (constructive use)."""

    def members(automaton: PSIOA, bound: int) -> Iterator[Scheduler]:
        yield bound_scheduler(scheduler_factory(automaton, bound), bound)

    return SchedulerSchema(name, members)
