"""Fault plans and the fault-injecting scheduler wrapper.

A :class:`FaultPlan` is a serializable, optionally seeded schedule of fault
events — "at scheduler step ``s``, fire fault action ``a``" (a crash input
of a :mod:`repro.faults.crash` wrapper, a recovery input, any enabled
action).  :class:`FaultyScheduler` wraps **any** existing scheduler
(Definition 3.1) and interleaves the plan's events into its decisions, so
every scheduler schema of the reproduction can be run under faults without
touching the schema: :func:`faulty_schema` lifts a whole
:class:`~repro.semantics.schema.SchedulerSchema` member-by-member.

Injection semantics: at raw step ``s`` (the fragment length), if the plan
holds an event for ``s`` whose action is currently enabled, the event fires
with probability 1; otherwise (including events whose action is disabled —
e.g. crashing an already-crashed automaton) the base scheduler decides, and
it is shown the fragment *with the fault steps filtered out*, so oblivious
and priority schedulers keep their step counting and the same base decision
sequence plays out around the injected faults.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, Sequence, Tuple

from repro.core.executions import Fragment
from repro.core.psioa import PSIOA
from repro.core.signature import Action
from repro.obs.metrics import counter as _counter, histogram as _histogram
from repro.probability.measures import SubDiscreteMeasure
from repro.semantics.schema import SchedulerSchema
from repro.semantics.scheduler import Scheduler

__all__ = ["FaultEvent", "FaultPlan", "FaultyScheduler", "faulty_schema"]

#: Fault instruments: injections actually fired, plans sampled, and the
#: seeds of the sampled plans (the run report records them for replay).
_FAULTS_INJECTED = _counter("faults.injected")
_PLANS_SAMPLED = _counter("faults.plans.sampled")
_PLAN_SEEDS = _histogram("faults.plan.seed")


@dataclass(frozen=True)
class FaultEvent:
    """One fault: at scheduler step ``step``, fire ``action``."""

    step: int
    action: Action

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"fault step {self.step!r} must be non-negative")


def _jsonify(value):
    """Encode a (possibly nested-tuple) action losslessly for JSON."""
    if isinstance(value, tuple):
        return {"t": [_jsonify(v) for v in value]}
    if isinstance(value, frozenset):
        raise TypeError("frozenset actions are not serializable in fault plans")
    return value


def _unjsonify(value):
    if isinstance(value, dict) and set(value) == {"t"}:
        return tuple(_unjsonify(v) for v in value["t"])
    return value


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, serializable fault schedule.

    ``events`` hold at most one fault per step (kept sorted); ``seed``
    records the generator seed when the plan was sampled, so a plan in an
    experiment log can be reproduced exactly.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None
    _by_step: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.step))
        steps = [e.step for e in ordered]
        if len(set(steps)) != len(steps):
            raise ValueError(f"multiple fault events on one step: {steps!r}")
        object.__setattr__(self, "events", ordered)
        object.__setattr__(self, "_by_step", {e.step: e.action for e in ordered})

    # -- construction ----------------------------------------------------------

    @staticmethod
    def of(*events: Tuple[int, Action]) -> "FaultPlan":
        """Explicit schedule from ``(step, action)`` pairs."""
        return FaultPlan(tuple(FaultEvent(step, action) for step, action in events))

    @staticmethod
    def bernoulli(
        actions: Sequence[Action],
        rate: float,
        horizon: int,
        *,
        seed: int,
    ) -> "FaultPlan":
        """Sample a plan from a seeded per-step Bernoulli process.

        At each step ``< horizon``, with probability ``rate`` one fault
        fires (the action drawn uniformly from ``actions``).  The same seed
        always yields the same plan.
        """
        if not 0 <= rate <= 1:
            raise ValueError(f"fault rate {rate!r} outside [0, 1]")
        actions = list(actions)
        if not actions:
            raise ValueError("bernoulli plan needs at least one fault action")
        rng = random.Random(seed)
        events = []
        for step in range(horizon):
            if rng.random() < rate:
                events.append(FaultEvent(step, actions[rng.randrange(len(actions))]))
        _PLANS_SAMPLED.inc()
        _PLAN_SEEDS.observe(seed)
        return FaultPlan(tuple(events), seed=seed)

    # -- queries ---------------------------------------------------------------

    @property
    def fault_actions(self) -> frozenset:
        """The alphabet of injected actions (used to filter fragments)."""
        return frozenset(e.action for e in self.events)

    def action_at(self, step: int) -> Optional[Action]:
        return self._by_step.get(step)

    def __len__(self) -> int:
        return len(self.events)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "events": [[e.step, _jsonify(e.action)] for e in self.events],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        payload = json.loads(text)
        events = tuple(
            FaultEvent(step, _unjsonify(action)) for step, action in payload["events"]
        )
        return FaultPlan(events, seed=payload.get("seed"))


def _strip_faults(fragment: Fragment, alphabet: frozenset) -> Fragment:
    """The fragment as the base scheduler sees it: fault steps removed.

    The result keeps the start state, the surviving actions, and the target
    states of the surviving steps — the last state is always the true
    current state, which is all base schedulers consult besides the length.
    """
    if not any(action in alphabet for action in fragment.actions):
        return fragment
    states = [fragment.states[0]]
    actions = []
    for _source, action, target in fragment.steps():
        if action in alphabet:
            states[-1] = target
            continue
        states.append(target)
        actions.append(action)
    return Fragment(tuple(states), tuple(actions))


class FaultyScheduler(Scheduler):
    """Wrap a scheduler so it executes a :class:`FaultPlan`.

    The wrapper is itself a scheduler in the sense of Definition 3.1 — it
    assigns Dirac weight to the planned fault action at the planned steps
    and delegates everywhere else — so the execution-measure machinery,
    the implementation checkers and the schema enumeration all apply to
    fault-injected runs unchanged.
    """

    def __init__(self, base: Scheduler, plan: FaultPlan, *, name: Hashable = None) -> None:
        self.base = base
        self.plan = plan
        self._alphabet = plan.fault_actions
        self.name = (
            name
            if name is not None
            else ("faulty", getattr(base, "name", None), plan.events)
        )

    def decide(self, automaton: PSIOA, fragment: Fragment) -> SubDiscreteMeasure:
        injected = self.plan.action_at(len(fragment))
        if injected is not None:
            enabled = automaton.signature(fragment.lstate).all_actions
            if injected in enabled:
                _FAULTS_INJECTED.inc()
                return SubDiscreteMeasure({injected: 1})
        return self.base.decide(automaton, _strip_faults(fragment, self._alphabet))

    def step_bound(self) -> Optional[int]:
        base_bound = self.base.step_bound()
        if base_bound is None:
            return None
        return base_bound + len(self.plan)


def faulty_schema(schema: SchedulerSchema, plan: FaultPlan) -> SchedulerSchema:
    """Lift a scheduler schema member-by-member under a fault plan, so the
    implementation checkers can quantify over fault-injected schedulers
    exactly as over the originals."""

    def members(automaton: PSIOA, bound: int) -> Iterable[Scheduler]:
        for member in schema.members(automaton, bound):
            yield FaultyScheduler(member, plan)

    def contains(automaton: PSIOA, scheduler: Scheduler) -> bool:
        return isinstance(scheduler, FaultyScheduler) and schema.contains(
            automaton, scheduler.base
        )

    return SchedulerSchema(f"{schema.name}+faults", members, contains)
