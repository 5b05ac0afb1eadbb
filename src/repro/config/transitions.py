"""Preserving and intrinsic configuration transitions (paper Defs 2.13–2.14).

* The *preserving* transition ``C -a-> eta_p`` is the static step: the
  member automata with ``a`` in their current signature move jointly, the
  others stay, and the automaton set is unchanged.

* The *intrinsic* transition ``C =a=>_phi eta`` layers dynamics on top:
  the set ``phi`` of fresh automata is created with probability 1 (each at
  its start state), and the outcome is *reduced* — automata whose new
  signature is empty are destroyed, with their probability mass flowing to
  the reduced configuration (the ``eta_r`` construction of Definition 2.14).
"""

from __future__ import annotations

from time import perf_counter_ns as _clock
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.config.configuration import Configuration
from repro.core.psioa import PSIOA, PsioaError
from repro.core.signature import Action
from repro.obs.metrics import counter as _counter, timer as _timer
from repro.probability.measures import DiscreteMeasure, dirac, product

__all__ = ["preserving_transition", "intrinsic_transition"]

#: PCA transition-expansion instruments: one increment per expansion, plus
#: the support sizes enumerated while reducing intrinsic outcomes.
_PRESERVING_CALLS = _counter("pca.transitions.preserving")
_INTRINSIC_CALLS = _counter("pca.transitions.intrinsic")
_SUPPORT_ENUMERATED = _counter("pca.support.enumerated")
#: Phase clock: one call per transition asked for; the preserving step an
#: intrinsic transition takes inside is part of that call, not another one.
_TRANSITION_TIME = _timer("pca.transition")


def preserving_transition(configuration: Configuration, action: Action) -> DiscreteMeasure:
    """``C -a-> eta_p`` (Definition 2.13).

    Every member automaton with ``a`` in its current signature takes its own
    transition measure; the others contribute a Dirac factor.  The product
    measure over joint states is pushed onto configurations over the *same*
    automaton set (first bullet of Definition 2.13).
    """
    start = _clock()
    try:
        return _preserving(configuration, action)
    finally:
        _TRANSITION_TIME.record(_clock() - start)


def _preserving(configuration: Configuration, action: Action) -> DiscreteMeasure:
    _PRESERVING_CALLS.inc()
    if not configuration.is_compatible():
        raise PsioaError(
            f"preserving transition from incompatible configuration: "
            f"{configuration.incompatibility_reason()}"
        )
    if action not in configuration.signature().all_actions:
        raise PsioaError(f"action {action!r} not in sig-hat of {configuration!r}")
    members: List[Tuple[PSIOA, object]] = list(configuration.items())
    factors: List[DiscreteMeasure] = []
    for automaton, state in members:
        if action in automaton.signature(state).all_actions:
            factors.append(automaton.transition(state, action))
        else:
            factors.append(dirac(state))
    joint = product(*factors)

    automata = [a for a, _ in members]

    def to_configuration(joint_state: Tuple) -> Configuration:
        return Configuration(list(zip(automata, joint_state)))

    return joint.map(to_configuration)


def intrinsic_transition(
    configuration: Configuration,
    action: Action,
    created: Iterable[PSIOA] = (),
) -> DiscreteMeasure:
    """``C =a=>_phi eta`` (Definition 2.14).

    Parameters
    ----------
    configuration:
        A *reduced*, compatible configuration.
    action:
        An action of ``sig-hat(C)``.
    created:
        The creation set ``phi`` — PSIOA whose identifiers must be disjoint
        from ``auts(C)`` (creation is deterministic; probabilistic creation
        is modelled by branching *before* the creating action, per the
        paper's footnote 3).

    Returns the reduced measure ``eta_r``: created automata are appended at
    their start states to every outcome of the preserving transition
    (``eta_nr``), and each outcome is then reduced, destroyed automata
    dropping out with their mass merged (last bullet of Definition 2.14).
    """
    start = _clock()
    try:
        return _intrinsic(configuration, action, created)
    finally:
        _TRANSITION_TIME.record(_clock() - start)


def _intrinsic(
    configuration: Configuration, action: Action, created: Iterable[PSIOA]
) -> DiscreteMeasure:
    _INTRINSIC_CALLS.inc()
    if not configuration.is_reduced():
        raise PsioaError(f"intrinsic transition requires a reduced configuration: {configuration!r}")
    phi: Sequence[PSIOA] = tuple(created)
    phi_names = [a.name for a in phi]
    if len(set(phi_names)) != len(phi_names):
        raise PsioaError(f"duplicate identifiers in creation set: {phi_names!r}")
    clash = set(phi_names) & set(configuration.ids())
    if clash:
        raise PsioaError(f"creation set overlaps configuration: {sorted(map(repr, clash))}")

    eta_p = _preserving(configuration, action)

    fresh: List[Tuple[PSIOA, object]] = [(a, a.start) for a in phi]

    reduced_weights: Dict[Configuration, object] = {}
    outcomes_enumerated = 0
    for outcome, weight in eta_p.items():
        outcomes_enumerated += 1
        non_reduced = outcome.with_members(fresh)  # eta_nr outcome
        reduced = non_reduced.reduce()  # eta_r merges mass over reduce fibres
        reduced_weights[reduced] = reduced_weights.get(reduced, 0) + weight
    _SUPPORT_ENUMERATED.inc(outcomes_enumerated)
    return DiscreteMeasure(reduced_weights)
