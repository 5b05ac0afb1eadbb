"""Measuring time bounds of PSIOA and PCA (paper Definitions 4.1, 4.2, 4.4;
Lemmas 4.3, 4.5, B.1–B.3).

``measure_time_bound(A)`` returns the smallest ``b`` for which the automaton
is ``b``-time-bounded under the reference cost model: the maximum over
reachable states and enabled actions of

* the encoding lengths of every automaton part (Definition 4.1 (1)), and
* the operation counts of every decoding/execution machine
  (Definition 4.1 (2)–(3)).

The composition and hiding lemmas then become *measurable* statements:
:func:`composition_constant` and :func:`hiding_constant` compute the ratio
``b(A1||A2) / (b1 + b2)`` (resp. ``b(hide(A,S)) / (b + b')``) whose
boundedness by universal constants ``c_comp`` / ``c_hide`` is what
experiments E1–E3 verify across workload sweeps.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional, Sequence

from repro.bounded.costmodel import operation_counts
from repro.bounded.encoding import (
    configuration_length,
    encoded_length,
)
from repro.config.pca import PCA
from repro.core.psioa import PSIOA, reachable_states
from repro.core.signature import Action

__all__ = [
    "measure_time_bound",
    "measure_pca_time_bound",
    "is_time_bounded",
    "recognizer_bound",
    "composition_constant",
    "hiding_constant",
]

State = Hashable


def _universe(automaton: PSIOA, states: Optional[Iterable[State]], max_states: int):
    return list(states) if states is not None else reachable_states(automaton, max_states=max_states)


def measure_time_bound(
    automaton: PSIOA,
    *,
    states: Optional[Iterable[State]] = None,
    max_states: int = 50_000,
) -> int:
    """The measured bound ``b`` of Definition 4.1 for a finite-reachable PSIOA.

    Maximizes, over reachable ``q`` and ``a in sig-hat(A)(q)``:

    1. *automaton parts*: ``|<q>|``, ``|<a>|``, ``|<tr>|``;
    2. *decoding* and 3. *determining the next state*: the reference-decoder
       operation counts, computed by
       :func:`~repro.bounded.costmodel.operation_counts` (equal to
       :meth:`~repro.bounded.costmodel.ReferenceDecoders.worst_case`).
    """
    bound = encoded_length(automaton.start)
    for state in _universe(automaton, states, max_states):
        bound = max(bound, encoded_length(state))
        for action, _, count, length in operation_counts(automaton, state):
            bound = max(bound, encoded_length(action), length, count)
    return bound


def measure_pca_time_bound(
    pca: PCA,
    *,
    states: Optional[Iterable[State]] = None,
    max_states: int = 50_000,
) -> int:
    """The measured bound of Definition 4.2 for a finite-reachable PCA.

    ``psioa(X)`` must be bounded (Definition 4.1) and additionally the
    encodings of ``config(X)(q)``, ``hidden-actions(X)(q)`` and
    ``created(X)(q)(a)`` must fit in ``b``, with their decoders
    (``M_conf``, ``M_created``, ``M_hidden``) running within ``b``; the
    decoders here are output-linear, so the operation count is charged as
    the produced encoding length.
    """
    universe = _universe(pca, states, max_states)
    bound = measure_time_bound(pca, states=universe)
    for state in universe:
        configuration = pca.config(state)
        conf_len = configuration_length(configuration)
        hidden = pca.hidden_actions(state)
        hidden_len = sum(encoded_length(a) for a in hidden)
        bound = max(bound, conf_len, hidden_len)
        for action in pca.signature(state).all_actions:
            created = pca.created(state, action)
            created_len = sum(encoded_length(a.name) for a in created)
            # M_conf / M_created / M_hidden run in output-linear time.
            bound = max(bound, conf_len + created_len + hidden_len)
    return bound


def is_time_bounded(
    automaton: PSIOA,
    b: int,
    *,
    states: Optional[Iterable[State]] = None,
    max_states: int = 50_000,
) -> bool:
    """``A`` is ``b``-time-bounded (Definition 4.1 / 4.2)."""
    if isinstance(automaton, PCA):
        return measure_pca_time_bound(automaton, states=states, max_states=max_states) <= b
    return measure_time_bound(automaton, states=states, max_states=max_states) <= b


def recognizer_bound(actions: Sequence[Action]) -> int:
    """The bound ``b'`` of a recognizer for an action set (Definition 4.4).

    The reference recognizer compares a candidate encoding against each
    member, so its worst-case time (and description size) is the total
    encoded length of the set, plus one unit for the empty set.
    """
    return sum(encoded_length(a) for a in actions) + 1


def composition_constant(
    component_bounds: Sequence[int],
    composed_bound: int,
) -> float:
    """The empirical constant of Lemma 4.3: ``b(A1||...||An) / sum(b_i)``.

    Lemma 4.3 (and B.1/B.2) asserts the existence of a universal ``c_comp``
    such that this ratio never exceeds it; experiment E1/E2 computes it
    across a sweep and reports the max.
    """
    total = sum(component_bounds)
    if total <= 0:
        raise ValueError("component bounds must be positive")
    return composed_bound / total


def hiding_constant(base_bound: int, recognizer: int, hidden_bound: int) -> float:
    """The empirical constant of Lemma 4.5: ``b(hide(A,S)) / (b + b')``."""
    total = base_bound + recognizer
    if total <= 0:
        raise ValueError("bounds must be positive")
    return hidden_bound / total
