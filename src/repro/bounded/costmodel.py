"""Reference decoders and the operation-count cost model (Defs 4.1/4.2).

The paper's bound ``b`` quantifies the worst-case running time of the
deterministic Turing machines that decode an automaton (``M_start``,
``M_sig``, ``M_trans``, ``M_step``) and the probabilistic machine that
executes it (``M_state``); PCA add ``M_conf``, ``M_created``, ``M_hidden``.

We substitute Turing machines with *reference decoders*: Python routines
that operate on the actual bit-string encodings and charge one unit per
elementary bit operation to a :class:`CostMeter`.  Every routine is
linear-time in the encodings it touches, so measured costs have exactly the
additive structure the composition/hiding lemmas rely on (DESIGN.md §5).

The decoders are the specification.  :func:`operation_counts` is what
measures ``b``: it returns the same counts from encoding lengths, without
re-running ``M_sig`` once per machine and re-scanning the signature each
time.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.bounded.encoding import (
    SEPARATOR,
    encode_action,
    encode_bits,
    encode_state,
    encoded_length,
)
from repro.core.psioa import PSIOA
from repro.probability.measures import DiscreteMeasure

__all__ = ["CostMeter", "ReferenceDecoders", "operation_counts"]


class CostMeter:
    """Counts elementary operations (bit comparisons/copies) of a decoder run."""

    __slots__ = ("operations",)

    def __init__(self) -> None:
        self.operations = 0

    def charge(self, amount: int) -> None:
        self.operations += amount

    def compare(self, left: str, right: str) -> bool:
        """Bit-string equality at linear cost."""
        self.charge(min(len(left), len(right)) + 1)
        return left == right

    def scan(self, bits: str) -> None:
        """Read a bit string end to end."""
        self.charge(len(bits))

    def copy(self, bits: str) -> str:
        self.charge(len(bits))
        return bits


class ReferenceDecoders:
    """The decoding machines of Definition 4.1 for a concrete PSIOA.

    Each method performs the decision the definition requires, operating on
    encodings and charging the meter.  ``worst_case(q, a)`` runs every
    machine on the given state/action and returns the operation count —
    the quantity maximized by
    :func:`repro.bounded.bounds.measure_time_bound`.
    """

    def __init__(self, automaton: PSIOA) -> None:
        self.automaton = automaton

    # -- Definition 4.1 (2)(i): M_start -------------------------------------------

    def m_start(self, state: Hashable, meter: CostMeter) -> bool:
        """Decide whether ``state`` is the unique start state."""
        return meter.compare(encode_state(state), encode_state(self.automaton.start))

    # -- Definition 4.1 (2)(ii): M_sig ---------------------------------------------

    def m_sig(self, state: Hashable, action: Hashable, meter: CostMeter) -> Optional[str]:
        """Classify ``action`` at ``state``: 'in' / 'out' / 'int' / None.

        Scans the (finite) per-state signature, comparing encodings.
        """
        encoded = encode_action(action)
        signature = self.automaton.signature(state)
        meter.scan(encode_state(state))
        for kind, component in (
            ("in", signature.inputs),
            ("out", signature.outputs),
            ("int", signature.internals),
        ):
            for candidate in sorted(component, key=repr):
                if meter.compare(encoded, encode_action(candidate)):
                    return kind
        return None

    # -- Definition 4.1 (2)(iii): M_trans --------------------------------------------

    def m_trans(self, state: Hashable, action: Hashable, eta: DiscreteMeasure, meter: CostMeter) -> bool:
        """Decide whether ``(q, a, eta)`` is the transition of the automaton."""
        if self.m_sig(state, action, meter) is None:
            return False
        actual = self.automaton.transition(state, action)
        for target in sorted(set(actual.support()) | set(eta.support()), key=repr):
            meter.scan(encode_state(target))
            meter.scan(encode_bits(actual(target)))
            if actual(target) != eta(target):
                return False
        return True

    # -- Definition 4.1 (2)(iv): M_step -----------------------------------------------

    def m_step(self, state: Hashable, action: Hashable, target: Hashable, meter: CostMeter) -> bool:
        """Decide whether ``(q, a, q')`` is a step (``q' in supp(eta)``)."""
        if self.m_sig(state, action, meter) is None:
            return False
        eta = self.automaton.transition(state, action)
        encoded = encode_state(target)
        for candidate in sorted(eta.support(), key=repr):
            if meter.compare(encoded, encode_state(candidate)):
                return True
        return False

    # -- Definition 4.1 (3): M_state ------------------------------------------------------

    def m_state(self, state: Hashable, action: Hashable, meter: CostMeter) -> DiscreteMeasure:
        """Produce the next-state distribution (the probabilistic machine;
        we account for the full distribution rather than one sample so the
        bound covers every coin-flip outcome)."""
        if self.m_sig(state, action, meter) is None:
            raise KeyError(action)
        eta = self.automaton.transition(state, action)
        for target in sorted(eta.support(), key=repr):
            meter.scan(encode_state(target))
            meter.scan(encode_bits(eta(target)))
        return eta

    # -- aggregate -------------------------------------------------------------------------

    def worst_case(self, state: Hashable, action: Hashable) -> int:
        """Total operation count of running every machine on ``(q, a)``."""
        meter = CostMeter()
        self.m_start(state, meter)
        kind = self.m_sig(state, action, meter)
        if kind is not None:
            eta = self.automaton.transition(state, action)
            self.m_trans(state, action, eta, meter)
            for target in eta.support():
                self.m_step(state, action, target, meter)
            self.m_state(state, action, meter)
        return meter.operations


# -- counting path ------------------------------------------------------------------


def _scan_costs(lengths: Sequence[int]) -> List[int]:
    """``costs[i]``: what :meth:`CostMeter.compare` charges a scan of
    candidates with encoding lengths ``lengths`` that stops at index ``i``,
    i.e. ``sum over j <= i of min(lengths[i], lengths[j]) + 1``.

    Two Fenwick trees over the distinct lengths (count and total of the
    lengths scanned so far) give each prefix sum in O(log k), so a whole
    signature costs O(k log k) rather than O(k^2).
    """
    ranks = {length: rank for rank, length in enumerate(sorted(set(lengths)), 1)}
    size = len(ranks)
    counts = [0] * (size + 1)
    totals = [0] * (size + 1)
    costs = []
    for scanned, length in enumerate(lengths, 1):
        rank = node = ranks[length]
        while node <= size:
            counts[node] += 1
            totals[node] += length
            node += node & -node
        shorter = below = 0  # how many scanned lengths are <= length, and their sum
        node = rank
        while node:
            shorter += counts[node]
            below += totals[node]
            node -= node & -node
        costs.append(below + length * (scanned - shorter) + scanned)
    return costs


def _lookup_costs(candidates: Sequence[Hashable]) -> List[int]:
    """The scan cost of looking each candidate up in ``candidates`` (in that
    order): the scan stops at the first candidate with an equal encoding."""
    keys = [encode_bits(candidate) for candidate in candidates]
    costs = _scan_costs([len(key) for key in keys])
    if len(set(keys)) < len(keys):
        first: Dict[str, int] = {}
        for key, cost in zip(keys, costs):
            first.setdefault(key, cost)
        costs = [first[key] for key in keys]
    return costs


def _support_costs(eta: DiscreteMeasure) -> Tuple[int, int, int]:
    """One pass over ``supp(eta)``: ``(|supp|, body, step)`` with
    ``body = sum_t |<t>| + |<eta(t)>|`` and ``step`` the summed scan costs
    of ``M_step`` over every target.

    Summed over all targets of a ``repr``-sorted scan, each pair of
    candidates (and each candidate with itself) is compared once, at the
    length of the shorter one, so ``step`` does not depend on the order:
    sort by length and weigh the ``r``-th shortest by the ``k - r``
    candidates at least as long.  Only a target whose encoding repeats an
    earlier one (its scan stops early) needs the ordered scan.
    """
    support = tuple(eta.outcomes())
    keys = [encode_bits(target) for target in support]
    lengths = sorted(map(len, keys))
    k = len(lengths)
    body = sum(lengths) + sum(encoded_length(weight) for _, weight in eta.items())
    if len(set(keys)) < k:
        step = sum(_lookup_costs(sorted(support, key=repr)))
    else:
        step = sum(length * (k - rank) for rank, length in enumerate(lengths)) + k * (k + 1) // 2
    return k, body, step


def operation_counts(
    automaton: PSIOA, state: Hashable
) -> Iterator[Tuple[Hashable, DiscreteMeasure, int, int]]:
    """Yield ``(a, eta, count, |<tr>|)`` for every action ``a`` of
    ``sig(q)``, where ``count == ReferenceDecoders(automaton).worst_case(q, a)``
    and ``|<tr>| == transition_length(q, a, eta)``.

    ``worst_case`` runs ``M_start`` once, ``M_sig`` once on its own and once
    inside each of ``M_trans``, ``M_state`` and the ``|supp|`` runs of
    ``M_step``; ``M_trans`` and ``M_state`` each scan every target and its
    weight once, and each ``M_step`` scans the support up to its target::

        count = start_cmp + (3 + |supp|) * sig + 2 * sum_t (|<t>| + |<eta(t)>|) + step

    with ``start_cmp = min(|<q>|, |<start>|) + 1``, ``sig = |<q>| +`` the
    scan cost of ``a`` in the ``repr``-sorted inputs, outputs, internals,
    and ``step`` the summed scan costs of the targets in the ``repr``-sorted
    support (:func:`_support_costs`).  The signature is sorted once per
    state, ``transition`` is called once per action, and one pass over the
    support yields both ``count`` and ``|<tr>|``.
    """
    signature = automaton.signature(state)
    state_length = encoded_length(state)
    start_cmp = min(state_length, encoded_length(automaton.start)) + 1
    scan: List[Hashable] = []
    for component in (signature.inputs, signature.outputs, signature.internals):
        scan.extend(sorted(component, key=repr))
    for action, sig_cost in zip(scan, _lookup_costs(scan)):
        eta = automaton.transition(state, action)
        width, body, step = _support_costs(eta)
        count = start_cmp + (3 + width) * (state_length + sig_cost) + 2 * body + step
        # <tr> frames q, a and each (target, weight) pair with a separator.
        length = state_length + encoded_length(action) + body + len(SEPARATOR) * (2 * width + 1)
        yield action, eta, count, length
