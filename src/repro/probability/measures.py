"""Discrete (sub-)probability measures (paper Section 2.1).

A *discrete probability measure* on a countable set ``S`` is a measure
``eta`` on ``(S, 2^S)`` with ``eta(C) = sum_{c in C} eta({c})`` and total
mass 1.  ``Disc(S)`` is the set of such measures.  This module provides a
sparse, immutable representation together with the operations the framework
needs:

* Dirac measures ``delta_s`` (Section 2.1),
* product measures ``eta_1 (x) eta_2`` (Section 2.1),
* pushforward (image) measures, used for insight functions (Definition 3.5),
* convex combinations, used by randomized schedulers (Definition 3.1),
* total-variation distance, which realizes the supremum in the balanced
  scheduler relation (Definition 3.6),
* the correspondence ``eta <-f-> eta'`` of Definition 2.15, used by the
  top/down and bottom/up simulation constraints of PCA (Definition 2.16).

Weights are arbitrary ``numbers.Real`` values; exact arithmetic (``int``,
``fractions.Fraction``) flows through untouched so that downstream theorem
checks can assert exact equalities.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, Mapping, Tuple

from repro.obs.metrics import counter as _counter

#: Hot-path instruments (bound once; an event is one attribute increment).
_COMPOSE_CALLS = _counter("measure.compose.calls")
_CONVEX_CALLS = _counter("measure.convex.calls")
_CORRESPONDENCE_CHECKS = _counter("measure.correspondence.checks")

__all__ = [
    "DiscreteMeasure",
    "SubDiscreteMeasure",
    "dirac",
    "uniform",
    "bernoulli",
    "from_pairs",
    "product",
    "convex_combination",
    "pushforward",
    "total_variation",
    "measures_correspond",
    "correspondence_bijection",
]

Outcome = Hashable

#: Tolerance used when weights are floats.  Exact weights ignore it.
FLOAT_TOLERANCE = 1e-9


def _is_exact(value: Any) -> bool:
    """True when ``value`` participates in exact (rational) arithmetic."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


class DiscreteMeasure:
    """An immutable discrete measure with countable (finite) support.

    The measure is represented sparsely: only outcomes with non-zero weight
    are stored.  Instances are hashable and comparable by value, which makes
    them usable as transition targets inside automata tables.

    Parameters
    ----------
    weights:
        Mapping from outcome to weight.  Zero weights are dropped; negative
        weights are rejected.
    require_probability:
        When true (default), the total mass must equal 1 (within
        :data:`FLOAT_TOLERANCE` for floats).  Sub-probability measures (used
        by schedulers, Definition 3.1) set this to false via
        :class:`SubDiscreteMeasure`.
    """

    __slots__ = ("_weights", "_total", "_hash")

    def __init__(
        self,
        weights: Mapping[Outcome, Any],
        *,
        require_probability: bool = True,
    ) -> None:
        cleaned: Dict[Outcome, Any] = {}
        total: Any = 0
        for outcome, weight in weights.items():
            if weight < 0:
                raise ValueError(f"negative weight {weight!r} for outcome {outcome!r}")
            if weight == 0:
                continue
            cleaned[outcome] = weight
            total = total + weight
        if require_probability:
            if _is_exact(total):
                if total != 1:
                    raise ValueError(f"total mass {total!r} != 1 for a probability measure")
            elif abs(total - 1.0) > FLOAT_TOLERANCE:
                raise ValueError(f"total mass {total!r} != 1 for a probability measure")
        else:
            if _is_exact(total):
                if total > 1:
                    raise ValueError(f"total mass {total!r} > 1 for a sub-probability measure")
            elif total - 1.0 > FLOAT_TOLERANCE:
                raise ValueError(f"total mass {total!r} > 1 for a sub-probability measure")
        self._weights: Dict[Outcome, Any] = cleaned
        self._total = total
        self._hash: int | None = None

    # -- basic protocol -----------------------------------------------------

    def __call__(self, outcome: Outcome) -> Any:
        """Measure of the singleton ``{outcome}`` (paper's ``eta(s)``)."""
        return self._weights.get(outcome, 0)

    def probability_of(self, event: Iterable[Outcome]) -> Any:
        """Measure of an arbitrary event ``C subset S``."""
        total: Any = 0
        for outcome in set(event):
            total = total + self._weights.get(outcome, 0)
        return total

    def support(self) -> frozenset:
        """``supp(eta)``: outcomes with non-zero mass (Section 2.1)."""
        return frozenset(self._weights)

    def items(self) -> Iterator[Tuple[Outcome, Any]]:
        return iter(self._weights.items())

    def outcomes(self) -> Iterator[Outcome]:
        return iter(self._weights)

    @property
    def total_mass(self) -> Any:
        return self._total

    @property
    def halting_mass(self) -> Any:
        """``1 - eta(S)``: the deficiency of a sub-probability measure.

        For schedulers this is the probability of halting after the current
        fragment (Definition 3.1).
        """
        return 1 - self._total

    def is_dirac(self) -> bool:
        return len(self._weights) == 1 and self._total == 1

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[Outcome]:
        return iter(self._weights)

    def __contains__(self, outcome: Outcome) -> bool:
        return outcome in self._weights

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        if self._weights.keys() != other._weights.keys():
            return False
        for outcome, weight in self._weights.items():
            other_weight = other._weights[outcome]
            if _is_exact(weight) and _is_exact(other_weight):
                if weight != other_weight:
                    return False
            elif abs(weight - other_weight) > FLOAT_TOLERANCE:
                return False
        return True

    def __hash__(self) -> int:
        if self._hash is None:
            # Hash on support only; weight-level equality stays semantic.
            self._hash = hash(frozenset(self._weights.keys()))
        return self._hash

    # The lazily cached hash is salted per interpreter (PYTHONHASHSEED), so
    # it must never survive a pickle round-trip into another process — sweep
    # results ship measures across exactly that boundary.
    def __getstate__(self):
        return (self._weights, self._total)

    def __setstate__(self, state) -> None:
        self._weights = state[0]
        self._total = state[1]
        self._hash = None

    def __repr__(self) -> str:
        body = ", ".join(f"{o!r}: {w}" for o, w in sorted(self._weights.items(), key=repr))
        return f"DiscreteMeasure({{{body}}})"

    # -- operations ----------------------------------------------------------

    def map(self, function: Callable[[Outcome], Outcome]) -> "DiscreteMeasure":
        """Pushforward (image) measure under ``function``.

        This is the image-measure construction of Definition 3.5 (``f-dist``)
        restricted to measures with finite support.
        """
        image: Dict[Outcome, Any] = {}
        for outcome, weight in self._weights.items():
            target = function(outcome)
            image[target] = image.get(target, 0) + weight
        return DiscreteMeasure(image, require_probability=False if self._total != 1 else True)

    def product(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        """Product measure ``self (x) other`` over pairs (Section 2.1)."""
        return product(self, other)

    def condition(self, event: Iterable[Outcome]) -> "DiscreteMeasure":
        """Measure conditioned on ``event`` (renormalized restriction)."""
        event_set = set(event)
        restricted = {o: w for o, w in self._weights.items() if o in event_set}
        mass = sum(restricted.values())
        if mass == 0:
            raise ValueError("conditioning on a null event")
        if _is_exact(mass):
            scaled = {o: Fraction(w) / mass for o, w in restricted.items()}
        else:
            scaled = {o: w / mass for o, w in restricted.items()}
        return DiscreteMeasure(scaled)

    def scale(self, factor: Any) -> "SubDiscreteMeasure":
        """Scale all weights by ``factor in [0, 1]`` (sub-probability result)."""
        if factor < 0 or factor > 1:
            raise ValueError(f"scale factor {factor!r} outside [0, 1]")
        return SubDiscreteMeasure({o: w * factor for o, w in self._weights.items()})

    def as_probability(self) -> "DiscreteMeasure":
        """Re-validate as a full probability measure (mass 1)."""
        return DiscreteMeasure(dict(self._weights))

    def expectation(self, value: Callable[[Outcome], float]) -> float:
        """Expected value of a real-valued function of the outcome."""
        return sum(float(w) * value(o) for o, w in self._weights.items())


class SubDiscreteMeasure(DiscreteMeasure):
    """A discrete *sub*-probability measure: total mass at most 1.

    Used for scheduler decisions (``SubDisc(dtrans(A))`` in Definition 3.1),
    where the deficiency ``1 - sigma(alpha)(dtrans(A))`` is the probability
    of halting after the fragment ``alpha``.
    """

    __slots__ = ()

    def __init__(self, weights: Mapping[Outcome, Any]) -> None:
        super().__init__(weights, require_probability=False)

    @staticmethod
    def halt() -> "SubDiscreteMeasure":
        """The zero measure: halt with probability 1."""
        return SubDiscreteMeasure({})


# -- constructors -------------------------------------------------------------


def dirac(outcome: Outcome) -> DiscreteMeasure:
    """The Dirac measure ``delta_outcome`` (Section 2.1)."""
    return DiscreteMeasure({outcome: 1})


def uniform(outcomes: Iterable[Outcome], *, exact: bool = True) -> DiscreteMeasure:
    """Uniform measure over ``outcomes`` (exact rational weights by default)."""
    items = list(outcomes)
    if not items:
        raise ValueError("uniform measure over an empty set")
    if len(set(items)) != len(items):
        raise ValueError("uniform measure requires distinct outcomes")
    weight: Any = Fraction(1, len(items)) if exact else 1.0 / len(items)
    return DiscreteMeasure({o: weight for o in items})


def bernoulli(p: Any, *, true=True, false=False) -> DiscreteMeasure:
    """Two-point measure assigning ``p`` to ``true`` and ``1-p`` to ``false``."""
    if p == 0:
        return dirac(false)
    if p == 1:
        return dirac(true)
    return DiscreteMeasure({true: p, false: 1 - p})


def from_pairs(pairs: Iterable[Tuple[Outcome, Any]]) -> DiscreteMeasure:
    """Build a probability measure from (outcome, weight) pairs, summing duplicates."""
    weights: Dict[Outcome, Any] = {}
    for outcome, weight in pairs:
        weights[outcome] = weights.get(outcome, 0) + weight
    return DiscreteMeasure(weights)


def product(*measures: DiscreteMeasure) -> DiscreteMeasure:
    """Product measure over tuples: ``(eta_1 (x) ... (x) eta_n)(C1 x ... x Cn)
    = eta_1(C1) ... eta_n(Cn)`` (Section 2.1).

    The outcome space is the Cartesian product; outcomes are tuples.
    """
    _COMPOSE_CALLS.inc()
    if not measures:
        return dirac(())
    weights: Dict[Outcome, Any] = {(): 1}
    for eta in measures:
        new_weights: Dict[Outcome, Any] = {}
        for prefix, prefix_weight in weights.items():
            for outcome, weight in eta.items():
                new_weights[prefix + (outcome,)] = prefix_weight * weight
        weights = new_weights
    return DiscreteMeasure(weights, require_probability=all(m.total_mass == 1 for m in measures))


def convex_combination(
    components: Iterable[Tuple[Any, DiscreteMeasure]],
) -> DiscreteMeasure:
    """Mixture ``sum_i p_i . eta_i`` where the ``p_i`` sum to at most 1.

    Returns a probability measure when the coefficients sum to exactly 1 and
    every component is a probability measure; otherwise a sub-probability
    measure is returned.
    """
    _CONVEX_CALLS.inc()
    weights: Dict[Outcome, Any] = {}
    coefficient_total: Any = 0
    probability = True
    for coefficient, eta in components:
        if coefficient < 0:
            raise ValueError("negative mixture coefficient")
        coefficient_total = coefficient_total + coefficient
        if eta.total_mass != 1:
            probability = False
        for outcome, weight in eta.items():
            weights[outcome] = weights.get(outcome, 0) + coefficient * weight
    if probability and coefficient_total == 1:
        return DiscreteMeasure(weights)
    return SubDiscreteMeasure(weights)


def pushforward(eta: DiscreteMeasure, function: Callable[[Outcome], Outcome]) -> DiscreteMeasure:
    """Module-level alias of :meth:`DiscreteMeasure.map`."""
    return eta.map(function)


# -- comparisons ---------------------------------------------------------------


def total_variation(eta: DiscreteMeasure, theta: DiscreteMeasure) -> Any:
    """Total-variation distance ``sup_C |eta(C) - theta(C)|``.

    Definition 3.6 bounds, over every countable family of insight values, the
    absolute sum of pointwise differences; for discrete measures with finite
    support that supremum is exactly the total-variation distance computed
    here (take the family of outcomes where one measure exceeds the other).
    For sub-probability measures the halting deficiencies are treated as mass
    on a distinguished extra point, so two schedulers that halt with
    different probabilities are distinguishable.
    """
    positive: Any = 0
    negative: Any = 0
    outcomes = set(eta.outcomes()) | set(theta.outcomes())
    for outcome in outcomes:
        diff = eta(outcome) - theta(outcome)
        if diff > 0:
            positive = positive + diff
        else:
            negative = negative - diff
    halt_diff = eta.halting_mass - theta.halting_mass
    if halt_diff > 0:
        positive = positive + halt_diff
    else:
        negative = negative - halt_diff
    return positive if positive >= negative else negative


def correspondence_bijection(
    eta: DiscreteMeasure,
    theta: DiscreteMeasure,
    function: Callable[[Outcome], Outcome],
) -> Dict[Outcome, Outcome]:
    """Return the support bijection witnessing ``eta <-f-> theta`` (Def 2.15).

    Raises ``ValueError`` when the correspondence fails:

    * the restriction of ``function`` to ``supp(eta)`` must be a bijection
      onto ``supp(theta)``;
    * for every ``q in supp(eta)``: ``eta(q) == theta(function(q))``.
    """
    _CORRESPONDENCE_CHECKS.inc()
    mapping: Dict[Outcome, Outcome] = {}
    images = set()
    for outcome in eta.support():
        image = function(outcome)
        if image in images:
            raise ValueError(f"function not injective on support: duplicate image {image!r}")
        images.add(image)
        mapping[outcome] = image
        expected = eta(outcome)
        actual = theta(image)
        if _is_exact(expected) and _is_exact(actual):
            if expected != actual:
                raise ValueError(
                    f"weight mismatch at {outcome!r}: eta={expected!r}, theta(f(q))={actual!r}"
                )
        elif abs(expected - actual) > FLOAT_TOLERANCE:
            raise ValueError(
                f"weight mismatch at {outcome!r}: eta={expected!r}, theta(f(q))={actual!r}"
            )
    if images != set(theta.support()):
        missing = set(theta.support()) - images
        raise ValueError(f"function is not onto supp(theta); missing images {missing!r}")
    return mapping


def measures_correspond(
    eta: DiscreteMeasure,
    theta: DiscreteMeasure,
    function: Callable[[Outcome], Outcome],
) -> bool:
    """Boolean form of :func:`correspondence_bijection`."""
    try:
        correspondence_bijection(eta, theta, function)
    except ValueError:
        return False
    return True
