"""Monte-Carlo cross-validation of the exact semantics.

The unfolding engine computes ``epsilon_sigma`` exactly; this module
*samples* scheduled runs with a seeded
:class:`repro.probability.rng.Generator` and checks that the
empirical image measures converge to the exact ones within Hoeffding
bounds.  This guards the exact engine against systematic bugs (a wrong
product order, a dropped halting branch) that unit tests on tiny automata
might miss, and provides the estimation path for systems too large to
unfold.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Optional

from repro.core.executions import Fragment
from repro.core.psioa import PSIOA
from repro.probability.measures import DiscreteMeasure, total_variation
from repro.probability.rng import Generator
from repro.probability.sampling import empirical_measure, sample
from repro.semantics.scheduler import Scheduler

__all__ = [
    "sample_execution",
    "empirical_f_dist",
    "hoeffding_radius",
    "crosscheck_f_dist",
]


def sample_execution(
    automaton: PSIOA,
    scheduler: Scheduler,
    rng: Generator,
    *,
    max_depth: int = 10_000,
) -> Fragment:
    """Sample one completed execution under the scheduler.

    Follows the generative process of ``epsilon_sigma``: at each fragment,
    draw from the scheduler's sub-measure (``None`` = halt), then from the
    chosen transition.
    """
    fragment = Fragment.initial(automaton.start)
    for _ in range(max_depth):
        decision = scheduler.decide_checked(automaton, fragment)
        action = sample(decision, rng)
        if action is None:
            return fragment
        eta = automaton.transition(fragment.lstate, action)
        target = sample(eta, rng)
        fragment = fragment.extend(action, target)
    raise RuntimeError(f"sampled execution exceeded {max_depth} steps without halting")


def empirical_f_dist(
    automaton: PSIOA,
    scheduler: Scheduler,
    value_of: Callable[[Fragment], Hashable],
    *,
    samples: int,
    rng: Generator,
) -> DiscreteMeasure:
    """The empirical image measure from ``samples`` i.i.d. runs."""
    values = [
        value_of(sample_execution(automaton, scheduler, rng)) for _ in range(samples)
    ]
    return empirical_measure(values)


def hoeffding_radius(samples: int, *, confidence: float = 0.999, support: int = 2) -> float:
    """A TV-distance radius containing the empirical measure w.h.p.

    Union-bounding Hoeffding over the ``support`` outcome probabilities:
    ``TV <= support/2 * sqrt(ln(2*support/alpha) / (2n))`` with probability
    at least ``confidence``.
    """
    alpha = 1.0 - confidence
    per_outcome = math.sqrt(math.log(2 * support / alpha) / (2 * samples))
    return 0.5 * support * per_outcome


def crosscheck_f_dist(
    automaton: PSIOA,
    scheduler: Scheduler,
    value_of: Callable[[Fragment], Hashable],
    exact: DiscreteMeasure,
    *,
    samples: int = 4000,
    seed: int = 0,
    confidence: float = 0.999,
) -> bool:
    """True when the empirical image measure lies within the Hoeffding
    radius of the exact one."""
    rng = Generator(seed)
    empirical = empirical_f_dist(automaton, scheduler, value_of, samples=samples, rng=rng)
    support = max(len(exact), len(empirical), 2)
    radius = hoeffding_radius(samples, confidence=confidence, support=support)
    return float(total_variation(exact, empirical)) <= radius
