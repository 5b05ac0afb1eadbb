"""Best-distinguisher search.

The implementation relation says *no* (environment, scheduler) pair can
tell two systems apart beyond epsilon; the contrapositive tool is a search
for the *most* distinguishing pair.  Used by the scheduler-power ablation
(E12) and by negative controls (the broken channel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.psioa import PSIOA
from repro.probability.measures import total_variation
from repro.semantics.insight import InsightFunction, compose_world, f_dists
from repro.semantics.schema import SchedulerSchema

__all__ = ["DistinguisherResult", "best_distinguisher"]


@dataclass(frozen=True)
class DistinguisherResult:
    """The maximal advantage found and the witnessing pair."""

    advantage: object
    environment: object
    scheduler: object

    def __float__(self) -> float:
        return float(self.advantage)


def estimated_perception_distance(
    insight: InsightFunction,
    env: PSIOA,
    first: PSIOA,
    second: PSIOA,
    scheduler,
    *,
    samples: int = 4000,
    seed: int = 0,
):
    """Monte-Carlo estimate of the perception distance with a Hoeffding
    radius — for worlds too large to unfold exactly.

    Returns ``(estimate, radius)``: with probability ≥ 99.9% the true
    distance lies within ``radius`` of a value whose empirical measures
    were sampled here (the radius covers both empirical measures).
    """
    from repro.analysis.montecarlo import empirical_f_dist, hoeffding_radius
    from repro.probability.rng import Generator

    world_first = compose_world(env, first)
    world_second = compose_world(env, second)
    rng = Generator(seed)
    dist_first = empirical_f_dist(
        world_first,
        scheduler,
        lambda e: insight(env, world_first, e),
        samples=samples,
        rng=rng,
    )
    dist_second = empirical_f_dist(
        world_second,
        scheduler,
        lambda e: insight(env, world_second, e),
        samples=samples,
        rng=rng,
    )
    support = max(len(dist_first), len(dist_second), 2)
    radius = 2 * hoeffding_radius(samples, support=support)
    return float(total_variation(dist_first, dist_second)), radius


def best_distinguisher(
    first: PSIOA,
    second: PSIOA,
    *,
    schema: SchedulerSchema,
    insight: InsightFunction,
    environments: Sequence[PSIOA],
    bound: int,
    paired: bool = True,
) -> DistinguisherResult:
    """Search for ``max_{E, sigma} TV(f-dist(E,A,sigma), f-dist(E,B,sigma))``.

    With ``paired=True`` the same scheduler object drives both worlds (the
    distinguishing-advantage reading, appropriate when both worlds accept
    the same action alphabet); with ``paired=False`` the second world is
    driven by its own schema enumeration and the *minimum* over it is taken
    (the implementation-relation reading).

    Each environment's worlds ``E||A`` and ``E||B`` are composed once and
    perceived through :func:`~repro.semantics.insight.f_dists` (equal to
    ``f_dist`` item for item), which unfolds an oblivious family along its
    prefix tree; unpaired, the candidates' perceptions are taken once per
    environment, not once per ``sigma``.  The winner is reduced **in
    enumeration order** with a strictly-greater comparison, so the
    witnessing environment and scheduler are the first to reach the
    maximal advantage.
    """
    best: Optional[DistinguisherResult] = None
    for env in environments:
        world_first = compose_world(env, first)
        world_second = compose_world(env, second)
        schedulers = list(schema(world_first, bound))
        perceived = f_dists(insight, env, schedulers, world=world_first)
        if paired:
            theirs = f_dists(insight, env, schedulers, world=world_second)
            scored = (
                (scheduler, total_variation(dist, other))
                for (scheduler, dist), (_same, other) in zip(perceived, theirs)
            )
        else:
            theirs = f_dists(insight, env, schema(world_second, bound), world=world_second)
            candidates = [other for _candidate, other in theirs]
            scored = (
                (scheduler, min(total_variation(dist, other) for other in candidates))
                for scheduler, dist in perceived
            )
        for scheduler, advantage in scored:
            if best is None or advantage > best.advantage:
                name = getattr(scheduler, "name", repr(scheduler))
                best = DistinguisherResult(advantage, env.name, name)
    if best is None:
        raise ValueError("empty environment universe")
    return best
