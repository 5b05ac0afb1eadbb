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
from repro.semantics.insight import InsightFunction, f_dist
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
    from repro.semantics.insight import compose_world

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

    The (environment, scheduler) grid is fanned across
    :func:`repro.perf.parallel.parallel_map` on the configured execution
    backend (else serial).
    The winner is reduced **in enumeration order** with a
    strictly-greater comparison, so the result — advantage, witnessing
    environment and scheduler — is identical at every parallelism and on
    every backend.
    """
    from repro.perf.parallel import parallel_map
    from repro.semantics.insight import compose_world

    jobs = []
    for env in environments:
        world_first = compose_world(env, first)
        for scheduler in schema(world_first, bound):
            jobs.append((env, world_first, scheduler))
    if not jobs:
        raise ValueError("empty environment universe")

    def evaluate(job):
        env, world_first, scheduler = job
        dist_first = f_dist(insight, env, first, scheduler, world=world_first)
        if paired:
            dist_second = f_dist(insight, env, second, scheduler)
            advantage = total_variation(dist_first, dist_second)
        else:
            world_second = compose_world(env, second)
            candidates = list(schema(world_second, bound))
            advantage = min(
                total_variation(
                    dist_first, f_dist(insight, env, second, c, world=world_second)
                )
                for c in candidates
            )
        # Only picklable data crosses the fork boundary back to the parent.
        return (advantage, env.name, getattr(scheduler, "name", repr(scheduler)))

    best: Optional[DistinguisherResult] = None
    for advantage, env_name, scheduler_name in parallel_map(evaluate, jobs):
        if best is None or advantage > best.advantage:
            best = DistinguisherResult(advantage, env_name, scheduler_name)
    return best
