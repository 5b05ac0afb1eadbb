"""Strong probabilistic simulation relations (the Segala [14] lineage).

The implementation relation of the paper is *observational* (no environment
can distinguish); the classical way to *prove* such statements is a
simulation relation between state spaces: a relation ``R`` over
``states(A) x states(B)`` such that

* the start states are related, and
* whenever ``qA R qB`` and ``A`` steps via ``a`` to the measure ``eta_A``,
  ``B`` enables ``a`` and steps to some ``eta_B`` with ``eta_A`` and
  ``eta_B`` related by the **lifting** of ``R`` — a joint weight
  distribution with the two measures as marginals, supported inside ``R``.

Lifting feasibility is a transportation problem: a coupling exists iff the
maximum flow through source -> supp(eta_A) -> supp(eta_B) -> sink saturates
every source edge.  :func:`_max_flow` solves it with Edmonds–Karp directly
on ``Fraction`` capacities (the number of augmentations is bounded by the
graph size, not the capacities), so there is no floating point anywhere
and a verdict is a proof on the instance.

``is_strong_simulation`` checks a candidate relation; the soundness
theorem — related states yield identical perception under any shared
scheduler that drives both sides with the same action choices — is
validated by the test suite on concrete refinements.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.psioa import PSIOA
from repro.probability.measures import DiscreteMeasure

__all__ = ["lifting_feasible", "is_strong_simulation", "simulation_counterexample"]

State = Hashable


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(value).limit_denominator(10 ** 12)


def _max_flow(
    residual: Dict[Hashable, Dict[Hashable, Fraction]], source: Hashable, sink: Hashable
) -> Fraction:
    """Edmonds–Karp: augment along BFS-shortest residual paths until none is
    left.  ``residual`` maps ``u -> {v: capacity}`` with a reverse entry for
    every edge, and is consumed.  O(V E) augmentations whatever the
    capacities, so exact ``Fraction`` arithmetic needs no scaling."""
    flow = Fraction(0)
    while True:
        parent: Dict[Hashable, Optional[Hashable]] = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, capacity in residual[u].items():
                if capacity > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        path = []
        v = sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push


def lifting_feasible(
    eta_a: DiscreteMeasure,
    eta_b: DiscreteMeasure,
    related: Callable[[State, State], bool],
) -> bool:
    """Decide whether ``eta_a`` and ``eta_b`` are related by the lifting of
    ``related`` — i.e. a coupling supported on related pairs exists.

    Exact: the transportation problem is solved as max-flow over the
    weights themselves (see :func:`_max_flow`).
    """
    weights_a = {x: _as_fraction(eta_a(x)) for x in sorted(eta_a.support(), key=repr)}
    weights_b = {y: _as_fraction(eta_b(y)) for y in sorted(eta_b.support(), key=repr)}
    total = sum(weights_a.values())
    if total != sum(weights_b.values()):
        return False

    residual: Dict[Hashable, Dict[Hashable, Fraction]] = {"source": {}, "sink": {}}

    def add_edge(u: Hashable, v: Hashable, capacity: Fraction) -> None:
        residual.setdefault(u, {})[v] = capacity
        residual.setdefault(v, {})[u] = Fraction(0)

    for x, weight in weights_a.items():
        add_edge("source", ("L", x), weight)
        for y in weights_b:
            if related(x, y):
                add_edge(("L", x), ("R", y), total)
    for y, weight in weights_b.items():
        add_edge(("R", y), "sink", weight)
    return _max_flow(residual, "source", "sink") == total


def is_strong_simulation(
    first: PSIOA,
    second: PSIOA,
    relation: Iterable[Tuple[State, State]] | Callable[[State, State], bool],
    *,
    pairs_to_check: Optional[Iterable[Tuple[State, State]]] = None,
    max_pairs: int = 50_000,
) -> bool:
    """Check that ``relation`` is a strong simulation from ``first`` to
    ``second``.

    ``relation`` is a set of pairs or a predicate.  The checked pairs are
    the reachable related pairs from the start pair (following ``first``'s
    steps and the matching coupling supports), or the explicit
    ``pairs_to_check``.
    """
    return simulation_counterexample(
        first, second, relation, pairs_to_check=pairs_to_check, max_pairs=max_pairs
    ) is None


def simulation_counterexample(
    first: PSIOA,
    second: PSIOA,
    relation: Iterable[Tuple[State, State]] | Callable[[State, State], bool],
    *,
    pairs_to_check: Optional[Iterable[Tuple[State, State]]] = None,
    max_pairs: int = 50_000,
) -> Optional[str]:
    """Like :func:`is_strong_simulation` but returns a witness string on
    failure (``None`` on success)."""
    if callable(relation):
        related = relation
    else:
        pair_set = set(relation)
        related = lambda x, y: (x, y) in pair_set

    if not related(first.start, second.start):
        return f"start states not related: ({first.start!r}, {second.start!r})"

    if pairs_to_check is not None:
        frontier: List[Tuple[State, State]] = list(pairs_to_check)
        seen: Set[Tuple[State, State]] = set(frontier)
        explore = False
    else:
        frontier = [(first.start, second.start)]
        seen = set(frontier)
        explore = True

    while frontier:
        q_a, q_b = frontier.pop()
        enabled_a = first.signature(q_a).all_actions
        enabled_b = second.signature(q_b).all_actions
        missing = enabled_a - enabled_b
        if missing:
            return (
                f"at related pair ({q_a!r}, {q_b!r}): actions "
                f"{sorted(map(repr, missing))} enabled in A but not in B"
            )
        for action in sorted(enabled_a, key=repr):
            eta_a = first.transition(q_a, action)
            eta_b = second.transition(q_b, action)
            if not lifting_feasible(eta_a, eta_b, related):
                return (
                    f"no coupling for action {action!r} from ({q_a!r}, {q_b!r}): "
                    f"lifting of the relation is infeasible"
                )
            if explore:
                for x in eta_a.support():
                    for y in eta_b.support():
                        if related(x, y) and (x, y) not in seen:
                            seen.add((x, y))
                            frontier.append((x, y))
                            if len(seen) > max_pairs:
                                raise RuntimeError(
                                    f"simulation exploration exceeded {max_pairs} pairs"
                                )
    return None
