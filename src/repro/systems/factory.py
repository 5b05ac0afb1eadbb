"""Seeded random automaton generation for property tests and benchmarks.

Generates valid finite PSIOA with controllable size: every generated
automaton satisfies the Definition 2.1 constraints by construction
(disjoint signature components, one probability measure per enabled
action).  All randomness flows through a seeded
:class:`repro.probability.rng.Generator`, so workloads are
bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, List, Optional, Sequence

from repro.core.psioa import TablePSIOA
from repro.core.signature import Signature
from repro.probability.measures import DiscreteMeasure, dirac
from repro.probability.rng import Generator
from repro.secure.structured import StructuredPSIOA, structure

__all__ = ["random_psioa", "random_structured"]


def random_psioa(
    name: Hashable,
    rng: Generator,
    *,
    n_states: int = 6,
    n_actions: int = 4,
    branching: int = 2,
    input_fraction: float = 0.3,
    action_prefix: Optional[Hashable] = None,
) -> TablePSIOA:
    """A random valid PSIOA.

    * states are ``0 .. n_states-1`` with start 0;
    * the action alphabet is ``(prefix, j)`` (prefix defaults to ``name``,
      keeping alphabets disjoint between automata by default);
    * each state enables a random non-empty subset of the alphabet, split
      into inputs and locally-controlled actions;
    * each enabled action gets a random dyadic distribution over at most
      ``branching`` target states (exact rational weights).
    """
    prefix = action_prefix if action_prefix is not None else name
    alphabet = [(prefix, j) for j in range(n_actions)]
    signatures = {}
    transitions = {}
    for state in range(n_states):
        count = rng.integers(1, n_actions + 1)
        chosen_idx = rng.choice(n_actions, size=count, replace=False)
        inputs: List = []
        outputs: List = []
        internals: List = []
        for j in sorted(chosen_idx):
            roll = rng.random()
            if roll < input_fraction:
                inputs.append(alphabet[j])
            elif roll < input_fraction + (1 - input_fraction) / 2:
                outputs.append(alphabet[j])
            else:
                internals.append(alphabet[j])
        signatures[state] = Signature(
            inputs=frozenset(inputs),
            outputs=frozenset(outputs),
            internals=frozenset(internals),
        )
        for action in inputs + outputs + internals:
            fan = rng.integers(1, branching + 1)
            targets = sorted(rng.choice(n_states, size=fan, replace=False))
            if len(targets) == 1:
                transitions[(state, action)] = dirac(targets[0])
            else:
                # Dyadic weights: uniform over 2^ceil(log2(fan)) slots merged.
                weight = Fraction(1, len(targets))
                transitions[(state, action)] = DiscreteMeasure(
                    {t: weight for t in targets}
                )
    return TablePSIOA(name, 0, signatures, transitions)


def random_structured(
    name: Hashable,
    rng: Generator,
    *,
    env_fraction: float = 0.5,
    **kwargs,
) -> StructuredPSIOA:
    """A random structured PSIOA: each external action is marked
    environment-facing with probability ``env_fraction`` (globally, so the
    split is state-independent)."""
    base = random_psioa(name, rng, **kwargs)
    external: set = set()
    for sig in base.signatures.values():
        external |= sig.external
    marked = frozenset(a for a in sorted(external, key=repr) if rng.random() < env_fraction)
    return structure(base, marked)
