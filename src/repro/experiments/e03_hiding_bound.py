"""E3 — Lemma 4.5/B.3: hiding a recognizable action set preserves
boundedness: ``b(hide(A, S)) <= c_hide * (b + b')``.

Workload: seeded random PSIOA with a sweep over the fraction of outputs
hidden; ``b'`` is the measured recognizer bound of the hidden set
(Definition 4.4).
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.bounded.bounds import hiding_constant, measure_time_bound, recognizer_bound
from repro.core.renaming import hide_psioa
from repro.experiments.common import ExperimentReport
from repro.probability.rng import Generator
from repro.systems.factory import random_psioa

C_HIDE_CEILING = 2.0


def run(*, fast: bool = True) -> ExperimentReport:
    sizes = [4, 8] if fast else [4, 8, 16, 32]
    fractions = [0.0, 0.5, 1.0]
    rows = []
    constants = []
    for n in sizes:
        rng = Generator(300 + n)
        automaton = random_psioa(("H", n), rng, n_states=n, n_actions=max(3, n // 2))
        outputs = sorted(
            {a for sig in automaton.signatures.values() for a in sig.outputs}, key=repr
        )
        base_bound = measure_time_bound(automaton, states=range(n))
        for fraction in fractions:
            hidden_set = outputs[: int(len(outputs) * fraction)]
            b_prime = recognizer_bound(hidden_set)
            hidden = hide_psioa(automaton, lambda q: set(hidden_set))
            hidden_bound = measure_time_bound(hidden, states=range(n))
            c = hiding_constant(base_bound, b_prime, hidden_bound)
            constants.append(c)
            rows.append((n, fraction, base_bound, b_prime, hidden_bound, round(c, 4)))
    passed = max(constants) <= C_HIDE_CEILING
    table = render_table(
        "E3: hiding bound (Lemma 4.5/B.3)",
        ["states", "hidden frac", "b", "b' (recognizer)", "b(hide(A,S))", "c = bh/(b+b')"],
        rows,
        note=f"claim: c <= c_hide = {C_HIDE_CEILING}; max observed = {max(constants):.4f}",
    )
    return ExperimentReport(
        "E3",
        "hiding of bounded automata is c_hide*(b+b')-bounded",
        table,
        passed,
        data={"constants": constants, "ceiling": C_HIDE_CEILING},
    )
