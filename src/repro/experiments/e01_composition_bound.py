"""E1 — Lemma 4.3/B.1: the composition of bounded PSIOA is bounded, with a
universal constant: ``b(A1||A2) <= c_comp * (b1 + b2)``.

Workload: seeded random PSIOA pairs over disjoint alphabets, swept across
state-space sizes.  For each pair we measure the reference-cost bounds of
the components and of their composition and report the implied constant;
the lemma holds when the constant stays below a size-independent ceiling.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.bounded.bounds import composition_constant, measure_time_bound
from repro.core.composition import compose
from repro.experiments.common import ExperimentReport
from repro.probability.rng import Generator
from repro.systems.factory import random_psioa

#: The universal ceiling asserted for the reference cost model.  The proofs
#: of Lemma B.1 give small constants (framing doubles encodings, decoders
#: scan both halves); 8 is a safe, size-independent bound for this model.
C_COMP_CEILING = 8.0


def run(*, fast: bool = True) -> ExperimentReport:
    sizes = [2, 4, 8, 16] if fast else [2, 4, 8, 16, 32, 64]
    rows = []
    constants = []
    for n in sizes:
        rng = Generator(100 + n)
        left = random_psioa(("L", n), rng, n_states=n, n_actions=max(2, n // 2))
        right = random_psioa(("R", n), rng, n_states=n, n_actions=max(2, n // 2))
        b1 = measure_time_bound(left, states=range(n))
        b2 = measure_time_bound(right, states=range(n))
        states = [(a, b) for a in range(n) for b in range(n)]
        b12 = measure_time_bound(compose(left, right), states=states)
        c = composition_constant([b1, b2], b12)
        constants.append(c)
        rows.append((n, b1, b2, b12, round(c, 4)))
    passed = max(constants) <= C_COMP_CEILING
    table = render_table(
        "E1: PSIOA composition bound (Lemma 4.3/B.1)",
        ["states/side", "b1", "b2", "b(A1||A2)", "c = b12/(b1+b2)"],
        rows,
        note=f"claim: c <= c_comp = {C_COMP_CEILING} for every size; max observed = {max(constants):.4f}",
    )
    return ExperimentReport(
        "E1",
        "composition of bounded PSIOA is c_comp*(b1+b2)-bounded",
        table,
        passed,
        data={"constants": constants, "ceiling": C_COMP_CEILING},
    )
