"""E7 — Lemma 4.23/C.1: structured PCA are closed under composition —
the derived ``EAct`` of the composition equals
``EAct(config) \\ hidden-actions`` at every reachable state.

Workload: randomized pairs of structured PCA (spawning structured coins
with disjoint per-instance alphabets, with and without hiding), composed
and re-validated against the Definition 4.22 constraint and the full PCA
constraint suite of Definition 2.16.
"""

from __future__ import annotations

from fractions import Fraction

from repro.analysis.report import render_table
from repro.config.pca import CanonicalPCA, hide_pca
from repro.config.validate import validate_pca
from repro.experiments.common import ExperimentReport
from repro.probability.rng import Generator
from repro.secure.structured import (
    check_structured_pca_constraint,
    compose_structured_pca,
    structure_pca,
)
from repro.systems.coin import coin
from repro.secure.structured import structure


def _structured_coin_pca(tag, p, *, hide_result=False):
    member = structure(
        coin(
            ("c", tag),
            p,
            toss=("toss", tag),
            head=("head", tag),
            tail=("tail", tag),
        ),
        {("head", tag), ("tail", tag)},
    )
    base_pca = CanonicalPCA(("pca", tag), [member])
    if hide_result:
        hidden = hide_pca(
            base_pca,
            lambda q, _t=tag: {("head", _t)} & set(base_pca.signature(q).outputs),
        )
        return structure_pca(hidden)
    return structure_pca(base_pca)


def run(*, fast: bool = True) -> ExperimentReport:
    trials = 6 if fast else 20
    rng = Generator(7)
    rows = []
    all_ok = True
    for trial in range(trials):
        p_left = Fraction(rng.integers(1, 8), 8)
        p_right = Fraction(rng.integers(1, 8), 8)
        hide_left = bool(rng.integers(0, 2))
        hide_right = bool(rng.integers(0, 2))
        left = _structured_coin_pca((trial, "L"), p_left, hide_result=hide_left)
        right = _structured_coin_pca((trial, "R"), p_right, hide_result=hide_right)
        composed = compose_structured_pca(left, right)
        constraint_ok = check_structured_pca_constraint(composed)
        try:
            validate_pca(composed.pca)
            pca_ok = True
        except Exception:
            pca_ok = False
        ok = constraint_ok and pca_ok
        all_ok = all_ok and ok
        rows.append(
            (trial, str(p_left), str(p_right), hide_left, hide_right, constraint_ok, pca_ok)
        )
    table = render_table(
        "E7: structured PCA closure under composition (Lemma 4.23/C.1)",
        ["trial", "p(L)", "p(R)", "hide L", "hide R", "EAct constraint", "PCA constraints"],
        rows,
        note="every composed pair satisfies Definition 4.22(3) and Definition 2.16(1-4)",
    )
    return ExperimentReport(
        "E7",
        "composition of structured PCA is a structured PCA",
        table,
        all_ok,
        data={"trials": trials},
    )
