"""E8 — Lemma 4.25: an adversary for ``A || B`` is an adversary for ``A``
(and symmetrically for ``B``).

Workload: randomized pairs of structured systems over disjoint alphabets
with a *covering* adversary (outputs every adversary input of the pair,
listens on every adversary output).  For each trial the premise
(adversary for ``A || B``) is established and both restrictions are
re-checked against Definition 4.24.
"""

from __future__ import annotations

from fractions import Fraction

from repro.analysis.report import render_table
from repro.core.psioa import TablePSIOA
from repro.core.signature import Signature
from repro.experiments.common import ExperimentReport
from repro.probability.measures import DiscreteMeasure, dirac
from repro.probability.rng import Generator
from repro.secure.adversary import is_adversary
from repro.secure.structured import compose_structured, structure
from repro.systems.coin import coin


def _component(tag, p, *, controlled):
    """A structured component: output-coin or input-driven coin."""
    if controlled:
        go = ("go", tag)
        signatures = {
            "w": Signature(inputs={go}),
            "qH": Signature(inputs={go}, outputs={("head", tag)}),
            "qT": Signature(inputs={go}, outputs={("tail", tag)}),
            "qF": Signature(inputs={go}),
        }
        transitions = {
            ("w", go): dirac("qH") if p == 1 else (
                dirac("qT") if p == 0 else DiscreteMeasure({"qH": p, "qT": 1 - p})
            ),
            ("qH", go): dirac("qH"),
            ("qT", go): dirac("qT"),
            ("qF", go): dirac("qF"),
            ("qH", ("head", tag)): dirac("qF"),
            ("qT", ("tail", tag)): dirac("qF"),
        }
        base = TablePSIOA(("rc", tag), "w", signatures, transitions)
        return structure(base, {("head", tag), ("tail", tag)})
    return structure(
        coin(("c", tag), p, toss=("toss", tag), head=("head", tag), tail=("tail", tag)),
        {("head", tag), ("tail", tag)},
    )


def _covering_adversary(first, second):
    """One-state adversary: outputs all adversary inputs of the pair,
    inputs all adversary outputs."""
    outputs = frozenset(first.global_ai() | second.global_ai())
    inputs = frozenset(first.global_ao() | second.global_ao())
    sig = Signature(inputs=inputs, outputs=outputs)
    transitions = {("s", a): dirac("s") for a in inputs | outputs}
    return TablePSIOA("Adv", "s", {"s": sig}, transitions)


def run(*, fast: bool = True) -> ExperimentReport:
    trials = 8 if fast else 24
    rng = Generator(11)
    rows = []
    all_ok = True
    for trial in range(trials):
        p_left = Fraction(rng.integers(0, 9), 8)
        p_right = Fraction(rng.integers(0, 9), 8)
        left = _component((trial, "L"), p_left, controlled=bool(rng.integers(0, 2)))
        right = _component((trial, "R"), p_right, controlled=bool(rng.integers(0, 2)))
        pair = compose_structured(left, right)
        adversary = _covering_adversary(left, right)
        premise = is_adversary(adversary, pair)
        left_ok = is_adversary(adversary, left)
        right_ok = is_adversary(adversary, right)
        implication = (not premise) or (left_ok and right_ok)
        all_ok = all_ok and premise and implication
        rows.append((trial, premise, left_ok, right_ok, implication))
    table = render_table(
        "E8: adversary restriction (Lemma 4.25)",
        ["trial", "Adv for A||B", "Adv for A", "Adv for B", "implication"],
        rows,
        note="the covering adversary satisfies the premise in every trial and both restrictions hold",
    )
    return ExperimentReport(
        "E8",
        "an adversary for A||B restricts to an adversary for each component",
        table,
        all_ok,
        data={"trials": trials},
    )
