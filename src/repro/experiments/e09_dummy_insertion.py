"""E9 — Lemma 4.29/D.1: dummy adversary insertion —
``g(A)||Adv <= hide(A||Dummy(A,g), AAct_A)||Adv`` with error *exactly* 0
and scheduler bound ``q2 = 2*q1``.

Workload: both forwarding directions (adversary-output systems and
adversary-input systems) across biases and script lengths.  For each case
the ``Forward^s`` scheduler is constructed and the two f-dists compared in
exact rational arithmetic; the reported distance must be the integer 0,
not merely small.
"""

from __future__ import annotations

from fractions import Fraction

from repro.analysis.report import render_table
from repro.core.psioa import TablePSIOA
from repro.core.signature import Signature
from repro.experiments.common import ExperimentReport
from repro.probability.measures import DiscreteMeasure, dirac, total_variation
from repro.secure.dummy import ForwardScheduler, build_dummy_worlds
from repro.secure.structured import structure
from repro.semantics.insight import print_insight, trace_insight
from repro.semantics.measure import execution_measure
from repro.semantics.scheduler import ActionSequenceScheduler
from repro.systems.coin import coin


def _observer(name="E"):
    signatures = {
        "watch": Signature(inputs={"head", "tail"}),
        "happy": Signature(inputs={"head", "tail"}, outputs={"acc"}),
        "done": Signature(inputs={"head", "tail"}),
    }
    transitions = {
        ("watch", "head"): dirac("happy"),
        ("watch", "tail"): dirac("watch"),
        ("happy", "head"): dirac("happy"),
        ("happy", "tail"): dirac("happy"),
        ("happy", "acc"): dirac("done"),
        ("done", "head"): dirac("done"),
        ("done", "tail"): dirac("done"),
    }
    return TablePSIOA(name, "watch", signatures, transitions)


def _listener(name, actions):
    sig = Signature(inputs=frozenset(actions))
    return TablePSIOA(name, "s", {"s": sig}, {("s", a): dirac("s") for a in actions})


def _driver(name, action):
    return TablePSIOA(
        name, "s", {"s": Signature(outputs={action})}, {("s", action): dirac("s")}
    )


def _controlled_coin(name, p):
    signatures = {
        "w": Signature(inputs={"go"}),
        "qH": Signature(inputs={"go"}, outputs={"head"}),
        "qT": Signature(inputs={"go"}, outputs={"tail"}),
        "qF": Signature(inputs={"go"}),
    }
    transitions = {
        ("w", "go"): DiscreteMeasure({"qH": p, "qT": 1 - p}),
        ("qH", "go"): dirac("qH"),
        ("qT", "go"): dirac("qT"),
        ("qF", "go"): dirac("qF"),
        ("qH", "head"): dirac("qF"),
        ("qT", "tail"): dirac("qF"),
    }
    return TablePSIOA(name, "w", signatures, transitions)


def run(*, fast: bool = True) -> ExperimentReport:
    biases = [Fraction(1, 2), Fraction(2, 7)] if fast else [
        Fraction(1, 2),
        Fraction(2, 7),
        Fraction(1, 5),
        Fraction(7, 9),
    ]
    cases = []
    for p in biases:
        # Output direction: the system emits its toss toward the adversary.
        sc = structure(coin(("out", p), p), {"head", "tail"})
        adv_out = _listener(("Adv-out", p), {("g", "toss")})
        cases.append(("AO->Adv", p, sc, adv_out, [("g", "toss"), "head", "acc"]))
        cases.append(("AO->Adv long", p, sc, adv_out, [("g", "toss"), "tail", "head", "acc"]))
        # Input direction: the adversary drives the system's flip.
        rc = structure(_controlled_coin(("in", p), p), {"head", "tail"})
        adv_in = _driver(("Adv-in", p), ("g", "go"))
        cases.append(("Adv->AI", p, rc, adv_in, [("g", "go"), "head", "acc"]))
        cases.append(("Adv->AI long", p, rc, adv_in, [("g", "go"), ("g", "go"), "head", "acc"]))

    rows = []
    all_zero = True
    for direction, p, system, adv, script in cases:
        env = _observer(("E", direction, p))
        phi, psi, dummy, g = build_dummy_worlds(env, system, adv)
        sigma = ActionSequenceScheduler(script, local_only=True)
        sigma_prime = ForwardScheduler(sigma, phi, dummy)
        measure_phi = execution_measure(phi, sigma)
        measure_psi = execution_measure(psi, sigma_prime)
        for insight in (print_insight(), trace_insight()):
            dist_phi = measure_phi.map(lambda e: insight(env, phi, e))
            dist_psi = measure_psi.map(lambda e: insight(env, psi, e))
            d = total_variation(dist_phi, dist_psi)
            exact_zero = d == 0
            all_zero = all_zero and exact_zero
            rows.append(
                (
                    direction,
                    str(p),
                    insight.name,
                    len(script),
                    sigma_prime.step_bound(),
                    str(d),
                    exact_zero,
                )
            )
    table = render_table(
        "E9: dummy adversary insertion (Lemma 4.29/D.1)",
        ["direction", "bias", "insight", "q1", "q2", "TV distance", "exact 0"],
        rows,
        note="Forward^s witnesses give distance exactly 0 (rational arithmetic) with q2 = 2*q1",
    )
    return ExperimentReport(
        "E9",
        "dummy insertion is perfectly invisible under the Forward^s witness",
        table,
        all_zero,
        data={"cases": len(rows)},
    )
