"""Shared toy automata for the test suite.

These are small, exactly-specified PSIOA used across unit and integration
tests.  The example *systems* shipped with the library live in
``repro.systems``; the helpers here are intentionally minimal so tests can
reason about exact probabilities.
"""

import json
from fractions import Fraction

from repro.core.psioa import TablePSIOA
from repro.core.signature import Signature
from repro.probability.measures import DiscreteMeasure, dirac


def coin_automaton(name, p, *, toss="toss", head="head", tail="tail"):
    """A coin that, on output ``toss``, lands heads with probability ``p`` and
    then announces the result as an output action.

    States: ``q0 --toss--> {qH w.p. p, qT w.p. 1-p}``; ``qH --head--> qF``;
    ``qT --tail--> qF``; ``qF`` has the empty signature (a destroyed-automaton
    sentinel for configuration tests).
    """
    signatures = {
        "q0": Signature(outputs={toss}),
        "qH": Signature(outputs={head}),
        "qT": Signature(outputs={tail}),
        "qF": Signature(),
    }
    if p == 0:
        outcome = dirac("qT")
    elif p == 1:
        outcome = dirac("qH")
    else:
        outcome = DiscreteMeasure({"qH": p, "qT": 1 - p})
    transitions = {
        ("q0", toss): outcome,
        ("qH", head): dirac("qF"),
        ("qT", tail): dirac("qF"),
    }
    return TablePSIOA(name, "q0", signatures, transitions)


def fair_coin(name="fair", **kw):
    return coin_automaton(name, Fraction(1, 2), **kw)


def biased_coin(name="biased", delta=Fraction(1, 8), **kw):
    return coin_automaton(name, Fraction(1, 2) + delta, **kw)


def relay(name, source, target):
    """Forwarder: input ``source`` then output ``target``, then idle."""
    signatures = {
        "wait": Signature(inputs={source}),
        "ready": Signature(outputs={target}),
        "done": Signature(inputs={source}),
    }
    transitions = {
        ("wait", source): dirac("ready"),
        ("ready", target): dirac("done"),
        ("done", source): dirac("done"),
    }
    return TablePSIOA(name, "wait", signatures, transitions)


def ticker(name, count, action="tick"):
    """Emits ``action`` exactly ``count`` times, then stops (empty signature)."""
    signatures = {}
    transitions = {}
    for i in range(count):
        signatures[i] = Signature(outputs={action})
        transitions[(i, action)] = dirac(i + 1)
    signatures[count] = Signature()
    return TablePSIOA(name, 0, signatures, transitions)


def listener(name, actions):
    """One-state automaton with the given input actions (a passive observer)."""
    sig = Signature(inputs=frozenset(actions))
    transitions = {("s", a): dirac("s") for a in actions}
    return TablePSIOA(name, "s", {"s": sig}, transitions)


def controlled_coin(name, p, *, go="go", head="head", tail="tail"):
    """A coin flipped on an external (adversary) input ``go``.

    States: ``w --go--> {qH w.p. p, qT w.p. 1-p}``; results are announced as
    outputs, then the coin idles on further ``go`` inputs.
    """
    signatures = {
        "w": Signature(inputs={go}),
        "qH": Signature(inputs={go}, outputs={head}),
        "qT": Signature(inputs={go}, outputs={tail}),
        "qF": Signature(inputs={go}),
    }
    if p == 0:
        outcome = dirac("qT")
    elif p == 1:
        outcome = dirac("qH")
    else:
        outcome = DiscreteMeasure({"qH": p, "qT": 1 - p})
    transitions = {
        ("w", go): outcome,
        ("qH", go): dirac("qH"),
        ("qT", go): dirac("qT"),
        ("qF", go): dirac("qF"),
        ("qH", head): dirac("qF"),
        ("qT", tail): dirac("qF"),
    }
    return TablePSIOA(name, "w", signatures, transitions)


def driver(name, actions):
    """Fires each of ``actions`` once, in order (an active adversary shell)."""
    actions = list(actions)
    signatures = {}
    transitions = {}
    for i, action in enumerate(actions):
        signatures[i] = Signature(outputs={action})
        transitions[(i, action)] = dirac(i + 1)
    signatures[len(actions)] = Signature(inputs={("idle", name)})
    transitions[(len(actions), ("idle", name))] = dirac(len(actions))
    return TablePSIOA(name, 0, signatures, transitions)


# -- run reports -----------------------------------------------------------------

#: What differs between any two runs of one suite, dropped at every
#: comparison: when and how the run was started, wall-clock times (the
#: phase timers included) and peak memory.
RUN_REPORT_KEYS = ("created_unix", "argv")
RUN_SUMMARY_KEYS = ("wall_time_s", "phases")
RUN_RECORD_KEYS = ("elapsed_s", "peak_rss_bytes")


def scrub_record(record, drop=()):
    """``record`` without :data:`RUN_RECORD_KEYS` and ``drop``; its attempts
    without their ``elapsed_s``."""
    record = {
        k: v for k, v in record.items() if k not in RUN_RECORD_KEYS and k not in drop
    }
    record["attempt_history"] = [
        {k: v for k, v in entry.items() if k != "elapsed_s"}
        for entry in record.get("attempt_history", [])
    ]
    return record


def scrub_report(payload, *, summary=(), record=()):
    """A run report as canonical JSON, without the keys that differ between
    any two runs and without the ``summary`` and ``record`` keys a
    comparison names on top of them.

    Runs from the repo root as ``PYTHONPATH=src:. python -c "from
    tests.helpers import scrub_report ..."`` too.
    """
    payload = {k: v for k, v in payload.items() if k not in RUN_REPORT_KEYS}
    payload["summary"] = {
        k: v
        for k, v in payload["summary"].items()
        if k not in RUN_SUMMARY_KEYS and k not in summary
    }
    payload["experiments"] = [scrub_record(r, record) for r in payload["experiments"]]
    return json.dumps(payload, sort_keys=True)
