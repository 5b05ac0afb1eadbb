"""repro — Composable Dynamic Secure Emulation.

A from-scratch Python implementation of the framework of

    Pierre Civit and Maria Potop-Butucaru,
    *Brief Announcement: Composable Dynamic Secure Emulation*, SPAA 2022,

built on dynamic probabilistic I/O automata (Civit & Potop-Butucaru,
ePrint 2021/798) and the compositional security of Task-PIOAs (Canetti,
Cheung, Kaynar, Lynch, Pereira, CSF 2007).

Layer map (bottom-up):

* :mod:`repro.probability` — discrete measures, asymptotics;
* :mod:`repro.core` — PSIOA, signatures, executions, composition,
  hiding, renaming (paper Section 2.2–2.4, 2.6);
* :mod:`repro.config` — configurations, intrinsic transitions and
  probabilistic configuration automata (Section 2.5);
* :mod:`repro.semantics` — schedulers, execution measures, insight
  functions, balanced schedulers (Section 3);
* :mod:`repro.bounded` — encodings, time bounds, families
  (Sections 4.1–4.5);
* :mod:`repro.secure` — approximate implementation, structured automata,
  adversaries, the dummy adversary and secure emulation
  (Sections 4.6–4.9);
* :mod:`repro.systems` — example workloads (coins, OTP channels,
  commitments, consensus, dynamic ledgers);
* :mod:`repro.faults` — fault injection: crash-stop/crash-recovery
  wrappers, channel drop/duplicate/delay, Byzantine corruption, seeded
  fault plans and the fault-injecting scheduler (see docs/fault_model.md);
* :mod:`repro.analysis` — exploration, Monte-Carlo cross-checks,
  distinguisher search, reporting;
* :mod:`repro.obs` — observability: hot-path metrics, phase timers,
  machine-readable run reports (see docs/observability.md).

Quickstart::

    from fractions import Fraction
    from repro import (
        coin, coin_observer, accept_insight, ActionSequenceScheduler,
        perception_distance,
    )

    fair = coin("fair", Fraction(1, 2))
    biased = coin("biased", Fraction(3, 4))
    sched = ActionSequenceScheduler(["toss", "head", "acc"], local_only=True)
    advantage = perception_distance(
        accept_insight(), coin_observer(), fair, sched, biased, sched
    )
    assert advantage == Fraction(1, 4)
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the subpackage that defines it.  Nothing is imported
#: until a name is first used (PEP 562), so ``import repro.api`` or
#: ``import repro.experiments.runner`` loads only what they need.
_EXPORTS = {
    "repro.probability": (
        "DiscreteMeasure", "SubDiscreteMeasure", "dirac", "uniform",
        "bernoulli", "total_variation",
    ),
    "repro.core": (
        "Signature", "PSIOA", "TablePSIOA", "Fragment", "compose",
        "hide_psioa", "rename_psioa", "validate_psioa", "reachable_states",
    ),
    "repro.config": (
        "Configuration", "CanonicalPCA", "compose_pca", "hide_pca",
        "validate_pca", "preserving_transition", "intrinsic_transition",
    ),
    "repro.semantics": (
        "Scheduler", "ActionSequenceScheduler", "DeterministicScheduler",
        "BoundedScheduler", "SchedulerSchema", "oblivious_schema",
        "execution_measure", "cone_probability", "InsightFunction",
        "trace_insight", "accept_insight", "print_insight", "f_dist",
        "balanced", "perception_distance", "is_environment",
    ),
    "repro.semantics.scheduler": (
        "PriorityScheduler",
    ),
    "repro.bounded": (
        "measure_time_bound", "measure_pca_time_bound", "is_time_bounded",
        "PSIOAFamily", "SchedulerFamily", "compose_families",
    ),
    "repro.secure": (
        "StructuredPSIOA", "structure", "compose_structured", "is_adversary",
        "dummy_adversary", "ForwardScheduler", "implements",
        "implementation_distance", "neg_pt_implements", "EmulationInstance",
        "secure_emulates",
    ),
    "repro.systems": (
        "coin", "structured_coin", "coin_observer", "real_channel",
        "ideal_channel", "channel_emulation_instance",
    ),
    "repro.faults": (
        "crash_stop", "crash_recovery", "bernoulli_crash", "drop", "duplicate",
        "delay", "byzantine", "FaultPlan", "FaultyScheduler", "faulty_schema",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
