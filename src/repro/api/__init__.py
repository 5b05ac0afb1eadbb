"""The stable programmatic surface of the reproduction.

Everything a caller needs to run experiments lives here — the CLI
(:mod:`repro.experiments.runner`), the job service (:mod:`repro.service`)
and the test suite are all thin wrappers over these entry points, so the
three can never disagree about what a run means:

* :func:`resolve_config` / :class:`RunConfig` — every runner knob in one
  frozen bundle, resolved with a single documented precedence
  (explicit overrides > environment gates > defaults).
* :func:`run_suite` — a selection of experiments under one config; the
  :class:`SuiteResult` carries the records, the exit code and the
  validated run report (``.report``).
* :func:`load_report` — read and validate a saved ``--metrics-out`` file.
* :func:`list_experiments` — known experiment ids and their claims.
"""

from __future__ import annotations

from repro.api.config import ConfigError, RunConfig, resolve_config
from repro.api.suite import (
    SuiteResult,
    UnknownExperimentError,
    list_experiments,
    load_report,
    run_suite,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "SuiteResult",
    "UnknownExperimentError",
    "list_experiments",
    "load_report",
    "resolve_config",
    "run_suite",
]
