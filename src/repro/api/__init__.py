"""The stable programmatic surface of the reproduction.

Everything a caller needs to run experiments lives here — the CLI
(:mod:`repro.experiments.runner`), the job service (:mod:`repro.service`)
and the test suite are all thin wrappers over these entry points, so the
three can never disagree about what a run means:

* :func:`resolve_config` / :class:`RunConfig` — every runner knob in one
  frozen bundle, resolved with a single documented precedence
  (explicit overrides > environment gates > defaults).
* :func:`run_experiment` — one crash-isolated, timeout-guarded experiment;
  returns its :class:`~repro.experiments.common.ExperimentOutcome`.
* :func:`run_sweep` / :func:`run_suite` — a selection of experiments under
  one config; ``run_sweep`` returns the validated run report alone,
  ``run_suite`` additionally exposes records and the exit code.
* :func:`load_report` — read and validate a saved ``--metrics-out`` file.
* :func:`list_experiments` — known experiment ids and their claims.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

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
    "run_experiment",
    "run_suite",
    "run_sweep",
]


def run_experiment(
    experiment_id: str, *, config: Optional[RunConfig] = None, **overrides: Any
):
    """Run one experiment under ``config`` (or config resolved from
    ``overrides`` + the environment); returns its ``ExperimentOutcome``.

    The experiment runs exactly as the suite would run it: crash-isolated
    (unless the config says otherwise), timeout-guarded, seeded and with
    the config applied to this process and its children.
    """
    from repro.experiments.common import (
        ALL_EXPERIMENTS,
        import_experiments,
        run_experiment_guarded,
    )

    if config is None:
        config = resolve_config(**overrides)
    elif overrides:
        raise ConfigError("pass either config or overrides, not both")
    if experiment_id not in ALL_EXPERIMENTS:
        raise UnknownExperimentError([experiment_id])
    config.apply()
    if config.isolated:
        import_experiments([experiment_id])
    return run_experiment_guarded(
        experiment_id,
        fast=not config.full,
        timeout=config.timeout,
        retries=config.retries,
        seed=config.seed,
        isolated=config.isolated,
    )


def run_sweep(
    experiments=None,
    *,
    config: Optional[RunConfig] = None,
    metrics_out: Optional[str] = None,
    **overrides: Any,
) -> Dict[str, Any]:
    """Run a selection of experiments and return the validated run report.

    The report is exactly what ``--metrics-out`` writes (and is written to
    ``metrics_out`` when given); per-experiment outcomes are in its
    ``experiments`` records, overall health in ``summary``.
    """
    if config is None:
        config = resolve_config(**overrides)
    elif overrides:
        raise ConfigError("pass either config or overrides, not both")
    return run_suite(experiments, config=config, metrics_out=metrics_out).report
