"""Run the experiment suite: each experiment crash-isolated and timeout-guarded.

Usage::

    python -m repro.experiments.runner                 # all experiments, fast
    python -m repro.experiments.runner E4 E9           # selected experiments
    python -m repro.experiments.runner --full          # larger sweeps
    python -m repro.experiments.runner --timeout 120   # per-experiment wall clock
    python -m repro.experiments.runner --retries 2     # retry flaky runs (seed rotates)
    python -m repro.experiments.runner --fail-fast     # stop at the first failure

Performance (see ``docs/performance.md``)::

    python -m repro.experiments.runner --parallel 1    # one experiment at a time
    python -m repro.experiments.runner --cache off     # no transition memo
    python -m repro.experiments.runner --cache stats   # print memo hits/misses
    python -m repro.experiments.runner --cache-dir .cache/repro    # store directory
    python -m repro.experiments.runner --backend pool:3             # inner sweeps
    python -m repro.experiments.runner --backend socket:host:9001   # ... on remote workers
    python -m repro.experiments.runner --chunk-deadline 30          # bound chunks

Observability (see ``docs/observability.md``)::

    python -m repro.experiments.runner --metrics-out report.json

To summarize a saved report, use ``python -m repro.obs report FILE --summary``.

This module is a thin CLI over :mod:`repro.api`: flags parse into one
frozen :class:`repro.api.RunConfig` (explicit flags win over the
``REPRO_*`` environment gates, which win over defaults — resolved once,
here, by :func:`repro.api.resolve_config`; forked children inherit the
applied settings and socket workers receive them per chunk), and the
suite itself runs through
:func:`repro.api.run_suite`.  The resolved configuration is recorded in
the report's ``summary.config`` block.  Flag semantics are unchanged —
see ``docs/performance.md`` / ``docs/resilience.md`` /
``docs/observability.md`` for what each knob does, and ``docs/service.md``
for submitting the same runs to a long-lived job service instead.

Every experiment runs in its own subprocess (see
:func:`repro.experiments.common.run_experiment_guarded`): an experiment that
raises, segfaults or hangs is reported as ``[ERROR]`` / ``[TIMEOUT]`` with
its traceback, and the suite keeps going unless ``--fail-fast`` is
given.  By default as many experiments run at a time as the process has
usable CPUs (at most one per selected experiment; ``--parallel N`` pins
the count, ``--no-isolation`` runs them inline, one by one); output and
report are the same at every count.  All human output is rendered from
the same per-experiment records the JSON report contains
(:mod:`repro.obs.report`), so the two cannot drift.  The exit code is 1 as soon as any experiment did not pass, 2 for
unknown experiment ids, an invalid configuration (``--parallel 0``,
``--parallel 2 --no-isolation``, a bad ``--backend``), 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from repro import api


def build_parser() -> argparse.ArgumentParser:
    """The CLI surface.  Env-gated flags default to ``None`` (not given):
    an absent flag falls through to its ``REPRO_*`` environment gate in
    :func:`repro.api.resolve_config`, so ``REPRO_CACHE=off`` is no longer
    silently clobbered by the flag's default the way it once was."""
    parser = argparse.ArgumentParser(
        description="Run the reproduction's experiment suite.",
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (default: all)")
    parser.add_argument("--full", action="store_true", help="run the larger sweeps (default: False)")
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="wall-clock seconds per experiment attempt (default: 600; 0 disables)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help=(
            "extra attempts for a non-passing experiment, the seed rotating "
            "per attempt (default: 0)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed for sampling experiments (attempt i runs under seed+i)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop the suite at the first non-passing experiment (default: False)",
    )
    parser.add_argument(
        "--no-isolation",
        action="store_true",
        help=(
            "run experiments inline, no subprocess and timeouts not enforced "
            "(default: False)"
        ),
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run up to N experiments concurrently; N > 1 requires isolation "
            "(default: one per usable CPU, at most one per experiment; "
            "1 with --no-isolation)"
        ),
    )
    parser.add_argument(
        "--cache",
        choices=("on", "off", "stats"),
        default=None,
        help=(
            "per-automaton transition memo: on, off, or on + a hit/miss "
            "line (default: REPRO_CACHE, else on)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "store directory, reported in summary.cache.persistent "
            "(default: REPRO_CACHE_DIR); no run reads or writes it yet"
        ),
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="SPEC",
        help=(
            "execution backend for experiment sweeps: serial, pool:N, or "
            "socket:HOST:PORT[,HOST:PORT...] (default: REPRO_BACKEND, else serial)"
        ),
    )
    parser.add_argument(
        "--chunk-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock bound per sweep chunk on remote backends (0 disables)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the machine-readable run report (JSON) to this path",
    )
    parser.add_argument(
        "--list", action="store_true", help="list known experiments and exit"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.list:
        for experiment_id, claim in api.list_experiments().items():
            print(f"{experiment_id:4s} {claim}")
        return 0

    try:
        config = api.resolve_config(
            full=args.full,
            timeout=args.timeout,
            retries=args.retries,
            seed=args.seed,
            isolated=not args.no_isolation,
            keep_going=not args.fail_fast,
            parallel=args.parallel,
            cache=args.cache,
            cache_dir=args.cache_dir,
            backend=args.backend,
            chunk_deadline=args.chunk_deadline,
        )
    except api.ConfigError as exc:
        if "backend" in str(exc):
            print(str(exc))
        elif "isolation" in str(exc):
            print("--parallel requires isolation; drop --no-isolation")
        else:
            print(f"invalid configuration: {exc}")
        return 2

    try:
        result = api.run_suite(
            args.experiments or None,
            config=config,
            argv=list(argv) if argv is not None else sys.argv[1:],
            metrics_out=args.metrics_out,
            emit=print,
        )
    except api.UnknownExperimentError as exc:
        print(str(exc))
        return 2
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
