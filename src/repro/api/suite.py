"""The suite engine behind the CLI and the job service.

:func:`run_suite` is the body the runner's ``main`` historically inlined:
apply a resolved :class:`~repro.api.config.RunConfig`, run the selected
experiments (crash-isolated, ``parallel`` at a time: by default one per
usable CPU, at most one per experiment), render
each record through :mod:`repro.obs.report`, and wrap everything into a
schema-valid run report.  The CLI prints the emitted lines; the service
captures the report per job; tests call it in-process — all three share
this one code path, so their outputs cannot drift.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.common import (
    ALL_EXPERIMENTS,
    DEFAULT_SEED,
    import_experiments,
    run_experiment_guarded,
)
from repro.obs import analyze as obs_analyze
from repro.obs import distributed as obs_distributed
from repro.obs import progress as obs_progress
from repro.obs.report import (
    ReportSchemaError,
    build_report,
    cache_summary,
    format_record,
    format_suite_summary,
    outcome_record,
    phases_summary,
    resilience_summary,
    validate_report,
)
from repro.perf import backends as perf_backends
from repro.perf import store as perf_store

from repro.api.config import RunConfig

__all__ = [
    "SuiteResult",
    "UnknownExperimentError",
    "list_experiments",
    "load_report",
    "run_suite",
]


class UnknownExperimentError(ValueError):
    """A selection names experiment ids the registry does not know."""

    def __init__(self, unknown: Sequence[str]) -> None:
        self.unknown = list(unknown)
        super().__init__(
            f"unknown experiment(s) {', '.join(map(repr, self.unknown))}; "
            f"known: {', '.join(ALL_EXPERIMENTS)}"
        )


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def list_experiments() -> Dict[str, str]:
    """Known experiment ids mapped to their claim strings (registry order)."""
    return {
        experiment_id: claim
        for experiment_id, (_module, claim) in ALL_EXPERIMENTS.items()
    }


def load_report(path: str) -> Dict[str, Any]:
    """Read and validate a ``--metrics-out`` report file.

    Raises :class:`repro.obs.report.ReportSchemaError` for schema
    violations and ``OSError`` / ``json.JSONDecodeError`` for unreadable
    files — callers that just want "valid or not" can catch ``ValueError``
    plus ``OSError``."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_report(payload)
    return payload


@dataclass
class SuiteResult:
    """Everything one suite run produced."""

    #: canonical per-experiment records, in experiment order
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: the schema-valid run report wrapping the records
    report: Dict[str, Any] = field(default_factory=dict)
    #: 0 all passed, 1 any experiment did not pass
    exit_code: int = 0

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def run_suite(
    experiments: Optional[Sequence[str]] = None,
    *,
    config: Optional[RunConfig] = None,
    argv: Optional[Sequence[str]] = None,
    metrics_out: Optional[str] = None,
    emit: Optional[Callable[[str], None]] = None,
    on_record: Optional[Callable[[str, Dict[str, Any], int, int], None]] = None,
) -> SuiteResult:
    """Run ``experiments`` (default: all) under ``config`` (default: resolved
    purely from the environment) and return records + a validated report.

    ``config.parallel=None`` (auto) is resolved here, once: the usable
    CPUs, at most one per selected experiment, and 1 for inline runs; the
    report's ``summary.config.parallel`` records the resolved count.
    With ``config.keep_going=False`` the first non-passing record (in
    experiment order) stops the suite, and experiments still running
    then are terminated, not waited for.

    ``emit`` receives every human-output line (the CLI passes ``print``;
    the service captures them into its job log).  ``on_record`` fires
    after each experiment completes with ``(experiment_id, record, done,
    total)`` — the service turns these into job progress events.  The
    report is also written to ``metrics_out`` when given.
    """
    from repro.api.config import resolve_config

    if config is None:
        config = resolve_config()
    selected = list(experiments) if experiments else list(ALL_EXPERIMENTS)
    unknown = [e for e in selected if e not in ALL_EXPERIMENTS]
    if unknown:
        raise UnknownExperimentError(unknown)

    if config.parallel is None:
        # The report records the count that ran, so a saved summary.config
        # replays the same run.
        workers = min(_usable_cpus(), len(selected)) if config.isolated else 1
        config = replace(config, parallel=workers)

    def say(line: str) -> None:
        if emit is not None:
            emit(line)

    # One resolution, one application: this process's switches are set,
    # children inherit them through fork, workers get them per run frame.
    config.apply()
    cache_enabled = config.cache != "off"
    # The process backend every experiment uses.  Its first start() (in
    # run_one) forks a pool:N's workers before the first child forks; the
    # children adopt them, and they stop when this call returns.
    backend = perf_backends.get_backend()
    backend_block = backend.describe()

    suite_start = time.perf_counter()

    def trace_path_for(experiment_id: str) -> Optional[str]:
        if not config.trace_dir:
            return None
        return os.path.join(config.trace_dir, f"{experiment_id}.trace.json")

    # Set when --fail-fast stops the suite: children still running end now.
    stop = threading.Event()

    def run_one(experiment_id: str):
        backend.start()  # respawn what died, so the child inherits a healthy pool
        return run_experiment_guarded(
            experiment_id,
            fast=not config.full,
            timeout=config.timeout,
            retries=config.retries,
            seed=config.seed,
            isolated=config.isolated,
            trace_path=trace_path_for(experiment_id),
            stop=stop,
        )

    records: List[Dict[str, Any]] = []
    # Phase timers ride the outcomes' metrics, not the records: times vary
    # run to run, so they only ever land in summary.phases.
    timers: Dict[str, Dict[str, Dict[str, int]]] = {}

    def record_outcome(experiment_id: str, outcome) -> bool:
        record = outcome_record(
            outcome,
            ALL_EXPERIMENTS[experiment_id][1],
            default_seed=DEFAULT_SEED,
            trace_file=outcome.trace_path,
        )
        records.append(record)
        timers[experiment_id] = (outcome.metrics or {}).get("timers", {})
        say(format_record(record))
        say("")
        obs_progress.advance()
        if on_record is not None:
            on_record(experiment_id, record, len(records), len(selected))
        return outcome.ok

    obs_progress.begin("experiments", len(selected), "experiments")
    if config.isolated:
        import_experiments(selected)

    try:
        if config.parallel > 1:
            from concurrent.futures import ThreadPoolExecutor

            # Each worker thread just babysits an isolated child process, so
            # threads-per-experiment is cheap.  Futures are *consumed in
            # experiment order*: output and the report are identical at every
            # worker count (only wall-clock fields differ).
            with ThreadPoolExecutor(max_workers=config.parallel) as pool:
                futures = [(e, pool.submit(run_one, e)) for e in selected]
                for experiment_id, future in futures:
                    ok = record_outcome(experiment_id, future.result())
                    if not ok and not config.keep_going:
                        stop.set()
                        for _e, pending in futures:
                            pending.cancel()
                        break
        else:
            for experiment_id in selected:
                ok = record_outcome(experiment_id, run_one(experiment_id))
                if not ok and not config.keep_going:
                    break
    finally:
        perf_backends.close_active()

    obs_progress.finish()
    say(format_suite_summary(records))

    if isinstance(backend, perf_backends.LocalPoolBackend):
        started = backend.workers_started
        if config.isolated:
            # A child counts the workers it respawned in its own record.
            started += sum(
                r["counters"].get("perf.supervise.respawns", 0) for r in records
            )
        backend_block["workers_started"] = started

    # When a persistent store is active, describe it in the cache block
    # (directory, entry count, byte size); stat failures must never fail
    # the run, and store-less runs keep the block byte-identical to before.
    persistent_block = None
    if cache_enabled:
        store = perf_store.active_store()
        if store is not None:
            try:
                persistent_block = store.stats()
            except OSError:
                persistent_block = None
    cache_block = cache_summary(
        records, enabled=cache_enabled, persistent=persistent_block
    )
    if config.cache == "stats":
        counters = cache_block["counters"]
        hits = sum(v for k, v in counters.items() if k.endswith(".hits"))
        misses = sum(v for k, v in counters.items() if k.endswith(".misses"))
        say(
            f"cache: enabled={cache_enabled} hits={hits} misses={misses} "
            f"({len(counters)} perf counters; see summary.cache in --metrics-out)"
        )

    # The trace summary exists only when tracing actually produced files,
    # so untraced runs emit reports byte-identical to pre-tracing ones.
    trace_block = None
    analysis_block = None
    trace_files = [
        r["trace_file"]
        for r in records
        if r.get("trace_file") and os.path.exists(r["trace_file"])
    ]
    if trace_files:
        try:
            merged = obs_distributed.merge_trace_files(trace_files)
            trace_block = obs_distributed.summarize_events(merged["traceEvents"])
            trace_block["files"] = list(trace_files)
            analysis_block = obs_analyze.analyze_events(merged["traceEvents"])
        except (OSError, ValueError, json.JSONDecodeError):
            trace_block = None  # a corrupt trace must not fail the run
            analysis_block = None

    # The resilience block exists exactly when supervision can act: on a
    # remote backend.  Serial runs emit reports without it.
    resilience_block = None
    if backend.remote:
        resilience_block = resilience_summary(
            records, chunk_deadline_s=backend_block.get("chunk_deadline_s")
        )

    payload = build_report(
        records,
        argv=list(argv) if argv is not None else None,
        fast=not config.full,
        wall_time_s=time.perf_counter() - suite_start,
        cache=cache_block,
        backend=backend_block,
        trace=trace_block,
        resilience=resilience_block,
        phases=phases_summary(timers),
        analysis=analysis_block,
        config=config.describe(),
    )
    if metrics_out:
        parent = os.path.dirname(metrics_out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(metrics_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, default=repr)
        say(f"metrics report written to {metrics_out}")

    exit_code = 1 if any(not r["ok"] for r in records) else 0
    return SuiteResult(records=records, report=payload, exit_code=exit_code)
