"""Machine-readable run reports for the experiment runner.

One :func:`outcome_record` dict per experiment outcome is the single source
of truth: the runner's human-readable output is rendered *from the record*
(:func:`format_record`, :func:`format_suite_summary`) and the
``--metrics-out`` JSON report is the same records wrapped by
:func:`build_report` — the two cannot drift.

The report schema (``repro.obs.run-report/4``; the only one the validator
accepts)::

    {
      "schema": "repro.obs.run-report/4",
      "created_unix": 1754500000.0,
      "argv": ["E1", "--timeout", "60"],     # or null
      "fast": true,
      "experiments": [
        {
          "experiment": "E1",
          "claim": "...",
          "status": "pass" | "fail" | "error" | "timeout",
          "ok": true,
          "elapsed_s": 0.52,
          "attempts": 1,
          "seed": null,                       # last attempt's explicit seed
          "default_seed": 20260806,           # seed in force when "seed" is null
          "attempt_history": [                # every attempt, not just the last:
            {"attempt": 1, "seed": 11,        # --retries rotates seeds, and the
             "status": "error",               # history shows what each retry
             "error_class": "RuntimeError",   # survived
             "elapsed_s": 0.31}, ...
          ],
          "fault_seeds": [7, 8],              # seeds of sampled fault plans
          "peak_rss_bytes": 61210624,         # child getrusage, null if unknown
          "counters": {"scheduler.steps": 1234, ...},
          "histograms": {                      # full exports incl. percentiles
            "faults.plan.seed": {"count": 2, "sum": 15, "min": 7, "max": 8,
                                  "p50": 7, "p90": 8, "p99": 8,   # p99/mean are
                                  "mean": 7.5,                    # optional keys
                                  "samples": [7, 8]}
          },
          "table": "...",                     # null for error/timeout
          "error": null,                      # traceback / diagnosis otherwise
          "trace_file": "traces/E1.trace.json"  # null without --trace-dir
        }, ...
      ],
      "summary": {
        "total": 15, "passed": 15,
        "failures": [{"experiment": "E3", "status": "timeout"}, ...],
        "wall_time_s": 42.0,
        "cache": {"enabled": true, "counters": {...},         # optional
                  "persistent": {"dir": "/path", "entries": 4, # optional: only
                                 "bytes": 51234}},             # with a store
        "backend": {                                           # optional
          "name": "socket", "spec": "socket:host1:9001,host2:9001",
          "parallelism": 2,
          "workers_started": 2     # pool:N only: N plus every respawn
        },
        "resilience": {                                        # optional: remote
          "chunk_deadline_s": 600.0,                           # backends only;
          "counters": {"perf.supervise.respawns": 1, ...}      # health totals
        },
        "trace": {                                             # optional:
          "events": 128,                                       # only when
          "files": ["traces/E15.trace.json"],                  # tracing ran
          "processes": [{"pid": 1, "name": "caller (pid 1)", "spans": 9,
                         "instants": 2, "busy_us": 5000.0, "idle_us": 10.0,
                         "wall_us": 5010.0}, ...],
          "slowest_spans": [{"name": "parallel.map", "pid": 1,
                             "dur_us": 5400.0}, ...]
        },
        "phases": {                                            # every run:
          "E15": {"measure.unfold": {"calls": 120, "s": 0.09}, # inclusive
                  "scheduler.step": {"calls": 900, "s": 0.03}, # seconds per
                  ...}, ...                                    # phase timer
        },
        "config": {                                            # optional:
          "full": false, "parallel": 2, "cache": "on",         # the resolved
          "backend": "pool:4", "chunk_deadline": 30.0, ...     # RunConfig
        },
        "analysis": {                                          # optional:
          "critical_path": {"wall_us": 5400.0,                 # only when
            "steps": [{"name": "parallel.map", "pid": 1,       # tracing ran
                       "start_us": 0.0, "dur_us": 5400.0,
                       "depth": 0}, ...]},
          "lanes": [{"pid": 2, "name": "worker ...", "chunks": 4,
                     "skew": 1.3, "utilization": 0.92,
                     "idle_gaps": {"count": 3, "total_us": 400.0,
                                   "max_us": 300.0, "p50_us": 50.0},
                     "straggler": false, ...}, ...],
          "stragglers": [{"pid": 2, "name": "...", "skew": 3.1}, ...]
        }
      }
    }

The ``summary.trace`` block is :func:`repro.obs.distributed.summarize_events`
output over the run's saved trace files; it appears **only** when tracing
was on, so disabled-path reports are byte-identical to pre-tracing ones.
The same only-when-active contract holds for ``summary.analysis``
(:func:`repro.obs.analyze.analyze_events` over the merged trace, present
only when tracing produced events).  ``summary.phases`` is always there
in reports the suite writes (:func:`phases_summary` over the phase timers
of :mod:`repro.obs.metrics`): per experiment, the calls and inclusive
seconds of each timed phase, chunks run on other processes included.
Phase times are wall-clock figures, so they stay out of the records;
reports written before the timers existed have no block and still
validate.

ERROR/TIMEOUT outcomes are reproducible from the report alone: re-run the
experiment with ``--seed <seed>`` (or no flag when ``seed`` is null — the
recorded ``default_seed`` is what the experiment used), and any sampled
fault plans are pinned by ``fault_seeds``.

Validate a report file from the command line (CI does)::

    python -m repro.obs.report metrics_report.json            # schema check
    python -m repro.obs.report metrics_report.json --summary  # + table
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "REPORT_SCHEMA",
    "ReportSchemaError",
    "outcome_record",
    "build_report",
    "cache_summary",
    "resilience_summary",
    "phases_summary",
    "validate_report",
    "format_record",
    "format_suite_summary",
    "format_summary_table",
]

REPORT_SCHEMA = "repro.obs.run-report/4"

_STATUSES = ("pass", "fail", "error", "timeout")


class ReportSchemaError(ValueError):
    """The payload does not conform to ``repro.obs.run-report/4``."""


def outcome_record(
    outcome,
    claim: str,
    *,
    default_seed: Optional[int] = None,
    trace_file: Optional[str] = None,
) -> Dict[str, Any]:
    """The canonical per-experiment record for an ``ExperimentOutcome``.

    ``outcome`` is duck-typed (this module must not import the experiment
    layer): it needs ``experiment``, ``status``, ``ok``, ``elapsed``,
    ``attempts``, ``seed``, ``report``, ``error`` and the observability
    fields ``metrics`` / ``peak_rss_bytes`` added by the guarded runner.
    """
    metrics = getattr(outcome, "metrics", None) or {}
    histograms = metrics.get("histograms", {})
    fault_seeds = list(histograms.get("faults.plan.seed", {}).get("samples", []))
    report = getattr(outcome, "report", None)
    attempt_history = [
        {
            "attempt": int(entry.get("attempt", index + 1)),
            "seed": entry.get("seed"),
            "status": str(entry.get("status")),
            "error_class": entry.get("error_class"),
            "elapsed_s": float(entry.get("elapsed_s", 0.0)),
        }
        for index, entry in enumerate(getattr(outcome, "attempt_history", None) or [])
    ]
    return {
        "experiment": outcome.experiment,
        "claim": claim,
        "status": outcome.status,
        "ok": bool(outcome.ok),
        "elapsed_s": float(outcome.elapsed),
        "attempts": int(outcome.attempts),
        "seed": outcome.seed,
        "default_seed": default_seed,
        "attempt_history": attempt_history,
        "fault_seeds": fault_seeds,
        "peak_rss_bytes": getattr(outcome, "peak_rss_bytes", None),
        "counters": dict(metrics.get("counters", {})),
        "histograms": {name: dict(export) for name, export in histograms.items()},
        "table": None if report is None else report.table,
        "error": getattr(outcome, "error", None),
        "trace_file": trace_file,
    }


def build_report(
    records: Sequence[Dict[str, Any]],
    *,
    argv: Optional[Sequence[str]] = None,
    fast: bool = True,
    wall_time_s: Optional[float] = None,
    cache: Optional[Dict[str, Any]] = None,
    backend: Optional[Dict[str, Any]] = None,
    resilience: Optional[Dict[str, Any]] = None,
    trace: Optional[Dict[str, Any]] = None,
    phases: Optional[Dict[str, Any]] = None,
    analysis: Optional[Dict[str, Any]] = None,
    config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Wrap per-experiment records into a schema-valid run report.

    ``cache`` is the optional perf-cache summary block
    (``{"enabled": bool, "counters": {str: int}}``, see
    :func:`cache_summary`); when given it lands in ``summary.cache``.
    ``backend`` is the optional execution-backend description
    (``ExecutionBackend.describe()``: at least ``name``, ``spec`` and
    ``parallelism``); when given it lands in ``summary.backend``.
    ``resilience`` is the optional supervision/transport-health block
    (:func:`resilience_summary`); when given it lands in
    ``summary.resilience``.
    ``trace`` is the optional distributed-trace summary
    (:func:`repro.obs.distributed.summarize_events` output, plus a
    ``files`` list); when given it lands in ``summary.trace`` — pass it
    only when tracing actually ran, so untraced reports stay byte-stable.
    ``phases`` is the phase-timer block (:func:`phases_summary`); when
    given it lands in ``summary.phases``.
    ``analysis`` is the optional trace-analytics block
    (:func:`repro.obs.analyze.analyze_events` over the merged trace); when
    given it lands in ``summary.analysis``.
    ``config`` is the optional resolved run configuration
    (:meth:`repro.api.RunConfig.describe`: flat scalar fields); when given
    it lands in ``summary.config``, recording exactly which knobs the run
    resolved to (an optional key like ``cache.persistent`` — no schema
    bump).  Like ``argv``, it is provenance: differential comparisons
    treat it as volatile.
    """
    failures = [
        {"experiment": r["experiment"], "status": r["status"]}
        for r in records
        if not r["ok"]
    ]
    summary: Dict[str, Any] = {
        "total": len(records),
        "passed": sum(1 for r in records if r["ok"]),
        "failures": failures,
        "wall_time_s": (
            float(wall_time_s)
            if wall_time_s is not None
            else sum(r["elapsed_s"] for r in records)
        ),
    }
    if cache is not None:
        summary["cache"] = cache
    if backend is not None:
        summary["backend"] = backend
    if resilience is not None:
        summary["resilience"] = resilience
    if trace is not None:
        summary["trace"] = trace
    if phases is not None:
        summary["phases"] = phases
    if analysis is not None:
        summary["analysis"] = analysis
    if config is not None:
        summary["config"] = config
    payload = {
        "schema": REPORT_SCHEMA,
        "created_unix": time.time(),
        "argv": list(argv) if argv is not None else None,
        "fast": bool(fast),
        "experiments": list(records),
        "summary": summary,
    }
    validate_report(payload)
    return payload


def cache_summary(
    records: Sequence[Dict[str, Any]],
    *,
    enabled: bool,
    persistent: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Aggregate the perf-layer counters across per-experiment records.

    Sums every ``perf.cache.*`` / ``perf.intern.*`` / ``perf.parallel.*``
    counter (each experiment starts from a cleared cache, so the sums are
    deterministic and independent of runner parallelism).  ``persistent``
    is the active :class:`repro.perf.store.PersistentStore`'s ``stats()``
    block (directory, entry count, byte size); it appears only when a
    store was active, so store-less reports are byte-identical to
    pre-store ones."""
    totals: Dict[str, int] = {}
    for record in records:
        for name, value in record.get("counters", {}).items():
            if name.startswith(("perf.cache.", "perf.intern.", "perf.parallel.")):
                totals[name] = totals.get(name, 0) + value
    block: Dict[str, Any] = {
        "enabled": bool(enabled),
        "counters": dict(sorted(totals.items())),
    }
    if persistent is not None:
        block["persistent"] = dict(persistent)
    return block


def phases_summary(
    timers: Dict[str, Dict[str, Dict[str, int]]]
) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """The ``summary.phases`` block from per-experiment timer exports.

    ``timers`` maps experiment id to the ``"timers"`` part of its
    :func:`repro.obs.metrics.snapshot` (``{phase: {"calls", "ns"}}``); the
    block keeps the calls and turns nanoseconds into seconds.
    """
    return {
        experiment: {
            phase: {"calls": int(totals["calls"]), "s": round(totals["ns"] / 1e9, 6)}
            for phase, totals in sorted(phases.items())
        }
        for experiment, phases in timers.items()
    }


#: Counter namespaces that describe transport/supervision health.
_RESILIENCE_PREFIXES = ("perf.supervise.", "perf.parallel.socket.")
_RESILIENCE_EXACT = ("perf.parallel.chunk_fallbacks",)


def resilience_summary(
    records: Sequence[Dict[str, Any]],
    *,
    chunk_deadline_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Aggregate supervision and transport-health counters across records.

    Sums every ``perf.supervise.*`` / ``perf.parallel.socket.*`` counter
    plus ``perf.parallel.chunk_fallbacks`` — the retries, respawns,
    breaker openings, deadline misses and quarantines a run survived.
    The sums come from per-record counters (deterministic across runner
    parallelism), so resilience blocks diff cleanly between runs.
    """
    totals: Dict[str, int] = {}
    for record in records:
        for name, value in record.get("counters", {}).items():
            if name.startswith(_RESILIENCE_PREFIXES) or name in _RESILIENCE_EXACT:
                totals[name] = totals.get(name, 0) + value
    return {
        "chunk_deadline_s": None if chunk_deadline_s is None else float(chunk_deadline_s),
        "counters": dict(sorted(totals.items())),
    }


# -- validation ----------------------------------------------------------------

_RECORD_FIELDS = {
    "experiment": (str,),
    "claim": (str,),
    "status": (str,),
    "ok": (bool,),
    "elapsed_s": (int, float),
    "attempts": (int,),
    "seed": (int, type(None)),
    "default_seed": (int, type(None)),
    "attempt_history": (list,),
    "fault_seeds": (list,),
    "peak_rss_bytes": (int, type(None)),
    "counters": (dict,),
    "histograms": (dict,),
    "table": (str, type(None)),
    "error": (str, type(None)),
    "trace_file": (str, type(None)),
}

#: The fields every ``attempt_history`` entry must carry.
_ATTEMPT_FIELDS = {
    "attempt": (int,),
    "seed": (int, type(None)),
    "status": (str,),
    "error_class": (str, type(None)),
    "elapsed_s": (int, float),
}

#: The numeric fields every ``summary.trace`` process entry must carry.
_TRACE_PROCESS_FIELDS = ("busy_us", "idle_us", "wall_us")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ReportSchemaError(message)


def validate_report(payload: Any) -> None:
    """Raise :class:`ReportSchemaError` unless ``payload`` is a valid report."""
    _require(isinstance(payload, dict), "report must be a JSON object")
    schema = payload.get("schema")
    _require(schema == REPORT_SCHEMA,
             f"schema must be {REPORT_SCHEMA!r}, got {schema!r}")
    _require(isinstance(payload.get("created_unix"), (int, float)),
             "created_unix must be a number")
    _require(payload.get("argv") is None or isinstance(payload["argv"], list),
             "argv must be a list or null")
    _require(isinstance(payload.get("fast"), bool), "fast must be a boolean")
    experiments = payload.get("experiments")
    _require(isinstance(experiments, list), "experiments must be a list")
    for index, record in enumerate(experiments):
        where = f"experiments[{index}]"
        _require(isinstance(record, dict), f"{where} must be an object")
        for name, types in _RECORD_FIELDS.items():
            _require(name in record, f"{where} missing field {name!r}")
            _require(
                isinstance(record[name], types)
                and not (bool not in types and isinstance(record[name], bool)),
                f"{where}.{name} has type {type(record[name]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}",
            )
        _require(record["status"] in _STATUSES,
                 f"{where}.status {record['status']!r} not in {_STATUSES}")
        _require(record["ok"] == (record["status"] == "pass"),
                 f"{where}.ok inconsistent with status {record['status']!r}")
        for position, entry in enumerate(record.get("attempt_history", [])):
            at = f"{where}.attempt_history[{position}]"
            _require(isinstance(entry, dict), f"{at} must be an object")
            for name, types in _ATTEMPT_FIELDS.items():
                _require(name in entry, f"{at} missing field {name!r}")
                _require(
                    isinstance(entry[name], types)
                    and not (bool not in types and isinstance(entry[name], bool)),
                    f"{at}.{name} has type {type(entry[name]).__name__}, "
                    f"expected {'/'.join(t.__name__ for t in types)}",
                )
            _require(entry["attempt"] == position + 1,
                     f"{at}.attempt must be {position + 1} (1-based, in order)")
            _require(entry["status"] in _STATUSES,
                     f"{at}.status {entry['status']!r} not in {_STATUSES}")
            _require(entry["elapsed_s"] >= 0, f"{at}.elapsed_s must be >= 0")
        if record.get("attempt_history"):
            _require(
                len(record["attempt_history"]) == record["attempts"],
                f"{where}.attempt_history length does not match attempts",
            )
            _require(
                record["attempt_history"][-1]["status"] == record["status"],
                f"{where}.attempt_history last status does not match status",
            )
        for key, value in record["counters"].items():
            _require(isinstance(key, str) and isinstance(value, int),
                     f"{where}.counters must map str -> int")
        for key, value in record.get("histograms", {}).items():
            _require(isinstance(key, str) and isinstance(value, dict),
                     f"{where}.histograms must map str -> object")
            for field in ("count", "sum", "min", "max", "p50", "p90", "samples"):
                _require(field in value,
                         f"{where}.histograms[{key!r}] missing field {field!r}")
            _require(isinstance(value["count"], int) and value["count"] >= 0,
                     f"{where}.histograms[{key!r}].count must be an integer >= 0")
            _require(isinstance(value["samples"], list),
                     f"{where}.histograms[{key!r}].samples must be a list")
            for field in ("p99", "mean"):  # optional keys, no schema bump
                if field in value:
                    _require(
                        value[field] is None
                        or (
                            isinstance(value[field], (int, float))
                            and not isinstance(value[field], bool)
                        ),
                        f"{where}.histograms[{key!r}].{field} must be a number or null",
                    )
    summary = payload.get("summary")
    _require(isinstance(summary, dict), "summary must be an object")
    _require(summary.get("total") == len(experiments),
             "summary.total does not match len(experiments)")
    _require(summary.get("passed") == sum(1 for r in experiments if r["ok"]),
             "summary.passed does not match the records")
    _require(isinstance(summary.get("failures"), list), "summary.failures must be a list")
    _require(isinstance(summary.get("wall_time_s"), (int, float)),
             "summary.wall_time_s must be a number")
    if "cache" in summary:
        cache = summary["cache"]
        _require(isinstance(cache, dict), "summary.cache must be an object")
        _require(isinstance(cache.get("enabled"), bool),
                 "summary.cache.enabled must be a boolean")
        _require(isinstance(cache.get("counters"), dict),
                 "summary.cache.counters must be an object")
        for key, value in cache["counters"].items():
            _require(isinstance(key, str) and isinstance(value, int),
                     "summary.cache.counters must map str -> int")
        if "persistent" in cache:
            persistent = cache["persistent"]
            _require(isinstance(persistent, dict),
                     "summary.cache.persistent must be an object")
            _require(isinstance(persistent.get("dir"), str),
                     "summary.cache.persistent.dir must be a string")
            _require(isinstance(persistent.get("entries"), int),
                     "summary.cache.persistent.entries must be an integer")
            _require(isinstance(persistent.get("bytes"), int),
                     "summary.cache.persistent.bytes must be an integer")
    if "backend" in summary:
        backend = summary["backend"]
        _require(isinstance(backend, dict), "summary.backend must be an object")
        _require(isinstance(backend.get("name"), str),
                 "summary.backend.name must be a string")
        _require(isinstance(backend.get("spec"), str),
                 "summary.backend.spec must be a string")
        _require(
            isinstance(backend.get("parallelism"), int)
            and not isinstance(backend["parallelism"], bool)
            and backend["parallelism"] >= 1,
            "summary.backend.parallelism must be an integer >= 1",
        )
        if "workers_started" in backend:
            _require(
                isinstance(backend["workers_started"], int)
                and not isinstance(backend["workers_started"], bool)
                and backend["workers_started"] >= 0,
                "summary.backend.workers_started must be an integer >= 0",
            )
    if "resilience" in summary:
        resilience = summary["resilience"]
        _require(isinstance(resilience, dict), "summary.resilience must be an object")
        _require(
            resilience.get("chunk_deadline_s") is None
            or (
                isinstance(resilience["chunk_deadline_s"], (int, float))
                and not isinstance(resilience["chunk_deadline_s"], bool)
                and resilience["chunk_deadline_s"] > 0
            ),
            "summary.resilience.chunk_deadline_s must be a positive number or null",
        )
        _require(isinstance(resilience.get("counters"), dict),
                 "summary.resilience.counters must be an object")
        for key, value in resilience["counters"].items():
            _require(isinstance(key, str) and isinstance(value, int),
                     "summary.resilience.counters must map str -> int")
    if "trace" in summary:
        trace = summary["trace"]
        _require(isinstance(trace, dict), "summary.trace must be an object")
        _require(
            isinstance(trace.get("events"), int)
            and not isinstance(trace["events"], bool)
            and trace["events"] >= 0,
            "summary.trace.events must be an integer >= 0",
        )
        if "files" in trace:
            _require(
                isinstance(trace["files"], list)
                and all(isinstance(f, str) for f in trace["files"]),
                "summary.trace.files must be a list of strings",
            )
        _require(isinstance(trace.get("processes"), list),
                 "summary.trace.processes must be a list")
        for index, proc in enumerate(trace["processes"]):
            where = f"summary.trace.processes[{index}]"
            _require(isinstance(proc, dict), f"{where} must be an object")
            _require(isinstance(proc.get("pid"), int), f"{where}.pid must be an integer")
            _require(proc.get("name") is None or isinstance(proc["name"], str),
                     f"{where}.name must be a string or null")
            for field in ("spans", "instants"):
                _require(
                    isinstance(proc.get(field), int) and proc[field] >= 0,
                    f"{where}.{field} must be an integer >= 0",
                )
            for field in _TRACE_PROCESS_FIELDS:
                _require(
                    isinstance(proc.get(field), (int, float))
                    and not isinstance(proc[field], bool)
                    and proc[field] >= 0,
                    f"{where}.{field} must be a number >= 0",
                )
        _require(isinstance(trace.get("slowest_spans"), list),
                 "summary.trace.slowest_spans must be a list")
        for index, span in enumerate(trace["slowest_spans"]):
            where = f"summary.trace.slowest_spans[{index}]"
            _require(isinstance(span, dict), f"{where} must be an object")
            _require(isinstance(span.get("name"), str), f"{where}.name must be a string")
            _require(isinstance(span.get("pid"), int), f"{where}.pid must be an integer")
            _require(
                isinstance(span.get("dur_us"), (int, float))
                and not isinstance(span["dur_us"], bool)
                and span["dur_us"] >= 0,
                f"{where}.dur_us must be a number >= 0",
            )
    if "phases" in summary:
        phases = summary["phases"]
        _require(isinstance(phases, dict), "summary.phases must be an object")
        for experiment, timed in phases.items():
            where = f"summary.phases[{experiment!r}]"
            _require(isinstance(timed, dict), f"{where} must be an object")
            for phase, totals in timed.items():
                at = f"{where}[{phase!r}]"
                _require(isinstance(totals, dict), f"{at} must be an object")
                _require(
                    isinstance(totals.get("calls"), int)
                    and not isinstance(totals["calls"], bool)
                    and totals["calls"] >= 0,
                    f"{at}.calls must be an integer >= 0",
                )
                _require(
                    isinstance(totals.get("s"), (int, float))
                    and not isinstance(totals["s"], bool)
                    and totals["s"] >= 0,
                    f"{at}.s must be a number >= 0",
                )
    if "analysis" in summary:
        analysis = summary["analysis"]
        _require(isinstance(analysis, dict), "summary.analysis must be an object")
        path = analysis.get("critical_path")
        _require(isinstance(path, dict), "summary.analysis.critical_path must be an object")
        _require(
            isinstance(path.get("wall_us"), (int, float))
            and not isinstance(path["wall_us"], bool)
            and path["wall_us"] >= 0,
            "summary.analysis.critical_path.wall_us must be a number >= 0",
        )
        _require(isinstance(path.get("steps"), list),
                 "summary.analysis.critical_path.steps must be a list")
        for index, step in enumerate(path["steps"]):
            where = f"summary.analysis.critical_path.steps[{index}]"
            _require(isinstance(step, dict), f"{where} must be an object")
            _require(isinstance(step.get("name"), str), f"{where}.name must be a string")
            _require(isinstance(step.get("pid"), int), f"{where}.pid must be an integer")
            for field in ("start_us", "dur_us"):
                _require(
                    isinstance(step.get(field), (int, float))
                    and not isinstance(step[field], bool),
                    f"{where}.{field} must be a number",
                )
        _require(isinstance(analysis.get("lanes"), list),
                 "summary.analysis.lanes must be a list")
        for index, lane in enumerate(analysis["lanes"]):
            where = f"summary.analysis.lanes[{index}]"
            _require(isinstance(lane, dict), f"{where} must be an object")
            _require(isinstance(lane.get("pid"), int), f"{where}.pid must be an integer")
            _require(
                isinstance(lane.get("chunks"), int) and lane["chunks"] >= 0,
                f"{where}.chunks must be an integer >= 0",
            )
            for field in ("skew", "utilization"):
                _require(
                    isinstance(lane.get(field), (int, float))
                    and not isinstance(lane[field], bool)
                    and lane[field] >= 0,
                    f"{where}.{field} must be a number >= 0",
                )
            _require(isinstance(lane.get("idle_gaps"), dict),
                     f"{where}.idle_gaps must be an object")
            _require(isinstance(lane.get("straggler"), bool),
                     f"{where}.straggler must be a boolean")
        _require(isinstance(analysis.get("stragglers"), list),
                 "summary.analysis.stragglers must be a list")
    if "config" in summary:
        config = summary["config"]
        _require(isinstance(config, dict), "summary.config must be an object")
        for key, value in config.items():
            _require(
                isinstance(key, str)
                and (value is None or isinstance(value, (str, int, float, bool))),
                "summary.config must map str -> scalar or null",
            )


# -- human rendering (the runner's only output path) ----------------------------


def format_record(record: Dict[str, Any]) -> str:
    """The human block for one experiment, rendered from its record."""
    status = record["status"].upper()
    header = f"[{status}] {record['experiment']} — {record['claim']}"
    if record["table"] is not None:
        body = record["table"]
    else:
        detail = record["error"] or "no detail"
        body = "\n".join(f"   {line}" for line in detail.rstrip().splitlines())
    notes = [f"{record['elapsed_s']:.2f}s"]
    if record["attempts"] > 1:
        notes.append(f"{record['attempts']} attempts")
    if record["seed"] is not None:
        notes.append(f"seed {record['seed']}")
    return f"{header}\n{body}\n   ({', '.join(notes)})"


def format_suite_summary(records: Sequence[Dict[str, Any]]) -> str:
    """The suite's closing line, rendered from the records."""
    failures = [r for r in records if not r["ok"]]
    if failures:
        detail = ", ".join(f"{r['experiment']} [{r['status'].upper()}]" for r in failures)
        return f"FAILED ({len(failures)}/{len(records)} run): {detail}"
    return f"all {len(records)} experiments passed"


#: Phases shown per experiment in the summary table, slowest first.
_TOP_PHASES = 3

_TABLE_COUNTERS = (
    ("steps", "scheduler.steps"),
    ("compose", "measure.compose.calls"),
    ("tv", "secure.tv.calls"),
    ("faults", "faults.injected"),
)


def format_summary_table(payload: Dict[str, Any]) -> str:
    """An aligned per-experiment summary table for a full report."""
    headers = ["experiment", "status", "time(s)", "att", "seed", "rss(MB)"] + [
        label for label, _ in _TABLE_COUNTERS
    ]
    rows: List[List[str]] = []
    for record in payload["experiments"]:
        rss = record["peak_rss_bytes"]
        seed = record["seed"] if record["seed"] is not None else record["default_seed"]
        rows.append(
            [
                record["experiment"],
                record["status"],
                f"{record['elapsed_s']:.2f}",
                str(record["attempts"]),
                "-" if seed is None else str(seed),
                "-" if rss is None else f"{rss / (1024 * 1024):.1f}",
            ]
            + [str(record["counters"].get(key, 0)) for _, key in _TABLE_COUNTERS]
        )
    summary = payload["summary"]
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
              for i in range(len(headers))]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    histogram_lines = []
    for record in payload["experiments"]:
        for name, stats in sorted(record.get("histograms", {}).items()):
            mean = stats.get("mean")
            extras = ""
            if "p99" in stats:
                extras += f" p99={stats.get('p99')}"
            if mean is not None:
                extras += f" mean={mean:.4g}" if isinstance(mean, float) else f" mean={mean}"
            histogram_lines.append(
                f"  {record['experiment']} {name}: "
                f"n={stats.get('count')} p50={stats.get('p50')} "
                f"p90={stats.get('p90')}{extras} max={stats.get('max')}"
            )
    if histogram_lines:
        lines.append("histograms (nearest-rank over captured samples):")
        lines.extend(histogram_lines)
    if "trace" in summary:
        trace = summary["trace"]
        lines.append(
            f"trace: {trace.get('events')} events across "
            f"{len(trace.get('processes', []))} process lane(s)"
        )
    if summary.get("phases"):
        lines.append("phases (inclusive seconds/calls; nested phases overlap):")
        for experiment, timed in summary["phases"].items():
            ranked = sorted(timed.items(), key=lambda kv: kv[1]["s"], reverse=True)
            rendered = ", ".join(
                f"{phase} {totals['s']:.3f}s/{totals['calls']}"
                for phase, totals in ranked[:_TOP_PHASES]
            )
            lines.append(f"  {experiment}: {rendered or '-'}")
    if "analysis" in summary:
        steps = summary["analysis"].get("critical_path", {}).get("steps", [])
        if steps:
            lines.append(
                "critical path: "
                + " -> ".join(
                    f"{step['name']} ({step['dur_us'] / 1000.0:.1f}ms)" for step in steps
                )
            )
    lines.append(
        f"{summary['passed']}/{summary['total']} passed, "
        f"wall time {summary['wall_time_s']:.2f}s"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: validate a report file (exit 1 on schema violation)."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Validate (and optionally summarize) a repro run report."
    )
    parser.add_argument("report", help="path to a --metrics-out JSON file")
    parser.add_argument(
        "--summary", action="store_true", help="print the per-experiment table"
    )
    args = parser.parse_args(argv)
    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        validate_report(payload)
    except (OSError, json.JSONDecodeError, ReportSchemaError) as exc:
        print(f"invalid report {args.report}: {exc}")
        return 1
    summary = payload["summary"]
    print(
        f"report OK: {summary['total']} experiments, {summary['passed']} passed, "
        f"{len(summary['failures'])} failures"
    )
    if args.summary:
        print(format_summary_table(payload))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
