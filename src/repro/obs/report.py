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
          "error": null                       # traceback / diagnosis otherwise
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
        "phases": {                                            # every run:
          "E15": {"measure.unfold": {"calls": 120, "s": 0.09}, # inclusive
                  "scheduler.step": {"calls": 900, "s": 0.03}, # seconds per
                  ...}, ...                                    # phase timer
        },
        "config": {                                            # optional:
          "full": false, "parallel": 2, "cache": "on",         # the resolved
          "backend": "pool:4", "chunk_deadline": 30.0, ...     # RunConfig
        }
      }
    }

Each summary block after ``wall_time_s`` has one builder, and
:func:`build_report` takes the block by name: ``cache``
(:func:`cache_summary`), ``backend`` (``ExecutionBackend.describe()``),
``resilience`` (:func:`resilience_summary`), ``phases``
(:func:`phases_summary` over the phase timers of :mod:`repro.obs.metrics`)
and ``config`` (:meth:`repro.api.RunConfig.describe`).  ``phases`` is in every
report the suite writes: per experiment, the calls and inclusive seconds of
each timed phase, chunks run on other processes included; the times are
wall-clock figures, so they stay out of the records.

The ``_FORMAT`` table states this format once, and :func:`validate_report`
walks it.  Keys the table does not name pass, so reports written before a
block existed (no ``phases``) or carrying one that has gone (``profile``,
``trace``, ``analysis``, a record's ``trace_file``) still validate.  A new
block is one table entry plus its builder.

ERROR/TIMEOUT outcomes are reproducible from the report alone: re-run the
experiment with ``--seed <seed>`` (or no flag when ``seed`` is null — the
recorded ``default_seed`` is what the experiment used), and any sampled
fault plans are pinned by ``fault_seeds``.

:func:`read_report` reads and validates a saved report; it is the one
reader behind ``python -m repro.obs report`` (CI runs it) and
:func:`repro.api.load_report`::

    python -m repro.obs report metrics_report.json            # schema check
    python -m repro.obs report metrics_report.json --summary  # + table
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "REPORT_SCHEMA",
    "ReportSchemaError",
    "outcome_record",
    "build_report",
    "cache_summary",
    "resilience_summary",
    "phases_summary",
    "read_report",
    "validate_report",
    "format_record",
    "format_suite_summary",
    "format_summary_table",
]

REPORT_SCHEMA = "repro.obs.run-report/4"


class ReportSchemaError(ValueError):
    """The payload does not conform to ``repro.obs.run-report/4``."""


def outcome_record(
    outcome,
    claim: str,
    *,
    default_seed: Optional[int] = None,
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
    phases: Optional[Dict[str, Any]] = None,
    config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Wrap per-experiment records into a schema-valid run report.

    Each block given lands in ``summary`` under its own name; the module
    docstring names each block's builder.  Like ``argv``, ``config`` is
    provenance, which differential comparisons treat as volatile.
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
    blocks = {
        "cache": cache, "backend": backend, "resilience": resilience,
        "phases": phases, "config": config,
    }
    summary.update((name, block) for name, block in blocks.items() if block is not None)
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
    """Sum the ``perf.cache.*`` / ``perf.parallel.*`` counters across
    per-experiment records.

    ``persistent`` is the active :class:`repro.perf.store.PersistentStore`'s
    ``stats()`` block (directory, entry count, byte size); it appears only
    when a store was active, so store-less reports are byte-identical to
    pre-store ones."""
    block: Dict[str, Any] = {
        "enabled": bool(enabled),
        "counters": _counter_sums(records, ("perf.cache.", "perf.parallel.")),
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


#: Counter names that describe transport/supervision health.
_RESILIENCE_PREFIXES = (
    "perf.supervise.", "perf.parallel.socket.", "perf.parallel.chunk_fallbacks"
)


def resilience_summary(
    records: Sequence[Dict[str, Any]],
    *,
    chunk_deadline_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Sum the ``perf.supervise.*`` / ``perf.parallel.socket.*`` counters
    and ``perf.parallel.chunk_fallbacks`` across records: the retries,
    respawns, breaker openings, deadline misses and quarantines a run
    survived."""
    return {
        "chunk_deadline_s": None if chunk_deadline_s is None else float(chunk_deadline_s),
        "counters": _counter_sums(records, _RESILIENCE_PREFIXES),
    }


def _counter_sums(
    records: Sequence[Dict[str, Any]], prefixes: Tuple[str, ...]
) -> Dict[str, int]:
    """The records' counters named with one of ``prefixes``, summed, by name.

    Each experiment starts from cleared counters and caches, so the sums
    are deterministic and independent of runner parallelism: the blocks
    diff cleanly between runs."""
    totals: Dict[str, int] = {}
    for record in records:
        for name, value in record.get("counters", {}).items():
            if name.startswith(prefixes):
                totals[name] = totals.get(name, 0) + value
    return dict(sorted(totals.items()))


# -- the format (see the module docstring) -------------------------------------
#
# A bool is never a number.  The rules that relate two fields follow the walk.


class _Spec(NamedTuple):
    """What one value of the report must be; no ``types`` means anything."""

    types: Tuple[type, ...]
    null: bool = False  # None is accepted
    optional: bool = False  # the key may be missing from its object
    ge: Optional[float] = None  # the value is >= ge
    gt: Optional[float] = None  # the value is > gt
    choices: Tuple[Any, ...] = ()  # the value is one of these
    fields: Optional[Dict[str, "_Spec"]] = None  # an object's named keys
    values: Optional["_Spec"] = None  # every value of a string-keyed object
    items: Optional["_Spec"] = None  # every element of a list


def _val(*types: type, **rules: Any) -> _Spec:
    return _Spec(types, **rules)


def _obj(fields: Optional[Dict[str, _Spec]] = None, **rules: Any) -> _Spec:
    return _Spec((dict,), fields=fields, **rules)


_ANY = _Spec(())
_STR, _BOOL, _INT, _NUM = _val(str), _val(bool), _val(int), _val(int, float)
_COUNT = _val(int, ge=0)
_AMOUNT = _val(int, float, ge=0)
_STATUS = _val(str, choices=("pass", "fail", "error", "timeout"))
_COUNTERS = _obj(values=_INT)

_ATTEMPT = _obj({
    "attempt": _INT,
    "seed": _val(int, null=True),
    "status": _STATUS,
    "error_class": _val(str, null=True),
    "elapsed_s": _AMOUNT,
})

_HISTOGRAM = _obj({
    "count": _COUNT,
    "sum": _ANY, "min": _ANY, "max": _ANY, "p50": _ANY, "p90": _ANY,
    "samples": _val(list),
    "p99": _val(int, float, null=True, optional=True),
    "mean": _val(int, float, null=True, optional=True),
})

_RECORD = _obj({
    "experiment": _STR,
    "claim": _STR,
    "status": _STATUS,
    "ok": _BOOL,
    "elapsed_s": _NUM,
    "attempts": _INT,
    "seed": _val(int, null=True),
    "default_seed": _val(int, null=True),
    "attempt_history": _val(list, items=_ATTEMPT),
    "fault_seeds": _val(list),
    "peak_rss_bytes": _val(int, null=True),
    "counters": _COUNTERS,
    "histograms": _obj(values=_HISTOGRAM),
    "table": _val(str, null=True),
    "error": _val(str, null=True),
})

_SUMMARY = _obj({
    "total": _COUNT,
    "passed": _COUNT,
    "failures": _val(list),
    "wall_time_s": _NUM,
    "cache": _obj({
        "enabled": _BOOL,
        "counters": _COUNTERS,
        "persistent": _obj({"dir": _STR, "entries": _INT, "bytes": _INT}, optional=True),
    }, optional=True),
    "backend": _obj({
        "name": _STR,
        "spec": _STR,
        "parallelism": _val(int, ge=1),
        "workers_started": _val(int, ge=0, optional=True),
    }, optional=True),
    "resilience": _obj({
        "chunk_deadline_s": _val(int, float, gt=0, null=True, optional=True),
        "counters": _COUNTERS,
    }, optional=True),
    "phases": _obj(
        values=_obj(values=_obj({"calls": _COUNT, "s": _AMOUNT})), optional=True
    ),
    "config": _obj(values=_val(str, int, float, bool, null=True), optional=True),
})

#: The run report, ``repro.obs.run-report/4``.
_FORMAT = _obj({
    "schema": _val(str, choices=(REPORT_SCHEMA,)),
    "created_unix": _NUM,
    "argv": _val(list, null=True, optional=True),
    "fast": _BOOL,
    "experiments": _val(list, items=_RECORD),
    "summary": _SUMMARY,
})


def _fail(path: str, problem: str) -> None:
    raise ReportSchemaError(f"{path or 'report'} {problem}")


def _check(spec: _Spec, value: Any, path: str) -> None:
    """Raise :class:`ReportSchemaError` unless ``value`` (at ``path``) fits ``spec``."""
    if not spec.types or (value is None and spec.null):
        return
    if not isinstance(value, spec.types) or (
        isinstance(value, bool) and bool not in spec.types
    ):
        expected = "/".join([t.__name__ for t in spec.types] + ["null"] * spec.null)
        _fail(path, f"must be {expected}, got {type(value).__name__}")
    if spec.choices and value not in spec.choices:
        _fail(path, f"must be one of {', '.join(map(repr, spec.choices))}, got {value!r}")
    if spec.ge is not None and value < spec.ge:
        _fail(path, f"must be >= {spec.ge}, got {value!r}")
    if spec.gt is not None and value <= spec.gt:
        _fail(path, f"must be > {spec.gt}, got {value!r}")
    if spec.fields is not None:
        for name, field in spec.fields.items():
            if name in value:
                _check(field, value[name], f"{path}.{name}" if path else name)
            elif not field.optional:
                _fail(path, f"missing field {name!r}")
    if spec.values is not None:
        for key, item in value.items():
            if not isinstance(key, str):
                _fail(path, f"keys must be strings, got {key!r}")
            _check(spec.values, item, f"{path}[{key!r}]")
    if spec.items is not None:
        for index, item in enumerate(value):
            _check(spec.items, item, f"{path}[{index}]")


def read_report(path: str) -> Dict[str, Any]:
    """Read and validate a ``--metrics-out`` report file.

    Raises :class:`ReportSchemaError` for schema violations and
    ``OSError`` / ``json.JSONDecodeError`` for unreadable files; callers
    that just want "valid or not" catch ``ValueError`` plus ``OSError``."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_report(payload)
    return payload


def validate_report(payload: Any) -> None:
    """Raise :class:`ReportSchemaError` unless ``payload`` is a valid report."""
    _check(_FORMAT, payload, "")
    experiments = payload["experiments"]
    for index, record in enumerate(experiments):
        where = f"experiments[{index}]"
        if record["ok"] != (record["status"] == "pass"):
            _fail(f"{where}.ok", f"inconsistent with status {record['status']!r}")
        history = record["attempt_history"]
        for position, entry in enumerate(history):
            if entry["attempt"] != position + 1:
                _fail(f"{where}.attempt_history[{position}].attempt",
                      f"must be {position + 1} (1-based, in order)")
        if history and len(history) != record["attempts"]:
            _fail(f"{where}.attempt_history", "length does not match attempts")
        if history and history[-1]["status"] != record["status"]:
            _fail(f"{where}.attempt_history", "last status does not match status")
    summary = payload["summary"]
    if summary["total"] != len(experiments):
        _fail("summary.total", "does not match len(experiments)")
    if summary["passed"] != sum(1 for r in experiments if r["ok"]):
        _fail("summary.passed", "does not match the records")


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
    if summary.get("phases"):
        lines.append("phases (inclusive seconds/calls; nested phases overlap):")
        for experiment, timed in summary["phases"].items():
            ranked = sorted(timed.items(), key=lambda kv: kv[1]["s"], reverse=True)
            rendered = ", ".join(
                f"{phase} {totals['s']:.3f}s/{totals['calls']}"
                for phase, totals in ranked[:_TOP_PHASES]
            )
            lines.append(f"  {experiment}: {rendered or '-'}")
    lines.append(
        f"{summary['passed']}/{summary['total']} passed, "
        f"wall time {summary['wall_time_s']:.2f}s"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.obs report FILE [--summary]``: validate a report
    file (exit 1 when it is missing or invalid)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs report",
        description="Validate (and optionally summarize) a repro run report.",
    )
    parser.add_argument("report", help="path to a --metrics-out JSON file")
    parser.add_argument(
        "--summary", action="store_true", help="print the per-experiment table"
    )
    args = parser.parse_args(argv)
    try:
        payload = read_report(args.report)
    except (OSError, ValueError) as exc:
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

