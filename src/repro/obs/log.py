"""Structured JSONL event logging with job correlation ids.

The service layer needs logs a machine can aggregate — "every admission
decision, with tenant and reason" — not stderr prose.  This module is a
zero-dependency structured logger in the spirit of the rest of
:mod:`repro.obs`: **off by default**, one flag test on the disabled path,
and JSON-lines output that pairs with the run-report/trace tooling.

Records are one JSON object per line::

    {"ts": 1754650000.123456, "level": "info", "logger": "service.jobs",
     "event": "service.job.running", "pid": 4242, "job": "job-3-9f2c1a",
     "tenant": "default", "state": "running"}

* ``ts`` is unix time, ``pid`` the emitting process, ``logger`` the
  component, ``event`` a dotted event name; every other key is the
  caller's structured payload (JSON-safe values; anything else is
  ``repr``'d).
* ``job`` is the **correlation id** — see below — attached automatically
  to every record while one is set, which is what lets ``grep job-3`` (or
  any log pipeline) reassemble one job's story across the service
  process, its forked experiment children and remote socket workers.

Gating and sinks
----------------
The logger is enabled by pointing it at a sink: programmatically via
:func:`configure` (the service's ``--log-dir`` does this) or through the
``REPRO_LOG`` environment variable (a directory, or a path ending in
``.jsonl``), checked once at import time — how a remote
``python -m repro.perf.worker`` gets a sink.  Every local child is a fork
and inherits the open sink through memory, so experiment children and
``pool:N`` workers append to the **same** file; nothing is written to
``os.environ``.  Concurrent appenders are safe: each record is a single
``os.write`` on an ``O_APPEND`` descriptor, so lines never interleave.
``REPRO_LOG_LEVEL`` (``debug``/``info``/``warning``/``error``, default
``info``) sets the threshold.

Correlation ids
---------------
:func:`set_correlation` installs the current job id (the service's
dispatcher brackets each job execution with it); forked experiment
children inherit it through memory.  Socket workers are fresh
interpreters on possibly different hosts, and ``pool:N`` workers clear the
id they inherit when they fork, so the id rides the run-frame ``ctx``
(see :mod:`repro.perf.backends.sockets`) and the worker installs it in
each chunk's child.  The id is deliberately **not** a
:class:`~repro.api.RunConfig` field: the config participates in the
service's content fingerprint (job coalescing and reuse), and a per-job
id there would make every submission unique and kill both.

Logging must never fail the run: sink errors are swallowed, and a record
that cannot be JSON-encoded falls back to ``repr`` per value.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Optional

__all__ = [
    "LEVELS",
    "BoundLogger",
    "configure",
    "configure_from_env",
    "correlation",
    "enabled",
    "get_logger",
    "log",
    "log_path",
    "set_correlation",
]

#: Environment variables of the log sink and level.
ENV_SINK = "REPRO_LOG"
ENV_LEVEL = "REPRO_LOG_LEVEL"

#: Default file name when the sink is given as a directory.
DEFAULT_BASENAME = "repro-log.jsonl"

LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class _Sink:
    """An append-only JSONL file: one ``os.write`` per record.

    ``O_APPEND`` makes each write land atomically at the end of the file,
    so any number of processes (the service, its forked experiment
    children, locally-launched pool workers) can share one log without a
    lock or interleaved lines.
    """

    __slots__ = ("path", "level_no", "_fd")

    def __init__(self, path: str, level_no: int) -> None:
        self.path = path
        self.level_no = level_no
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def write_line(self, data: bytes) -> None:
        os.write(self._fd, data)

    def close(self) -> None:
        try:
            os.close(self._fd)
        except OSError:
            pass


_SINK: Optional[_Sink] = None
_CORRELATION: Optional[str] = None


def _resolve_path(path: str) -> str:
    """A directory becomes ``<dir>/repro-log.jsonl``; files pass through."""
    if path.endswith(".jsonl"):
        return os.path.abspath(path)
    return os.path.abspath(os.path.join(path, DEFAULT_BASENAME))


def _level_no(level: Optional[str]) -> int:
    if level is None:
        level = os.environ.get(ENV_LEVEL, "").strip().lower() or "info"
    try:
        return LEVELS[level]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r} (use {'/'.join(LEVELS)})"
        )


def configure(path: Optional[str], *, level: Optional[str] = None) -> Optional[str]:
    """Point the process logger at ``path`` (file or directory); ``None``
    disables it.

    Returns the resolved JSONL file path (or ``None``).  Forked children
    inherit the open sink; the environment is left untouched.
    """
    global _SINK
    if _SINK is not None:
        _SINK.close()
        _SINK = None
    if path is None:
        return None
    resolved = _resolve_path(path)
    _SINK = _Sink(resolved, _level_no(level))
    return resolved


def configure_from_env() -> Optional[str]:
    """Open the sink the ``REPRO_LOG`` environment asks for (the
    import-time gate of a fresh interpreter)."""
    raw = os.environ.get(ENV_SINK, "").strip()
    if not raw:
        return None
    try:
        return configure(raw)
    except (OSError, ValueError):
        return None  # an unusable sink must not break the process


def enabled() -> bool:
    """True when records are being written somewhere."""
    return _SINK is not None


def log_path() -> Optional[str]:
    """The active sink's file path (``None`` when disabled)."""
    return _SINK.path if _SINK is not None else None


# -- correlation ids -------------------------------------------------------------


def set_correlation(job_id: Optional[str]) -> None:
    """Install (or clear) the correlation id for this process and the
    children it forks; workers get it through the run-frame ctx instead."""
    global _CORRELATION
    _CORRELATION = job_id


def correlation() -> Optional[str]:
    """The current correlation id (``None`` when none is set)."""
    return _CORRELATION


# -- emitting --------------------------------------------------------------------


def log(level: str, event: str, *, logger: str = "repro", **fields: Any) -> None:
    """Emit one structured record (a no-op unless a sink is configured)."""
    sink = _SINK
    if sink is None:
        return
    level_no = LEVELS.get(level, 20)
    if level_no < sink.level_no:
        return
    record: Dict[str, Any] = {
        "ts": round(time.time(), 6),
        "level": level,
        "logger": logger,
        "event": event,
        "pid": os.getpid(),
    }
    # An explicit job field is authoritative — even job=None, which states
    # "this record belongs to no job" (e.g. an unrelated HTTP request served
    # while the dispatcher's ambient correlation id is set).
    fields = dict(fields)
    job = fields.pop("job", None) if "job" in fields else correlation()
    if job is not None:
        record["job"] = job
    for key, value in fields.items():
        if value is not None:
            record[key] = value
    try:
        line = json.dumps(record, default=repr) + "\n"
    except (TypeError, ValueError):  # pathological __repr__; drop the record
        return
    try:
        sink.write_line(line.encode("utf-8"))
    except OSError:
        pass  # observability must never fail the run


class BoundLogger:
    """A component-named handle over the module sink (bind once, emit many)."""

    __slots__ = ("name", "_bound")

    def __init__(self, name: str, bound: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self._bound = dict(bound or {})

    def bind(self, **fields: Any) -> "BoundLogger":
        """A child logger whose records always carry ``fields``."""
        return BoundLogger(self.name, {**self._bound, **fields})

    def _emit(self, level: str, event: str, fields: Dict[str, Any]) -> None:
        if _SINK is None:
            return
        log(level, event, logger=self.name, **{**self._bound, **fields})

    def debug(self, event: str, **fields: Any) -> None:
        self._emit("debug", event, fields)

    def info(self, event: str, **fields: Any) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        self._emit("warning", event, fields)

    def error(self, event: str, **fields: Any) -> None:
        self._emit("error", event, fields)


def get_logger(name: str) -> BoundLogger:
    """A :class:`BoundLogger` for component ``name`` (cheap; not cached)."""
    return BoundLogger(name)


# The environment gate applies to every fresh interpreter (forked children
# inherit the open sink through memory).
configure_from_env()
