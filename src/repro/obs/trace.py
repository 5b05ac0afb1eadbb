"""Span tracing with Chrome-trace-format output.

A *span* is a named, timed interval; spans nest (a span opened while
another is active is its child) and carry arbitrary JSON-serializable
``args``.  The tracer records complete-duration events (``ph: "X"``) with
microsecond timestamps from the monotonic clock, so a saved trace loads
directly in ``chrome://tracing`` or https://ui.perfetto.dev.

Tracing is **off by default** and the disabled path is near-free: ``span``
returns a shared no-op context manager after a single flag test, and
``traced`` wrappers fall through to the wrapped function.  Hot *counters*
live in :mod:`repro.obs.metrics` instead — spans are for phase-level
structure (an experiment, one ``execution_measure`` unfolding), not for
per-transition work.

The run config's ``trace`` switch (``RunConfig.apply``; the ``REPRO_TRACE``
gate at entry points) turns the process tracer on.  Forked children
inherit the switch through memory, and socket workers receive it per
chunk in the run frame.  Cross-process span collection, clock alignment
and lane merging live in :mod:`repro.obs.distributed`.

Usage::

    from repro.obs import trace

    trace.enable()
    with trace.span("experiment", id="E4"):
        with trace.span("unfold", depth=12):
            ...
    trace.TRACER.save("E4.trace.json")
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Tracer",
    "TRACER",
    "NULL_SPAN",
    "span",
    "traced",
    "instant",
    "enable",
    "disable",
    "is_enabled",
]


class _NullSpan:
    """The shared disabled-mode span: a no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_args) -> None:
        """Attach args to the span (no-op when disabled)."""


_NULL_SPAN = _NullSpan()

#: Public alias: hot paths that must not even *evaluate* span arguments in
#: disabled mode branch on ``TRACER.enabled`` themselves and use this.
NULL_SPAN = _NULL_SPAN


class _Span:
    """An active span: records one complete event on exit."""

    __slots__ = ("_tracer", "name", "args", "_start_ns", "depth")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start_ns = 0
        self.depth = 0

    def set(self, **args) -> None:
        """Attach extra args to the span before it closes."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        self.depth = self._tracer._push()
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        end_ns = time.perf_counter_ns()
        self._tracer._pop()
        if exc_type is not None:
            self.args.setdefault("exception", exc_type.__name__)
        self._tracer._record(self.name, self._start_ns, end_ns, self.depth, self.args)
        return False


def lane_metadata(pid: int, name: str, job: Optional[str] = None) -> Dict[str, Any]:
    """The ``process_name`` metadata event that labels lane ``pid``."""
    args: Dict[str, Any] = {"name": name}
    if job is not None:
        args["job"] = job
    return {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "ts": 0, "args": args}


class Tracer:
    """A process-local span recorder emitting Chrome trace events.

    Thread-safe: spans from concurrent threads land on distinct ``tid``
    lanes of the trace; the event list is guarded by a lock (taken only
    when tracing is enabled).
    """

    def __init__(self) -> None:
        self.enabled = False
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch_ns = time.perf_counter_ns()
        #: pids already given a process_name metadata event (reset
        #: together with the buffer).
        self.named_lanes: set = set()

    # -- nesting depth (per thread) -------------------------------------------

    def _push(self) -> int:
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return depth

    def _pop(self) -> None:
        self._local.depth = getattr(self._local, "depth", 1) - 1

    # -- recording -------------------------------------------------------------

    def _record(
        self, name: str, start_ns: int, end_ns: int, depth: int, args: Dict[str, Any]
    ) -> None:
        event = {
            "name": name,
            "ph": "X",
            "cat": "repro",
            "ts": (start_ns - self._epoch_ns) / 1000.0,
            "dur": (end_ns - start_ns) / 1000.0,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": dict(args, depth=depth),
        }
        with self._lock:
            self._events.append(event)

    def span(self, name: str, **args):
        """A context manager timing the enclosed block as one span."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, args)

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration instant event (``ph: "i"``)."""
        if not self.enabled:
            return
        event = {
            "name": name,
            "ph": "i",
            "s": "t",
            "cat": "repro",
            "ts": (time.perf_counter_ns() - self._epoch_ns) / 1000.0,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": args,
        }
        with self._lock:
            self._events.append(event)

    # -- lifecycle / export ----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.named_lanes.clear()

    def events(self) -> List[Dict[str, Any]]:
        """A snapshot copy of the recorded events (chronological)."""
        with self._lock:
            return list(self._events)

    @property
    def epoch_ns(self) -> int:
        """The ``perf_counter_ns`` value all event timestamps are relative to."""
        return self._epoch_ns

    def name_caller_lane(self, job: Optional[str] = None) -> None:
        """Label this process's lane ``caller (pid N)`` once per buffer
        (``job`` defaults to the correlation id); a no-op when tracing is off."""
        pid = os.getpid()
        if not self.enabled or pid in self.named_lanes:
            return
        from repro.obs import log as _log  # deferred: keep the hot path import-free

        self.named_lanes.add(pid)
        self.append_events([lane_metadata(pid, f"caller (pid {pid})", job or _log.correlation())])

    def append_events(self, events: List[Dict[str, Any]]) -> None:
        """Append pre-built trace events verbatim (thread-safe).

        The merge hook of :mod:`repro.obs.distributed`: worker-side events
        arrive already clock-aligned into this tracer's timebase and are
        spliced into the buffer as foreign ``pid`` lanes."""
        with self._lock:
            self._events.extend(events)

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The trace as a ``chrome://tracing``-loadable JSON object.

        When a correlation id is set (:func:`repro.obs.log.set_correlation`,
        here or in the process that forked this one), the payload carries a
        top-level ``job`` key so a saved trace stays attributable to its
        service job.
        """
        from repro.obs import log as _log  # deferred: keep the hot path import-free

        payload: Dict[str, Any] = {"traceEvents": self.events(), "displayTimeUnit": "ms"}
        job = _log.correlation()
        if job is not None:
            payload["job"] = job
        return payload

    def save(self, path) -> None:
        """Write the Chrome-trace JSON to ``path`` (parent dirs created)."""
        path = os.fspath(path)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, default=repr)


#: The process-global tracer all instrumentation points use.
TRACER = Tracer()
# A fork copies the lock as another thread may hold it; the child's is free.
os.register_at_fork(after_in_child=lambda: setattr(TRACER, "_lock", threading.Lock()))


def span(name: str, **args):
    """Module-level shorthand for :meth:`Tracer.span` on :data:`TRACER`."""
    if not TRACER.enabled:
        return _NULL_SPAN
    return _Span(TRACER, name, args)


def instant(name: str, **args) -> None:
    """Module-level shorthand for :meth:`Tracer.instant` on :data:`TRACER`."""
    if TRACER.enabled:
        TRACER.instant(name, **args)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator tracing every call of the wrapped function as a span.

    The disabled fast path is a single flag test before delegating, so
    decorating moderately hot functions is safe; for the innermost loops
    prefer counters.
    """

    def decorate(function: Callable) -> Callable:
        import functools

        label = name if name is not None else function.__qualname__

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not TRACER.enabled:
                return function(*args, **kwargs)
            with _Span(TRACER, label, {}):
                return function(*args, **kwargs)

        return wrapper

    return decorate


def enable() -> None:
    """Turn tracing on for the process (module-level switch)."""
    TRACER.enable()


def disable() -> None:
    TRACER.disable()


def is_enabled() -> bool:
    return TRACER.enabled
