"""Live progress heartbeats for long-running sweeps and experiment runs.

A *progress phase* is a counted unit of work (``total`` chunks, experiments,
...) advanced as pieces complete.  While a phase is active, every advance
redraws a single ``\\r``-rewritten stderr status line::

    [repro] E15 sweep: 5/8 chunks (62%) 1.3/s eta 2s

Like the tracer (:mod:`repro.obs.trace`), the facility is **off by
default** and the disabled path is near-free: ``advance`` is a single flag
test, and backends/``parallel_map`` call these hooks unconditionally.
Enable per process via :func:`enable`, which ``RunConfig.apply`` calls for
``--progress`` (or the ``REPRO_PROGRESS`` gate at entry points); forked
experiment children inherit the switch.

When stderr is **not a TTY** (piped, redirected, CI log capture) the
``\\r``-rewrite would concatenate every redraw into one giant mangled
line, so the renderer auto-detects ``stream.isatty()`` and falls back to
*plain mode*: newline-terminated heartbeat lines with no escape codes,
rate-limited much more coarsely so logs stay short.  ``REPRO_PROGRESS=plain``
forces plain rendering even on a real TTY (and, at entry points, also
enables heartbeats).

Heartbeats are *caller-side*: backends report a chunk done when its
results payload lands (serial: after the in-process call; socket and
pool: when the reply frame arrives), so the line reflects completed work,
not dispatched work.  Phases nest by simple
replacement — an inner phase (a sweep inside an experiment) takes over the
line and the outer phase resumes on the next outer advance.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Optional

__all__ = [
    "Progress",
    "PROGRESS",
    "enable",
    "disable",
    "is_enabled",
    "begin",
    "advance",
    "finish",
    "add_listener",
    "remove_listener",
]


class Progress:
    """A stderr progress-line renderer (thread-safe, off by default)."""

    #: Redraws are rate-limited to one per this many seconds (the final
    #: advance of a phase always draws, so 8/8 is never skipped).
    MIN_REDRAW_S = 0.1

    #: Plain (non-TTY) lines are each permanent log output, so they are
    #: rate-limited this many times more coarsely than TTY rewrites.
    PLAIN_REDRAW_FACTOR = 20

    def __init__(self, stream=None, mode: Optional[str] = None) -> None:
        self.enabled = False
        #: ``"plain"`` forces newline lines, ``"tty"`` forces ``\r``-rewrites,
        #: ``None`` auto-detects from ``stream.isatty()`` at draw time.
        self.mode = mode
        self._stream = stream
        self._lock = threading.Lock()
        self._label: Optional[str] = None
        self._unit = ""
        self._total = 0
        self._done = 0
        self._started = 0.0
        self._last_draw = 0.0
        self._dirty = False

    # -- lifecycle ---------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- phase protocol ----------------------------------------------------------

    def begin(self, label: str, total: int, unit: str = "items") -> None:
        """Open a counted phase (replacing any phase already on the line)."""
        if not self.enabled:
            return
        with self._lock:
            self._label = label
            self._unit = unit
            self._total = max(0, int(total))
            self._done = 0
            self._started = time.monotonic()
            self._last_draw = 0.0
            self._dirty = True
            self._draw_locked()

    def advance(self, n: int = 1) -> None:
        """Mark ``n`` more units done and redraw (rate-limited)."""
        if not self.enabled:
            return
        with self._lock:
            if self._label is None:
                return
            self._done += n
            self._dirty = True
            now = time.monotonic()
            min_redraw = self.MIN_REDRAW_S
            if self._plain_locked(self._stream if self._stream is not None else sys.stderr):
                min_redraw *= self.PLAIN_REDRAW_FACTOR
            if self._done >= self._total or now - self._last_draw >= min_redraw:
                self._draw_locked()

    def finish(self, message: Optional[str] = None) -> None:
        """Close the phase, clearing the line (or replacing it with ``message``)."""
        if not self.enabled:
            return
        with self._lock:
            if self._label is None:
                return
            stream = self._stream if self._stream is not None else sys.stderr
            try:
                if not self._plain_locked(stream):
                    # Plain lines are already newline-terminated log output;
                    # there is no live line to erase.
                    stream.write("\r\x1b[2K")
                if message:
                    stream.write(f"[repro] {message}\n")
                stream.flush()
            except (OSError, ValueError):
                pass
            self._label = None
            self._dirty = False

    # -- rendering ---------------------------------------------------------------

    def _plain_locked(self, stream) -> bool:
        """True when this stream should get newline lines, not ``\\r``-rewrites."""
        if self.mode is not None:
            return self.mode == "plain"
        try:
            return not stream.isatty()
        except (AttributeError, ValueError, OSError):
            # A stream whose TTY-ness is unknowable gets log-safe output.
            return True

    def _draw_locked(self) -> None:
        elapsed = time.monotonic() - self._started
        rate = self._done / elapsed if elapsed > 0 else 0.0
        parts = [f"[repro] {self._label}: {self._done}/{self._total} {self._unit}"]
        if self._total > 0:
            parts.append(f"({100 * self._done // self._total}%)")
        if rate > 0:
            parts.append(f"{rate:.1f}/s")
            remaining = self._total - self._done
            if remaining > 0:
                parts.append(f"eta {remaining / rate:.0f}s")
        stream = self._stream if self._stream is not None else sys.stderr
        line = " ".join(parts)
        try:
            if self._plain_locked(stream):
                stream.write(line + "\n")
            else:
                stream.write("\r\x1b[2K" + line)
            stream.flush()
        except (OSError, ValueError):
            pass
        self._last_draw = time.monotonic()
        self._dirty = False


#: The process-global progress renderer all heartbeat hooks use.
PROGRESS = Progress()
# A fork copies the lock as another thread may hold it; the child's is free.
os.register_at_fork(after_in_child=lambda: setattr(PROGRESS, "_lock", threading.Lock()))

# A terminal-rendering override, not a run setting: the switch itself
# comes from the run config.
if os.environ.get("REPRO_PROGRESS", "").strip().lower() == "plain":
    PROGRESS.mode = "plain"


def enable() -> None:
    """Turn progress heartbeats on for the process (module-level switch)."""
    PROGRESS.enable()


def disable() -> None:
    PROGRESS.disable()


def is_enabled() -> bool:
    return PROGRESS.enabled


# -- listeners -----------------------------------------------------------------
#
# Programmatic observers of the heartbeat stream (the job service turns
# them into per-job progress events).  Listeners fire regardless of the
# renderer's enabled flag, so a headless server can observe progress
# without drawing anything; the disabled-and-unobserved path stays a
# single truthiness test per hook.  Listeners are registered per process:
# a hook firing in a forked child only notifies listeners the *child*
# registered (the inherited registrations are ignored — the parent's
# observer objects do not exist in the child in any useful sense).

_LISTENERS: list = []


def add_listener(listener) -> None:
    """Register ``listener(event, **details)`` for heartbeat notifications.

    ``event`` is ``"begin"`` (details: ``label``, ``total``, ``unit``),
    ``"advance"`` (details: ``n``) or ``"finish"`` (details: ``message``).
    A listener that raises is dropped from the stream (progress is
    best-effort observability; it must never fail the run).
    """
    _LISTENERS.append((os.getpid(), listener))


def remove_listener(listener) -> None:
    """Unregister a listener previously passed to :func:`add_listener`."""
    _LISTENERS[:] = [
        entry for entry in _LISTENERS if entry[1] is not listener
    ]


def _notify(event: str, **details) -> None:
    pid = os.getpid()
    dead = []
    for entry in list(_LISTENERS):
        registered_pid, listener = entry
        if registered_pid != pid:
            continue
        try:
            listener(event, **details)
        except Exception:  # noqa: BLE001 - observability must not fail the run
            dead.append(entry)
    for entry in dead:
        if entry in _LISTENERS:
            _LISTENERS.remove(entry)


def begin(label: str, total: int, unit: str = "items") -> None:
    """Module-level shorthand for :meth:`Progress.begin` on :data:`PROGRESS`."""
    if PROGRESS.enabled:
        PROGRESS.begin(label, total, unit)
    if _LISTENERS:
        _notify("begin", label=label, total=total, unit=unit)


def advance(n: int = 1) -> None:
    """Module-level shorthand for :meth:`Progress.advance` on :data:`PROGRESS`."""
    if PROGRESS.enabled:
        PROGRESS.advance(n)
    if _LISTENERS:
        _notify("advance", n=n)


def finish(message: Optional[str] = None) -> None:
    """Module-level shorthand for :meth:`Progress.finish` on :data:`PROGRESS`."""
    if PROGRESS.enabled:
        PROGRESS.finish(message)
    if _LISTENERS:
        _notify("finish", message=message)
