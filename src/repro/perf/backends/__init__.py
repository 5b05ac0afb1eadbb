"""Pluggable execution backends for ``repro.perf.parallel_map``.

PR 3 established that the sweep contract — deterministic round-robin
partitioning by item index, in-order reassembly, fork-boundary metrics
merging, lowest-index error propagation — is independent of *where* the
chunks actually execute.  This package makes that explicit: transports are
:class:`ExecutionBackend` implementations behind a registry, and
``parallel_map`` is a thin front-end that partitions, submits, merges and
re-raises identically for every backend.  Three transports ship:

* ``serial`` — in-process, no partitioning overhead (the default);
* ``socket`` — chunks pickled to a TCP worker pool
  (:class:`~repro.perf.backends.sockets.SocketBackend`; stand workers up
  with ``python -m repro.perf.worker --listen HOST:PORT``);
* ``pool`` — a loopback pool that forks (and respawns) its own workers
  (:class:`~repro.perf.supervise.LocalPoolBackend`).

``socket`` and ``pool`` always run under the self-healing supervision
policy (:mod:`repro.perf.supervise`).

Backend specs
-------------
A backend is named by a **spec string**::

    serial                                  # in-process
    socket:host1:9001,host2:9001            # TCP worker pool, one chunk per worker
    socket:host1:9001;deadline=30           # ;key=value supervision options
    pool:4                                  # 4 self-launched loopback workers

The process-wide default is whatever :func:`configure_backend` installed
(``RunConfig.apply`` installs the resolved ``backend``), else ``serial``.

Fork hygiene
------------
Backend instances may hold live connections, so they are **per-process**:
:func:`get_backend` rebuilds the active backend whenever the caller's pid
differs from the pid that built it (a forked experiment child must open its
own connections, never reuse the parent's).  The inherited instance is
never closed — its file descriptors are shared with the parent.  A
crash-isolated experiment child calls :func:`adopt_inherited` instead: a
``pool:N`` the parent started is then swept over by the child through its
own fresh connections (:meth:`ExecutionBackend.adopt`), so a suite starts
its pool once.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "BackendSpecError",
    "ChunkOutcome",
    "ExecutionBackend",
    "configure_backend",
    "current_spec",
    "get_backend",
    "make_backend",
    "normalize_spec",
    "register_backend",
]

#: One work chunk: ``(original item index, item)`` pairs.
Chunk = Sequence[Tuple[int, Any]]


class BackendSpecError(ValueError):
    """A backend spec string could not be parsed or names no registered backend."""


@dataclass
class ChunkOutcome:
    """The one format of a chunk's result, from the process that computed
    it to :func:`repro.perf.parallel.parallel_map`, which alone merges it.

    A worker's forked chunk child pickles it whole and the worker forwards
    it unopened as ``("ok", outcome)``.  ``results`` holds
    ``(index, error_traceback_or_None, value)`` per item, or ``None`` when
    the chunk was **lost** (its executor died without reporting, or
    supervision quarantined it as a poison chunk; ``detail`` says which) —
    ``parallel_map`` then recomputes the chunk in the caller.  ``metrics``
    is the executor's :func:`repro.obs.metrics.snapshot` delta (phase
    timers included); it is ``None`` when the work ran in the caller's own
    process, or when the chunk was lost.  Payloads are atomic: a lost chunk
    contributed *nothing*, so the caller-side recompute can never
    double-count.
    """

    results: Optional[List[Tuple[int, Optional[str], Any]]]
    metrics: Optional[Dict[str, Any]] = None
    detail: Optional[str] = None

    @property
    def lost(self) -> bool:
        return self.results is None

    def covers(self, chunk: Chunk) -> bool:
        """True when this well-formed outcome answers ``chunk``: ``results``
        are ``(index, error, value)`` triples for exactly its indices, in
        order, and the metrics are a dict or ``None``.  A socket client
        accepts an ``ok`` reply only when this holds."""
        if not isinstance(self.results, list):
            return False
        indices = [
            entry[0]
            if isinstance(entry, tuple)
            and len(entry) == 3
            and (entry[1] is None or isinstance(entry[1], str))
            else None
            for entry in self.results
        ]
        return indices == [index for index, _item in chunk] and (
            self.metrics is None or isinstance(self.metrics, dict)
        )


class ExecutionBackend(ABC):
    """Where ``parallel_map`` chunks execute.

    Implementations own only the *transport*; partitioning, in-order
    reassembly, metrics merging, lost-chunk fallback and error propagation
    live in :func:`repro.perf.parallel.parallel_map` and are identical for
    every backend — that is the redesigned contract.
    """

    #: registry name ("serial", "socket", "pool", ...)
    name: str = "?"

    #: True when chunks leave the caller's machine/process *by design*
    #: (``parallel_map`` then ships even a single chunk instead of running
    #: it in the caller — a one-worker pool still offloads).
    remote: bool = False

    @property
    @abstractmethod
    def spec(self) -> str:
        """The normalized spec string this backend was built from."""

    @property
    @abstractmethod
    def parallelism(self) -> int:
        """How many chunks a sweep should be partitioned into (>= 1)."""

    @abstractmethod
    def submit_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Chunk]
    ) -> List[ChunkOutcome]:
        """Execute every chunk; return one :class:`ChunkOutcome` per chunk,
        aligned with ``chunks``.  Must not raise for per-item ``fn``
        failures (ship the traceback in the outcome) nor for dead executors
        (report the chunk as lost)."""

    def start(self) -> None:
        """Bring the transport up ahead of the first sweep, and back up
        after a failure (idempotent; default: nothing).  ``run_suite``
        calls it before every experiment, so forked children inherit a
        ready transport."""

    def adopt(self) -> Optional["ExecutionBackend"]:
        """The instance a forked child should use in place of this
        inherited one, or ``None`` to rebuild from the spec (default).
        It must never close what the parent owns."""
        return None

    def close(self) -> None:
        """Release transport resources (idempotent; default: nothing)."""

    def describe(self) -> Dict[str, Any]:
        """Static JSON-safe description (lands in run-report summaries)."""
        return {"name": self.name, "spec": self.spec, "parallelism": self.parallelism}


# -- spec parsing and the registry ---------------------------------------------

#: name -> factory(rest-of-spec or None) -> ExecutionBackend
_FACTORIES: Dict[str, Callable[[Optional[str]], "ExecutionBackend"]] = {}


def register_backend(name: str, factory: Callable[[Optional[str]], "ExecutionBackend"]) -> None:
    """Register ``factory`` under ``name`` (``factory(rest)`` gets the spec
    text after ``name:``, or ``None`` when the spec is the bare name)."""
    _FACTORIES[name] = factory


def _split_spec(spec: str) -> Tuple[str, Optional[str]]:
    if not isinstance(spec, str) or not spec.strip():
        raise BackendSpecError(f"backend spec must be a non-empty string, got {spec!r}")
    name, sep, rest = spec.strip().partition(":")
    name = name.strip().lower()
    if name not in _FACTORIES:
        raise BackendSpecError(
            f"unknown backend {name!r} (known: {', '.join(sorted(_FACTORIES))})"
        )
    return name, (rest.strip() if sep else None)


def make_backend(spec: str) -> "ExecutionBackend":
    """Build a backend instance from a spec string (raises
    :class:`BackendSpecError` for malformed or unknown specs)."""
    name, rest = _split_spec(spec)
    return _FACTORIES[name](rest)


def normalize_spec(spec: str) -> str:
    """The canonical form of ``spec`` (e.g. ``" Pool:4 "`` -> ``"pool:4"``)."""
    return make_backend(spec).spec


# -- the process-wide default backend ------------------------------------------

#: What configure_backend installed: a spec string, a live instance, or None.
_CONFIGURED: Union[None, str, "ExecutionBackend"] = None
_CONFIGURED_PID: Optional[int] = None

_ACTIVE: Optional["ExecutionBackend"] = None
_ACTIVE_KEY: Optional[Tuple[int, str]] = None


def configure_backend(spec: Union[None, str, "ExecutionBackend"]) -> None:
    """Install the process-wide default backend.

    ``spec`` is a spec string (validated immediately), an
    :class:`ExecutionBackend` instance (used as-is by this process; forked
    children rebuild from its spec), or ``None`` for ``serial``."""
    global _CONFIGURED, _CONFIGURED_PID
    if isinstance(spec, str):
        spec = normalize_spec(spec)  # raise now, not at first sweep
    _CONFIGURED = spec
    _CONFIGURED_PID = os.getpid()


def current_spec() -> str:
    """The spec the *next* :func:`get_backend` call will resolve to."""
    if isinstance(_CONFIGURED, ExecutionBackend):
        return _CONFIGURED.spec
    return _CONFIGURED or "serial"


def get_backend() -> "ExecutionBackend":
    """The process-wide backend for the *current* process.

    Lazily built from :func:`current_spec` and cached per ``(pid, spec)``;
    after a fork the child leaves the inherited instance alone (shared file
    descriptors stay untouched) and builds its own, unless it adopted it
    (:func:`adopt_inherited`)."""
    global _ACTIVE, _ACTIVE_KEY
    pid = os.getpid()
    if isinstance(_CONFIGURED, ExecutionBackend) and _CONFIGURED_PID == pid:
        return _CONFIGURED
    spec = current_spec()
    if _ACTIVE is not None and _ACTIVE_KEY == (pid, spec):
        return _ACTIVE
    if _ACTIVE is not None and _ACTIVE_KEY is not None and _ACTIVE_KEY[0] == pid:
        _ACTIVE.close()
    _ACTIVE = make_backend(spec)
    _ACTIVE_KEY = (pid, spec)
    return _ACTIVE


def close_active() -> None:
    """Close the backend this process built or adopted (a no-op for
    inherited ones).

    ``run_suite`` calls this when it returns and the guarded experiment
    child before it exits, so no ``pool:N`` worker outlives the process
    that started it."""
    global _ACTIVE, _ACTIVE_KEY
    if _ACTIVE is not None and _ACTIVE_KEY is not None and _ACTIVE_KEY[0] == os.getpid():
        _ACTIVE.close()
        _ACTIVE = None
        _ACTIVE_KEY = None


def adopt_inherited() -> None:
    """Take over backend state inherited through a fork without closing it.

    Called by the guarded experiment runner's child bootstrap.  The
    inherited active instance is replaced by its :meth:`~ExecutionBackend.adopt`
    result (a started ``pool:N`` keeps its workers), or dropped so the
    child rebuilds on first use; its sockets belong to the parent either
    way.  An inherited configured *instance* is rebuilt from its spec."""
    global _ACTIVE, _ACTIVE_KEY, _CONFIGURED, _CONFIGURED_PID
    pid = os.getpid()
    if _ACTIVE_KEY is not None and _ACTIVE_KEY[0] != pid:
        adopted = _ACTIVE.adopt()
        _ACTIVE = adopted
        _ACTIVE_KEY = None if adopted is None else (pid, _ACTIVE_KEY[1])
    if isinstance(_CONFIGURED, ExecutionBackend) and _CONFIGURED_PID != pid:
        _CONFIGURED = _CONFIGURED.spec
        _CONFIGURED_PID = pid


# Transports register themselves at import; importing them here makes the
# registry complete whenever the package is imported.
from repro.perf.backends import serial as _serial  # noqa: E402
from repro.perf.backends import sockets as _sockets  # noqa: E402
from repro.perf import supervise as _supervise  # noqa: E402  (registers "pool")

SerialBackend = _serial.SerialBackend
SocketBackend = _sockets.SocketBackend
LocalPoolBackend = _supervise.LocalPoolBackend

__all__ += [
    "SerialBackend",
    "SocketBackend",
    "LocalPoolBackend",
    "adopt_inherited",
    "close_active",
]
