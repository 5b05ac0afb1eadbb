"""The single-host fork backend (spec ``fork:N``) — PR 3's transport, extracted.

One raw ``os.fork`` child per chunk, length-prefixed pickles over a pipe.
Raw fork (not :mod:`multiprocessing`) because sweeps routinely run *inside*
the crash-isolated experiment children, which are daemonic and cannot have
``multiprocessing`` children of their own.  Children inherit the mapped
function and every captured object through copy-on-write memory, so nothing
but the results ever crosses the pipe.

:func:`run_chunk_in_fork` — fork one child for one chunk and collect its
:class:`~repro.perf.backends.ChunkOutcome` — is also the execution
primitive of the socket worker (:mod:`repro.perf.worker`): a worker process
forks per chunk so each chunk gets a zeroed metrics registry and crash
isolation for free.  Both paths share one spawn/collect pair.
"""

from __future__ import annotations

import os
import pickle
import struct
import traceback
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.obs import distributed as _distributed
from repro.obs import log as _obs_log
from repro.obs import metrics as _metrics
from repro.obs import profile as _profile
from repro.obs import progress as _progress
from repro.obs import trace as _trace
from repro.obs.metrics import counter as _counter
from repro.perf import cache as _perf_cache
from repro.perf.backends import (
    BackendSpecError,
    Chunk,
    ChunkOutcome,
    ExecutionBackend,
    register_backend,
)

__all__ = ["ForkBackend", "run_chunk_in_fork"]

_FORKS = _counter("perf.parallel.forks")

_LEN = struct.Struct(">Q")


def _write_all(fd: int, payload: bytes) -> None:
    view = memoryview(payload)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, size: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = size
    while remaining:
        chunk = os.read(fd, min(remaining, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _install_run_settings(ctx: Mapping[str, Any]) -> None:
    """Install a run frame's settings (see :mod:`repro.perf.backends.sockets`)
    in this chunk child.  ``trace`` and ``profile`` only switch recording
    on: a worker started with its own tracing keeps tracing."""
    if ctx.get("job") is not None:
        _obs_log.set_correlation(ctx["job"])
    if "cache" in ctx:
        _perf_cache.configure(enabled=ctx["cache"])
    if ctx.get("trace"):
        _trace.TRACER.enable()


def _chunk_child(
    write_fd: int,
    fn: Callable[[Any], Any],
    chunk: Chunk,
    lane: str = "fork",
    ctx: Optional[Mapping[str, Any]] = None,
) -> None:
    """Child body: compute the chunk, ship its :class:`ChunkOutcome` back.

    Runs under ``os._exit`` discipline — no atexit hooks, no parent test
    harness teardown.  The inherited metrics registry is zeroed and the
    inherited span buffer cleared so the shipped payloads are exactly this
    child's contribution.  Fork-backend children inherit the caller's run
    settings through memory; a socket worker's children get the caller's
    settings from the run frame's ``ctx``.  When profiling is on, the hook
    is re-installed post-fork — a ``sys.setprofile`` hook does not survive
    into a forked child's new frames reliably, and the accumulated parent
    totals are not this chunk's work either.
    """
    exit_code = 0
    try:
        ctx = ctx or {}
        _install_run_settings(ctx)
        _metrics.reset()
        _trace.TRACER.clear()  # buffered parent events are not this chunk's work
        if ctx.get("profile") or _profile.PROFILER.enabled:
            _profile.PROFILER.clear()
            _profile.PROFILER.enable()
        # Chaos hook (tests/CI only): REPRO_CHAOS_FORK arms seeded mid-chunk
        # kill/hang/delay faults so the supervision layer's lost-chunk and
        # deadline paths can be driven deterministically.  Unset, this is
        # one environment lookup per chunk.
        from repro.perf import chaos as _chaos

        fault_plan = _chaos.fork_fault_plan(chunk)
        results: List[Tuple[int, Optional[str], Any]] = []
        with _trace.span("backend.chunk", lane=lane, items=len(chunk)):
            for position, (index, item) in enumerate(chunk):
                if fault_plan is not None and position == fault_plan["at_item"]:
                    _chaos.apply_fork_fault(fault_plan)  # kill/hang never return
                item_span = (
                    _trace.TRACER.span("backend.item", index=index)
                    if _trace.TRACER.enabled
                    else _trace.NULL_SPAN
                )
                try:
                    with item_span:
                        results.append((index, None, fn(item)))
                except BaseException:  # noqa: BLE001 - shipped to the parent verbatim
                    results.append((index, traceback.format_exc(), None))
        outcome = ChunkOutcome(
            results=results,
            metrics=_metrics.snapshot(),
            trace=_distributed.chunk_payload(lane),
            profile=_profile.chunk_profile_payload(lane),
        )
        payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        _write_all(write_fd, _LEN.pack(len(payload)) + payload)
    except BaseException:
        exit_code = 1
    finally:
        try:
            os.close(write_fd)
        except OSError:
            pass
        os._exit(exit_code)


def _spawn(
    fn: Callable[[Any], Any],
    chunk: Chunk,
    lane: str = "fork",
    ctx: Optional[Mapping[str, Any]] = None,
    inherited: Sequence[int] = (),
) -> Tuple[int, int]:
    """Fork one chunk child; return ``(read_fd, pid)`` for :func:`_collect`.

    ``inherited`` are read ends of sibling children still to be collected;
    the child closes its copies and keeps only its own pipe."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        for fd in (read_fd, *inherited):
            try:
                os.close(fd)
            except OSError:
                pass
        _chunk_child(write_fd, fn, chunk, lane=lane, ctx=ctx)
        # _chunk_child never returns
    _FORKS.inc()
    os.close(write_fd)
    return read_fd, pid


def _collect(read_fd: int, pid: int) -> Optional[ChunkOutcome]:
    """Read one child's length-prefixed outcome; ``None`` if it died silently."""
    payload: Optional[bytes] = None
    try:
        header = _read_exact(read_fd, _LEN.size)
        if header is not None:
            payload = _read_exact(read_fd, _LEN.unpack(header)[0])
    finally:
        os.close(read_fd)
        os.waitpid(pid, 0)
    if payload is None:
        return None
    return pickle.loads(payload)


def run_chunk_in_fork(
    fn: Callable[[Any], Any],
    chunk: Chunk,
    lane: str = "fork",
    ctx: Optional[Mapping[str, Any]] = None,
) -> Optional[ChunkOutcome]:
    """Execute one chunk in a fresh forked child.

    Returns the child's :class:`ChunkOutcome` — results, metrics snapshot,
    trace payload and profile payload, exactly as the child built them —
    or ``None`` when the child died without reporting.  ``ctx`` holds run
    settings to install in the child only.  The outcome is not stamped:
    the transport that ships it onward stamps the clock domain (``shared``
    or ``remote``) and, for a remote worker, the lane.  Requires
    ``os.fork``.
    """
    return _collect(*_spawn(fn, chunk, lane=lane, ctx=ctx))


class ForkBackend(ExecutionBackend):
    """One forked child per chunk on the local host."""

    name = "fork"

    def __init__(self, workers: Optional[int] = None) -> None:
        self._workers = (
            max(1, int(workers)) if workers is not None else (os.cpu_count() or 1)
        )

    @property
    def spec(self) -> str:
        return f"fork:{self._workers}"

    @property
    def parallelism(self) -> int:
        # Without fork support (non-POSIX) the resolved parallelism is 1,
        # which makes parallel_map run serially in the caller instead.
        return self._workers if hasattr(os, "fork") else 1

    def submit_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Chunk]
    ) -> List[ChunkOutcome]:
        # Fork every child first (concurrency), then collect in chunk order.
        children: List[Tuple[int, int]] = []
        for chunk in chunks:
            children.append(_spawn(fn, chunk, inherited=[fd for fd, _pid in children]))
        outcomes: List[ChunkOutcome] = []
        for read_fd, pid in children:
            outcome = _collect(read_fd, pid)
            # Same host, same monotonic clock: timestamps need no offset.  (A
            # receive-time offset would be wrong here — payloads wait in the
            # pipe while earlier chunks drain.)
            outcomes.append(
                ChunkOutcome(results=None, detail="forked child died without reporting")
                if outcome is None
                else outcome.stamp("shared")
            )
            _progress.advance()
        return outcomes


def _factory(rest):
    if rest is None or rest == "":
        return ForkBackend()
    try:
        workers = int(rest)
    except ValueError:
        raise BackendSpecError(f"fork worker count must be an integer, got {rest!r}")
    return ForkBackend(workers)


register_backend("fork", _factory)
