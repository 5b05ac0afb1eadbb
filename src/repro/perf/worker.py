"""TCP worker for the socket execution backend.

Stand one up per core (or per machine) and point the runner's
``--backend`` (or ``REPRO_BACKEND``) at the pool::

    python -m repro.perf.worker --listen 127.0.0.1:9001
    python -m repro.perf.worker --listen 0.0.0.0:9001      # other hosts may connect

    REPRO_BACKEND=socket:host1:9001,host2:9001 \\
        python -m repro.experiments.runner E12 E15

The worker prints ``repro-perf-worker listening on HOST:PORT`` once bound
(``--listen HOST:0`` picks a free port — parse the line to learn it), then
serves forever: one thread per client connection, and **one forked child
per chunk** (:func:`run_chunk_in_fork`), so every chunk runs with a zeroed
metrics registry, automata unpickled with empty transition memos, and
crash isolation — a chunk that segfaults kills its child, and the worker
reports the chunk as lost instead of dying.  Multiple clients (e.g. several
crash-isolated experiment children of one ``--parallel`` runner) are served
concurrently.

The worker resolves its own settings once at start-up (:func:`settle`),
from the ``REPRO_*`` environment (:func:`repro.api.resolve_config`), with
the backend forced to ``serial``: a sweep nested inside a shipped chunk
must never dial back into the pool the chunk came from.  Each run frame's
``ctx`` then carries the caller's settings for that chunk; they are
installed only in the chunk's forked child.

This command starts workers for remote ``socket:`` hosts; a ``pool:N``
forks its own, which run :func:`settle` and :func:`serve` from there.

Per-connection request log lines go to stderr (CI captures them as
artifacts).  POSIX only (``os.fork``); frames are pickles, so bind only to
interfaces you trust.
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import struct
import sys
import threading
import time
import traceback
from dataclasses import replace
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.api.config import ConfigError, resolve_config
from repro.obs import distributed as _distributed
from repro.obs import log as _obs_log
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.perf import cache as _perf_cache
from repro.perf import pickling
from repro.perf.backends import Chunk, ChunkOutcome
from repro.perf.backends.sockets import FrameError, recv_frame, send_frame, worker_info

__all__ = ["main", "run_chunk_in_fork", "serve", "settle"]


def _log(message: str) -> None:
    print(f"repro-perf-worker[{os.getpid()}] {message}", file=sys.stderr, flush=True)


#: Structured mirror of the stderr request log (active when the worker was
#: launched with ``REPRO_LOG`` in its environment — pool workers reopen
#: their caller's sink and append to the same JSONL file).
_WORKER_LOG = _obs_log.get_logger("perf.worker")


# -- the chunk executor: one forked child per chunk --------------------------------

_LEN = struct.Struct(">Q")


def _install_run_settings(ctx: Mapping[str, Any]) -> None:
    """Install a run frame's settings (see :mod:`repro.perf.backends.sockets`)
    in this chunk child.  ``trace`` only switches recording on: a worker
    started with its own tracing keeps tracing."""
    if ctx.get("job") is not None:
        _obs_log.set_correlation(ctx["job"])
    if "cache" in ctx:
        _perf_cache.configure(enabled=ctx["cache"])
    if ctx.get("trace"):
        _trace.TRACER.enable()


def _chunk_child(
    write_fd: int, fn: Callable[[Any], Any], chunk: Chunk, ctx: Mapping[str, Any]
) -> None:
    """Child body: compute the chunk, write its length-prefixed pickled
    :class:`ChunkOutcome` to ``write_fd`` and exit.

    Runs under ``os._exit`` discipline — no atexit hooks, no parent test
    harness teardown.  The caller's settings come from the run frame's
    ``ctx``.  The inherited metrics registry is zeroed and the inherited
    span buffer cleared so the shipped payloads are exactly this child's
    contribution.
    """
    exit_code = 0
    try:
        _install_run_settings(ctx)
        _metrics.reset()
        _trace.TRACER.clear()  # buffered worker events are not this chunk's work
        # Chaos hook (tests/CI only): REPRO_CHAOS_FORK arms seeded mid-chunk
        # kill/hang/delay faults so the supervision layer's lost-chunk and
        # deadline paths can be driven deterministically.  Unset, this is
        # one environment lookup per chunk.
        from repro.perf import chaos as _chaos

        fault_plan = _chaos.fork_fault_plan(chunk)
        results: List[Tuple[int, Optional[str], Any]] = []
        with _trace.span("backend.chunk", lane="worker", items=len(chunk)):
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
                except BaseException:  # noqa: BLE001 - shipped to the client verbatim
                    results.append((index, traceback.format_exc(), None))
        outcome = ChunkOutcome(
            results=results,
            metrics=_metrics.snapshot(),
            trace=_distributed.chunk_payload("worker"),
        )
        payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(_LEN.pack(len(payload)) + payload)
    except BaseException:
        exit_code = 1
    finally:
        os._exit(exit_code)


def run_chunk_in_fork(
    fn: Callable[[Any], Any], chunk: Chunk, ctx: Mapping[str, Any]
) -> Optional[ChunkOutcome]:
    """Execute one chunk in a fresh forked child.

    Returns the child's :class:`ChunkOutcome` — results, metrics snapshot
    and trace payload, exactly as the child built them —
    or ``None`` when the child died without reporting.  ``ctx`` holds run
    settings to install in the child only.  The outcome is not stamped:
    the client that receives it stamps the lane and its receive time.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _chunk_child(write_fd, fn, chunk, ctx)  # never returns
    os.close(write_fd)
    # The length prefix, not EOF, ends a complete outcome: a chunk child
    # that another connection thread forked meanwhile may hold a copy of
    # this pipe's write end for as long as its own chunk runs.
    size = payload = None
    try:
        with open(read_fd, "rb") as pipe:
            header = pipe.read(_LEN.size)
            if len(header) == _LEN.size:
                (size,) = _LEN.unpack(header)
                payload = pipe.read(size)
    finally:
        os.waitpid(pid, 0)
    if payload is None or len(payload) != size:
        return None
    return pickle.loads(payload)


def _locked_send(conn: socket.socket, lock: threading.Lock, message: tuple) -> None:
    with lock:
        send_frame(conn, message)


def _handle_run(
    conn: socket.socket,
    send_lock: threading.Lock,
    fn_blob: bytes,
    chunk_blob: bytes,
    ctx: dict,
) -> str:
    try:
        fn = pickling.loads(fn_blob)
        chunk = pickling.loads(chunk_blob)
    except BaseException:  # noqa: BLE001 - diagnosis belongs to the client
        _locked_send(
            conn,
            send_lock,
            ("fatal", f"worker could not unpickle the chunk:\n{traceback.format_exc()}"),
        )
        return "fatal: unpicklable chunk"
    # The caller's settings are installed only inside the forked chunk
    # child, never in this worker process: connection threads serve many
    # clients concurrently, and process-global settings would bleed across
    # their chunks.
    job = ctx.get("job")
    started = time.perf_counter()
    # The chunk executes in a helper thread while this thread waits on it.
    # The client asks for liveness frames while the chunk runs
    # (ctx["heartbeat_s"]); without a cadence the wait simply blocks until
    # the chunk finishes.  Heartbeats and the reply share one send lock so
    # frames never interleave.
    heartbeat_s = ctx.get("heartbeat_s") or None
    done = threading.Event()
    box: list = []

    def _run() -> None:
        try:
            box.append(run_chunk_in_fork(fn, chunk, ctx))
        finally:
            done.set()

    threading.Thread(target=_run, daemon=True).start()
    beats = 0
    while not done.wait(heartbeat_s):
        try:
            _locked_send(conn, send_lock, ("hb", beats))
            beats += 1
        except OSError:
            break  # client gone; finish the chunk for the log, reply will fail
    done.wait()
    outcome = box[0] if box else None
    elapsed = time.perf_counter() - started
    beaten = f", {beats} heartbeats" if beats else ""
    if outcome is None:
        _locked_send(
            conn, send_lock, ("lost", "worker's chunk subprocess died without reporting")
        )
        _WORKER_LOG.warning(
            "worker.chunk.lost", job=job, items=len(chunk), elapsed_s=round(elapsed, 3)
        )
        return f"lost ({len(chunk)} items, {elapsed:.2f}s{beaten})"
    _locked_send(conn, send_lock, ("ok", outcome))
    failed = sum(1 for _index, error, _value in outcome.results if error is not None)
    status = "ok" if not failed else f"ok with {failed} item error(s)"
    traced = ", traced" if outcome.trace is not None else ""
    _WORKER_LOG.info(
        "worker.chunk",
        job=job,
        items=len(chunk),
        failed=failed or None,
        elapsed_s=round(elapsed, 3),
        traced=True if outcome.trace is not None else None,
        heartbeats=beats or None,
    )
    return f"{status} ({len(chunk)} items, {elapsed:.2f}s{traced}{beaten})"


def _serve_connection(conn: socket.socket, peer: Tuple[str, int]) -> None:
    _log(f"client {peer[0]}:{peer[1]} connected")
    send_lock = threading.Lock()
    try:
        while True:
            try:
                message = recv_frame(conn)
            except FrameError as exc:
                # Byzantine client: drop the connection, keep the worker.
                _log(f"client {peer[0]}:{peer[1]} sent garbage ({exc}); disconnecting")
                break
            except (EOFError, OSError):
                break
            match message:
                case ("ping",):
                    _locked_send(conn, send_lock, ("pong", worker_info()))
                case ("run", fn_blob, chunk_blob, dict() as ctx):
                    outcome = _handle_run(conn, send_lock, fn_blob, chunk_blob, ctx)
                    _log(f"client {peer[0]}:{peer[1]} chunk -> {outcome}")
                case ("shutdown",):
                    _log(f"client {peer[0]}:{peer[1]} requested shutdown")
                    try:
                        send_frame(conn, ("bye",))
                    finally:
                        os._exit(0)
                case (str() as kind, *_rest):
                    reason = f"unknown or malformed request {kind!r}"
                    _locked_send(conn, send_lock, ("fatal", reason))
                case _:
                    _log(f"client {peer[0]}:{peer[1]} sent a malformed request; disconnecting")
                    break
    finally:
        try:
            conn.close()
        except OSError:
            pass
        _log(f"client {peer[0]}:{peer[1]} disconnected")


def serve(
    host: str,
    port: int,
    *,
    ready: Optional[threading.Event] = None,
) -> None:
    """Bind, announce, and serve forever (thread per connection)."""
    server = socket.create_server((host, port))
    bound_host, bound_port = server.getsockname()[:2]
    print(f"repro-perf-worker listening on {bound_host}:{bound_port}", flush=True)
    _log(f"serving on {bound_host}:{bound_port} (python {worker_info()['python']})")
    if ready is not None:
        ready.set()
    while True:
        conn, peer = server.accept()
        thread = threading.Thread(target=_serve_connection, args=(conn, peer), daemon=True)
        thread.start()


def settle() -> None:
    """Apply the ``REPRO_*`` environment's settings, backend forced to
    ``serial`` (a nested sweep dialling back into this pool would deadlock
    it), and set ``REPRO_PERF_WORKER=1`` for shipped closures that behave
    differently in a worker than in the caller's fallback (chaos tests)."""
    replace(resolve_config(), backend=None).apply()
    os.environ["REPRO_PERF_WORKER"] = "1"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="TCP worker for the repro.perf socket execution backend.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="interface and port to bind (port 0 picks a free one)",
    )
    args = parser.parse_args(argv)

    if not hasattr(os, "fork"):
        print("repro-perf-worker requires a POSIX host (os.fork)", file=sys.stderr)
        return 2
    host, sep, port_text = args.listen.rpartition(":")
    try:
        port = int(port_text)
        if not sep or not host:
            raise ValueError
    except ValueError:
        print(f"--listen must be HOST:PORT, got {args.listen!r}", file=sys.stderr)
        return 2

    try:
        settle()
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    try:
        serve(host, port)
    except KeyboardInterrupt:
        _log("interrupted, exiting")
    return 0


if __name__ == "__main__":
    sys.exit(main())
