"""The distributed TCP backend (spec ``socket:host:port[,host:port...][;opt=v...]``).

Chunks are pickled (closures included, :mod:`repro.perf.pickling`) and
shipped to a pool of workers started with::

    python -m repro.perf.worker --listen HOST:PORT

one chunk in flight per worker connection, all chunks concurrently across
the pool.  The wire protocol is deliberately small:

* **framing** — every message is an 8-byte big-endian length followed by a
  pickle of a tuple; requests are ``("ping",)`` and
  ``("run", fn_blob, chunk_blob, ctx)``.  ``ctx`` carries the caller's run
  settings for that one chunk: ``cache`` (the cache switch), ``trace``
  (whether to record spans), ``job`` (the
  correlation id, when one is set — see :mod:`repro.obs.log`) and
  ``heartbeat_s`` (the heartbeat cadence).  Replies are
  ``("pong", info)``, ``("ok", outcome)``, ``("lost", detail)``,
  ``("fatal", traceback)`` and ``("hb", seq)`` liveness frames interleaved
  while a chunk runs.  ``outcome`` is the
  :class:`~repro.perf.backends.ChunkOutcome` the worker's chunk child
  pickled, forwarded unopened: results, metrics snapshot (phase timers
  included) and trace payload ride in one frame, so a chunk's spans are
  exactly as atomic as its results and metrics.  The client
  accepts an ``ok`` only when the outcome :meth:`covers
  <repro.perf.backends.ChunkOutcome.covers>` the chunk it sent; any other
  reply is a protocol violation;
* **stamping** — the client adds only what the worker cannot know: the
  lane (``worker host:port``) and its receive time.  A worker's monotonic
  clock is unrelated to the caller's, so the caller stamps its own clock
  the moment the reply frame arrives (``recv_ns``); the merger
  (:func:`repro.obs.distributed.absorb_chunk_trace`) then offsets worker
  timestamps by ``recv_ns - now_ns``, accurate to one reply-transport
  latency (each chunk has a dedicated receive thread, so the stamp is
  prompt);
* **handshake** — on connect the client pings and verifies the worker's
  protocol version (exactly :data:`PROTOCOL_VERSION`) and Python
  ``major.minor`` (marshal'd code objects are
  not portable across interpreter versions; a mismatched pool fails loudly
  at connect, never with a corrupt sweep);
* **deadlines** — the receive path is never unbounded: each reply waits at
  most the per-chunk wall-clock deadline
  (:class:`~repro.perf.supervise.SupervisionPolicy.chunk_deadline_s`,
  default 600 s, the run config's ``chunk_deadline`` / ``;deadline=`` to
  change, ``0``/``off`` to disable), and a worker that stops heartbeating
  is declared dead after a few missed beats — a worker that accepts a
  chunk and never replies can no longer hang a sweep;
* **retry on another worker** — a connection that dies, hangs past its
  deadline, returns an undecodable frame or breaks the protocol is marked
  dead and the chunk is resubmitted to the next live worker (one retry
  step, keyed by ``why``: ``dead``, ``deadline``, ``garbage`` or
  ``protocol``); chunk results depend only on the items, so retries
  cannot change the sweep outcome.  Dead endpoints are redialed under
  seeded-deterministic backoff
  (:func:`repro.perf.supervise.backoff_delay`), repeatedly failing
  endpoints are ejected by a per-worker circuit breaker, and a **poison
  chunk** whose attempts fail ``poison_threshold`` times — on any
  workers, one endpoint redialed included — is quarantined (reported
  lost so ``parallel_map`` recomputes it in the caller) instead of
  cascading through the pool or retrying forever.  With no live workers
  left the chunk is reported lost and ``parallel_map`` recomputes it in
  the caller;
* **atomic payloads** — a worker ships the whole outcome in one frame, so
  a dead, hung or byzantine worker contributed nothing and the
  retry/fallback path can never double-count metrics.

Workers execute each chunk in a forked child
(:func:`repro.perf.worker.run_chunk_in_fork`), giving every chunk a
zeroed metrics registry, automata unpickled with empty transition memos,
and crash isolation.

Security: frames are pickles — run workers only on hosts and networks you
trust, and bind them to loopback or private interfaces.
"""

from __future__ import annotations

import math
import pickle
import socket
import struct
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import log as _obs_log
from repro.obs import progress as _progress
from repro.obs import trace as _trace
from repro.obs.metrics import counter as _counter
from repro.perf import cache as _perf_cache
from repro.perf import pickling
from repro.perf.backends import (
    BackendSpecError,
    Chunk,
    ChunkOutcome,
    ExecutionBackend,
    register_backend,
)

__all__ = [
    "PROTOCOL_VERSION",
    "BackendProtocolError",
    "FrameError",
    "SocketBackend",
    "parse_addresses",
    "parse_options",
    "parse_socket_spec",
    "recv_frame",
    "send_frame",
    "worker_info",
]

PROTOCOL_VERSION = 4  # v4: ("ok", ChunkOutcome) reply frames

#: A frame longer than this is treated as garbage, not allocated.
MAX_FRAME_BYTES = 1 << 30

_CHUNKS = _counter("perf.parallel.socket.chunks")
_RETRIES = _counter("perf.parallel.socket.retries")
_DEAD = _counter("perf.parallel.socket.dead_workers")
_HEARTBEATS = _counter("perf.supervise.heartbeats")
_DEADLINE_MISSES = _counter("perf.supervise.deadline_misses")
_RECONNECT_ATTEMPTS = _counter("perf.supervise.reconnect_attempts")
_RECONNECTS = _counter("perf.supervise.reconnects")
_BREAKER_OPENS = _counter("perf.supervise.breaker_opens")
_QUARANTINED = _counter("perf.supervise.quarantined_chunks")

_LEN = struct.Struct(">Q")


def _supervision():
    # Deferred: repro.perf.supervise subclasses SocketBackend, so importing
    # it at this module's top would be circular.
    from repro.perf import supervise

    return supervise


class BackendProtocolError(RuntimeError):
    """A worker speaks a different protocol or interpreter version."""


class FrameError(RuntimeError):
    """A frame arrived but its payload is not a well-formed message —
    a byzantine peer (truncated or garbage bytes), not a dead one."""


class _DeadlineExceeded(RuntimeError):
    """The per-chunk wall-clock deadline or heartbeat window elapsed."""


def worker_info() -> Dict[str, Any]:
    """The handshake payload both sides compare."""
    return {
        "protocol": PROTOCOL_VERSION,
        "python": "{}.{}".format(*sys.version_info[:2]),
    }


def send_frame(sock: socket.socket, message: Tuple[Any, ...]) -> None:
    """Ship one length-prefixed message (closure-capable pickling)."""
    payload = pickling.dumps(message)
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks: List[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise EOFError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Tuple[Any, ...]:
    """Read one length-prefixed message.

    Raises ``EOFError`` on a closed peer and :class:`FrameError` when the
    peer is alive but byzantine — the frame's length is absurd or its
    payload does not unpickle (truncated or corrupted bytes).
    """
    header = _recv_exact(sock, _LEN.size)
    (size,) = _LEN.unpack(header)
    if size > MAX_FRAME_BYTES:
        raise FrameError(f"frame header claims {size} bytes (>{MAX_FRAME_BYTES})")
    payload = _recv_exact(sock, size)
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure is byzantine
        raise FrameError(f"frame payload does not unpickle: {exc!r}")


def parse_addresses(rest: Optional[str]) -> List[Tuple[str, int]]:
    """Parse ``host:port[,host:port...]`` (the address part of the spec)."""
    if not rest:
        raise BackendSpecError(
            "socket spec needs at least one host:port, e.g. socket:127.0.0.1:9001"
        )
    addresses: List[Tuple[str, int]] = []
    for entry in rest.split(","):
        entry = entry.strip()
        host, sep, port_text = entry.rpartition(":")
        if not sep or not host:
            raise BackendSpecError(f"socket address {entry!r} is not host:port")
        try:
            port = int(port_text)
        except ValueError:
            raise BackendSpecError(f"socket port in {entry!r} is not an integer")
        addresses.append((host, port))
    return addresses


def parse_options(text: Optional[str]) -> Dict[str, str]:
    """Parse ``key=value[;key=value...]`` backend-spec options."""
    options: Dict[str, str] = {}
    if not text:
        return options
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        key, sep, value = entry.partition("=")
        if not sep or not key.strip():
            raise BackendSpecError(f"backend option {entry!r} is not key=value")
        options[key.strip()] = value.strip()
    return options


def parse_socket_spec(rest: Optional[str]) -> Tuple[List[Tuple[str, int]], Dict[str, str]]:
    """Split a ``socket:`` spec body into addresses and supervision options
    (``host:port,host:port;deadline=30``)."""
    if not rest:
        return parse_addresses(rest), {}
    address_text, _, option_text = rest.partition(";")
    return parse_addresses(address_text.strip()), parse_options(option_text)


class _WorkerConnection:
    """One worker endpoint: its address, live socket (if any), a lock
    serializing the send/receive round-trip of a chunk, and the endpoint's
    supervision state (circuit breaker, next allowed reconnect time)."""

    __slots__ = (
        "index",
        "address",
        "sock",
        "alive",
        "attempted",
        "lock",
        "breaker",
        "next_attempt_at",
    )

    def __init__(self, index: int, address: Tuple[str, int], breaker) -> None:
        self.index = index
        self.address = address
        self.sock: Optional[socket.socket] = None
        self.alive = False
        self.attempted = False
        self.lock = threading.Lock()
        self.breaker = breaker
        self.next_attempt_at = 0.0


class SocketBackend(ExecutionBackend):
    """Fan chunks over a TCP worker pool, under a supervision policy."""

    name = "socket"
    remote = True  # a one-worker pool still offloads (don't run in-caller)

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        options: Optional[Mapping[str, str]] = None,
    ) -> None:
        if not addresses:
            raise BackendSpecError("socket backend needs at least one worker address")
        supervise = _supervision()
        self._options = dict(options or {})
        self._policy = supervise.base_policy().with_options(self._options)
        self._log = supervise.SupervisionLog()
        self._connections = [
            _WorkerConnection(
                index,
                tuple(address),
                supervise.CircuitBreaker(
                    self._policy.breaker_threshold, self._policy.breaker_cooldown_s
                ),
            )
            for index, address in enumerate(addresses)
        ]
        self._pool_lock = threading.Lock()

    def _options_suffix(self) -> str:
        return "".join(f";{k}={v}" for k, v in sorted(self._options.items()))

    @property
    def spec(self) -> str:
        addresses = ",".join(f"{h}:{p}" for h, p in self.addresses)
        return f"socket:{addresses}" + self._options_suffix()

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        return [c.address for c in self._connections]

    @property
    def parallelism(self) -> int:
        return len(self._connections)

    @property
    def policy(self):
        """The resolved :class:`~repro.perf.supervise.SupervisionPolicy`."""
        return self._policy

    @property
    def supervision_log(self):
        """The backend's :class:`~repro.perf.supervise.SupervisionLog`."""
        return self._log

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["addresses"] = [f"{h}:{p}" for h, p in self.addresses]
        info["chunk_deadline_s"] = self._policy.chunk_deadline_s
        return info

    # -- connection management -------------------------------------------------

    def _worker_key(self, conn: _WorkerConnection) -> str:
        # Backoff schedules are keyed by pool slot, not host:port: a
        # respawned pool worker changes its port but keeps its slot, so the
        # supervision log stays a pure function of the seed and the
        # failure sequence.
        return f"worker{conn.index}"

    def _note_failure(self, conn: _WorkerConnection, at: str) -> None:
        """Shared failure bookkeeping: breaker, backoff schedule, log."""
        opened = conn.breaker.record_failure()
        attempt = conn.breaker.failures - 1
        delay = _supervision().backoff_delay(self._policy, self._worker_key(conn), attempt)
        conn.next_attempt_at = time.monotonic() + delay
        self._log.record(
            "backoff",
            worker=self._worker_key(conn),
            attempt=attempt,
            delay_s=round(delay, 9),
            at=at,
        )
        if opened:
            _BREAKER_OPENS.inc()
            _trace.instant(
                "supervise.breaker_open",
                worker="{}:{}".format(*conn.address),
                failures=conn.breaker.failures,
            )
            self._log.record(
                "breaker_open",
                worker=self._worker_key(conn),
                failures=conn.breaker.failures,
            )

    def _connect_one(self, conn: _WorkerConnection, timeout: float) -> bool:
        """Dial and handshake ``conn``, each within ``timeout`` seconds."""
        conn.attempted = True
        try:
            sock = socket.create_connection(conn.address, timeout=timeout)
        except OSError:
            _DEAD.inc()
            _trace.instant(
                "backend.worker_dead", worker="{}:{}".format(*conn.address), at="connect"
            )
            self._note_failure(conn, at="connect")
            return False
        try:
            sock.settimeout(timeout)
            send_frame(sock, ("ping",))
            reply = recv_frame(sock)
        except (OSError, EOFError, FrameError):
            sock.close()
            _DEAD.inc()
            _trace.instant(
                "backend.worker_dead", worker="{}:{}".format(*conn.address), at="handshake"
            )
            self._note_failure(conn, at="handshake")
            return False
        match reply:
            case ("pong", dict() as info):
                pass
            case _:
                sock.close()
                raise BackendProtocolError(
                    f"worker {conn.address} sent {reply!r} instead of a pong"
                )
        mine = worker_info()
        if info != mine:
            sock.close()
            raise BackendProtocolError(
                f"worker {conn.address} is incompatible: it runs "
                f"protocol {info.get('protocol')!r} on Python {info.get('python')!r}, "
                f"this client needs protocol {mine['protocol']} on Python {mine['python']!r}"
            )
        sock.settimeout(self._policy.connect_timeout_s)
        conn.sock = sock
        conn.alive = True
        conn.breaker.record_success()
        self._log.record(
            "connected", worker=self._worker_key(conn), protocol=PROTOCOL_VERSION
        )
        return True

    def _ensure_connected(self) -> None:
        with self._pool_lock:
            for conn in self._connections:
                if not conn.attempted:
                    self._connect_one(conn, self._policy.connect_timeout_s)

    def _mark_dead(self, conn: _WorkerConnection, at: str) -> None:
        with self._pool_lock:
            if conn.alive:
                conn.alive = False
                _DEAD.inc()
                _trace.instant(
                    "backend.worker_dead", worker="{}:{}".format(*conn.address), at=at
                )
                self._note_failure(conn, at=at)
            if conn.sock is not None:
                # shutdown() before close(): close alone neither wakes a
                # sibling chunk thread blocked in recv() on this socket nor
                # sends a FIN while that syscall pins the file description.
                try:
                    conn.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    conn.sock.close()
                except OSError:
                    pass
                conn.sock = None

    def _pick(self, chunk_index: int) -> Optional[_WorkerConnection]:
        with self._pool_lock:
            live = [c for c in self._connections if c.alive]
            if not live:
                return None
            return live[chunk_index % len(live)]

    # -- revival ---------------------------------------------------------------

    def _prepare_revival(self, conn: _WorkerConnection) -> bool:
        """Hook for subclasses that own their workers (respawn); the plain
        socket backend has nothing to prepare.  False ends revival for
        ``conn`` (nothing left to dial)."""
        return True

    def _revive(self) -> bool:
        """Redial dead endpoints for a starved chunk; True when at least one
        worker is live afterwards.  Each round dials the endpoints whose
        breaker admits a trial, waiting out their backoff delays, for up to
        ``max_reconnect_attempts`` rounds — but never past the chunk
        deadline: a chunk waits for a worker no longer than it would wait
        for a reply, so a worker that accepts connections and never
        answers the handshake costs one deadline, not a connect timeout
        per round."""
        deadline = self._policy.chunk_deadline_s
        give_up_at = time.monotonic() + (math.inf if deadline is None else deadline)
        for _round in range(max(1, self._policy.max_reconnect_attempts)):
            with self._pool_lock:
                if any(c.alive for c in self._connections):
                    return True
                dead = [c for c in self._connections if not c.alive]
            candidates = [c for c in dead if c.breaker.allow()]
            # Out of time, or everything is breaker-ejected: the caller
            # computes the chunk sooner than any cooldown would end.
            if not candidates or time.monotonic() >= give_up_at:
                return False
            for conn in candidates:
                wait = min(conn.next_attempt_at, give_up_at) - time.monotonic()
                if wait > 0:
                    time.sleep(min(wait, self._policy.backoff_max_s))
                timeout = min(self._policy.connect_timeout_s, give_up_at - time.monotonic())
                if timeout <= 0:
                    break
                if not self._prepare_revival(conn):
                    continue
                _RECONNECT_ATTEMPTS.inc()
                with self._pool_lock:
                    if conn.alive:
                        continue
                    revived = self._connect_one(conn, timeout)
                if revived:
                    _RECONNECTS.inc()
                    _trace.instant(
                        "supervise.reconnect", worker="{}:{}".format(*conn.address)
                    )
        with self._pool_lock:
            return any(c.alive for c in self._connections)

    # -- the submission path ---------------------------------------------------

    def _receive_reply(self, conn: _WorkerConnection) -> Tuple[Any, int]:
        """Read frames until a non-heartbeat reply arrives, under both the
        per-frame silence window and the total chunk deadline."""
        deadline = self._policy.chunk_deadline_s
        frame_timeout = self._policy.frame_timeout_s()
        started = time.monotonic()
        while True:
            timeout = frame_timeout
            if deadline is not None:
                remaining = deadline - (time.monotonic() - started)
                if remaining <= 0:
                    raise _DeadlineExceeded(
                        f"no reply within the {deadline:.6g}s chunk deadline"
                    )
                timeout = min(timeout, remaining)
            conn.sock.settimeout(timeout)
            try:
                reply = recv_frame(conn.sock)
                recv_ns = time.perf_counter_ns()  # clock-alignment stamp
            except socket.timeout:
                if timeout == frame_timeout and (deadline is None or timeout < deadline):
                    raise _DeadlineExceeded(
                        f"{timeout:.6g}s of silence (missed heartbeats)"
                    )
                raise _DeadlineExceeded(
                    f"no reply within the {deadline:.6g}s chunk deadline"
                )
            if isinstance(reply, tuple) and reply and reply[0] == "hb":
                _HEARTBEATS.inc()
                continue
            return reply, recv_ns

    def _run_ctx(self) -> Dict[str, Any]:
        """This process's run settings, shipped with every chunk.

        Workers keep none of this process's state (fresh interpreters,
        possibly on other hosts, or pool workers that reset themselves when
        forked), so the settings ride the run frame; the worker installs
        them only in the chunk's forked child."""
        ctx: Dict[str, Any] = {
            "cache": _perf_cache.cache_enabled(),
            "trace": _trace.TRACER.enabled,
            "heartbeat_s": self._policy.heartbeat_s,
        }
        job = _obs_log.correlation()
        if job is not None:
            ctx["job"] = job
        return ctx

    def _quarantine(self, chunk_index: int, killers: List[Tuple[str, int]]) -> ChunkOutcome:
        _QUARANTINED.inc()
        workers = sorted({"{}:{}".format(*address) for address in killers})
        _trace.instant(
            "supervise.quarantine", chunk=chunk_index, workers=", ".join(workers)
        )
        self._log.record("quarantine", chunk=chunk_index, killed=len(killers))
        return ChunkOutcome(
            results=None,
            detail=(
                f"poison chunk quarantined after {len(killers)} failed "
                f"attempts ({', '.join(workers)})"
            ),
            quarantined=True,
        )

    def _run_chunk(self, fn_blob: bytes, chunk: Chunk, chunk_index: int) -> ChunkOutcome:
        _CHUNKS.inc()
        chunk_blob = pickling.dumps(list(chunk))
        killers: List[Tuple[str, int]] = []  # one entry per failed attempt
        while True:
            conn = self._pick(chunk_index)
            if conn is None:
                if self._revive():
                    continue
                return ChunkOutcome(results=None, detail="no live socket workers")
            ctx = self._run_ctx()
            try:
                with conn.lock:
                    sock = conn.sock
                    if sock is None or not conn.alive:
                        continue  # died while we waited for the round-trip lock
                    sock.settimeout(self._policy.connect_timeout_s)  # bound the send
                    send_frame(sock, ("run", fn_blob, chunk_blob, ctx))
                    reply, recv_ns = self._receive_reply(conn)
            except _DeadlineExceeded as exc:
                _DEADLINE_MISSES.inc()
                _trace.instant(
                    "supervise.heartbeat_miss",
                    chunk=chunk_index,
                    worker="{}:{}".format(*conn.address),
                    detail=str(exc),
                )
                why = "deadline"
            except FrameError:
                why = "garbage"
            except (OSError, EOFError):
                why = "dead"
            else:
                match reply:
                    case ("ok", ChunkOutcome() as outcome) if outcome.covers(chunk):
                        return outcome.stamp("worker {}:{}".format(*conn.address), recv_ns)
                    case ("lost" | "fatal", detail):
                        # The worker's chunk child died, or the worker could
                        # not load the chunk: parallel_map recomputes it here.
                        return ChunkOutcome(results=None, detail=str(detail))
                why = "protocol"
            # The one retry step.  Whatever went wrong, the connection now
            # holds a half-read conversation or a stream at an unknowable
            # offset, so the worker is declared dead and the whole chunk
            # goes to the next live worker.  Results depend only on the
            # items, so a retry cannot change the sweep outcome, and nothing
            # from the failed attempt was kept, so nothing is double-counted.
            killers.append(conn.address)
            self._mark_dead(conn, at=why)
            _RETRIES.inc()
            _trace.instant(
                "backend.retry", chunk=chunk_index, worker="{}:{}".format(*conn.address), why=why
            )
            self._log.record("retry", worker=self._worker_key(conn), chunk=chunk_index, why=why)
            # A chunk that keeps failing is poison: quarantine it instead of
            # feeding it the rest of the pool, or redialing one endpoint
            # forever.
            if len(killers) >= self._policy.poison_threshold:
                return self._quarantine(chunk_index, killers)

    def submit_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Chunk]
    ) -> List[ChunkOutcome]:
        self._ensure_connected()
        fn_blob = pickling.dumps(fn)
        outcomes: List[Optional[ChunkOutcome]] = [None] * len(chunks)

        def run(index: int, chunk: Chunk) -> None:
            outcomes[index] = self._run_chunk(fn_blob, chunk, index)
            _progress.advance()

        threads = [
            threading.Thread(target=run, args=(index, chunk), daemon=True)
            for index, chunk in enumerate(chunks)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [
            outcome
            if outcome is not None
            else ChunkOutcome(results=None, detail="chunk thread died")
            for outcome in outcomes
        ]

    def close(self) -> None:
        with self._pool_lock:
            for conn in self._connections:
                if conn.sock is not None:
                    try:
                        conn.sock.close()
                    except OSError:
                        pass
                    conn.sock = None
                conn.alive = False


def _factory(rest):
    addresses, options = parse_socket_spec(rest)
    return SocketBackend(addresses, options=options)


register_backend("socket", _factory)
