"""Self-healing supervision for the distributed execution backends.

The paper's central object is *dynamic* emulation — components may be
created and destroyed mid-execution without breaking composable guarantees
— and this module gives our own infrastructure the same property: workers
may die, hang, or rejoin while a sweep stays deterministic.  It supplies
the policy and mechanisms the socket transport consults:

* :class:`SupervisionPolicy` — one frozen bundle of knobs (deadlines,
  heartbeat cadence, backoff shape, breaker thresholds, poison limits).
  ``RunConfig.apply`` installs a process-wide base policy
  (:func:`configure_policy`) and each backend overlays its spec options
  on it (``socket:host:port;deadline=30``);
* :func:`backoff_delay` — seeded-deterministic exponential backoff with
  jitter.  The delay is a pure function of ``(seed, worker key, attempt)``
  (string seeding of :class:`random.Random` hashes with SHA-512, so it is
  stable across processes and immune to ``PYTHONHASHSEED``): the same seed
  always produces the same supervision schedule, which is what makes chaos
  runs replayable;
* :class:`CircuitBreaker` — per-endpoint consecutive-failure counter that
  *opens* (ejects the endpoint) at a threshold, then admits a single
  half-open trial after a cooldown;
* :class:`SupervisionLog` — an in-memory record of every supervision
  decision (retries, backoff delays, breaker transitions, respawns,
  quarantines).  Tests replay it to prove same-seed → same-log;
* :class:`LocalPoolBackend` (spec ``pool:N``) — a :class:`SocketBackend`
  that forks its own loopback workers from the calling process
  (:class:`WorkerProcess`, milliseconds each) and **respawns** them when
  they die, the "warm elastic pool" sketch from the roadmap.  Forked
  experiment children adopt the pool their parent started, so one suite
  run starts its workers once.

Supervision is unconditional: every socket and pool backend runs under
it, and a static ``socket:`` list differs from ``pool:N`` only in that
it cannot respawn the workers it dials.

Counters live under ``perf.supervise.*``, and every retry, backoff,
breaker opening, respawn and quarantine is a :class:`SupervisionLog`
record (see ``docs/resilience.md`` for the full failure-mode table).
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs import log as _obs_log
from repro.obs import metrics as _metrics
from repro.obs.metrics import counter as _counter
from repro.perf.backends import BackendSpecError, register_backend
from repro.perf.backends.sockets import SocketBackend, _WorkerConnection

__all__ = [
    "CircuitBreaker",
    "LocalPoolBackend",
    "SupervisionLog",
    "SupervisionPolicy",
    "WorkerProcess",
    "backoff_delay",
    "base_policy",
    "configure_policy",
]

_RESPAWNS = _counter("perf.supervise.respawns")


def _parse_deadline(raw: Any, default: Optional[float]) -> Optional[float]:
    """``0``/``off``/``none`` disable the deadline (unbounded waits)."""
    if raw is None:
        return default
    text = str(raw).strip().lower()
    if not text:
        return default
    if text in ("off", "none", "0", "0.0"):
        return None
    try:
        value = float(text)
    except ValueError:
        return default
    return value if value > 0 else None


@dataclass(frozen=True)
class SupervisionPolicy:
    """Every supervision knob in one frozen, comparable bundle."""

    seed: int = 0
    #: seconds for connect + handshake + the send side of a round-trip
    connect_timeout_s: float = 10.0
    #: wall-clock budget for one chunk round-trip; ``None`` = unbounded
    chunk_deadline_s: Optional[float] = 600.0
    #: cadence of worker heartbeat frames while a chunk runs (protocol v3)
    heartbeat_s: float = 1.0
    #: missed-heartbeat tolerance: the receive path times out after
    #: ``heartbeat_s * heartbeat_grace`` seconds of silence
    heartbeat_grace: float = 5.0
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 15.0
    #: jitter amplitude as a fraction of the delay (0.5 -> +/-50%)
    backoff_jitter: float = 0.5
    #: blocking revival rounds a starved chunk will wait through
    max_reconnect_attempts: int = 3
    #: consecutive failures before the endpoint's breaker opens
    breaker_threshold: int = 3
    #: seconds an open breaker ejects the endpoint before one half-open trial
    breaker_cooldown_s: float = 5.0
    #: failed attempts (on any workers, the same one included) one chunk
    #: may cause before it is quarantined
    poison_threshold: int = 2
    #: times a LocalPoolBackend will respawn each worker slot
    max_respawns: int = 2

    def with_options(self, options: Mapping[str, Any]) -> "SupervisionPolicy":
        """A copy updated from backend-spec ``key=value`` options
        (``seed``, ``deadline``, ``timeout``, ``heartbeat``, plus any policy
        field name)."""
        aliases = {
            "deadline": "chunk_deadline_s",
            "timeout": "connect_timeout_s",
            "heartbeat": "heartbeat_s",
        }
        known = {f.name: f for f in fields(self)}
        updates: Dict[str, Any] = {}
        for raw_key, raw_value in options.items():
            key = aliases.get(raw_key, raw_key)
            if key not in known:
                raise BackendSpecError(
                    f"unknown supervision option {raw_key!r} "
                    f"(known: {', '.join(sorted(aliases) + sorted(known))})"
                )
            if key == "chunk_deadline_s":
                updates[key] = _parse_deadline(raw_value, self.chunk_deadline_s)
            elif known[key].type in ("int", int):
                try:
                    updates[key] = int(str(raw_value))
                except ValueError:
                    raise BackendSpecError(
                        f"supervision option {raw_key!r} needs an integer, got {raw_value!r}"
                    )
            else:
                try:
                    updates[key] = float(str(raw_value))
                except ValueError:
                    raise BackendSpecError(
                        f"supervision option {raw_key!r} needs a number, got {raw_value!r}"
                    )
        return replace(self, **updates) if updates else self

    def frame_timeout_s(self) -> float:
        """Longest silence tolerated between frames of one reply.

        The worker heartbeats while the chunk runs, so silence longer than
        a few heartbeat periods means the worker is gone.
        """
        return max(self.heartbeat_s * self.heartbeat_grace, 0.1)


#: The process-wide base policy backends overlay their spec options on.
_BASE_POLICY = SupervisionPolicy()


def configure_policy(policy: SupervisionPolicy) -> None:
    """Install the base policy (``RunConfig.apply`` builds it from the
    config's ``chunk_deadline`` and ``seed``)."""
    global _BASE_POLICY
    _BASE_POLICY = policy


def base_policy() -> SupervisionPolicy:
    """The installed base policy (defaults until one is configured)."""
    return _BASE_POLICY


def backoff_delay(policy: SupervisionPolicy, worker: str, attempt: int) -> float:
    """Seconds to wait before reconnect ``attempt`` (0-based) to ``worker``.

    Exponential with bounded cap and seeded jitter; a pure function of
    ``(policy.seed, worker, attempt)`` so every supervision schedule is
    replayable from its seed alone.
    """
    base = min(policy.backoff_max_s, policy.backoff_base_s * policy.backoff_factor ** attempt)
    rng = random.Random(f"{policy.seed}|{worker}|{attempt}")
    spread = policy.backoff_jitter * (2.0 * rng.random() - 1.0)
    return max(0.0, base * (1.0 + spread))


class CircuitBreaker:
    """Consecutive-failure breaker for one worker endpoint.

    closed -> (threshold failures) -> open -> (cooldown) -> half-open
    -> success closes / failure re-opens.  ``allow`` answers "may we try
    this endpoint now?"; the caller reports the trial's outcome back.
    """

    __slots__ = ("threshold", "cooldown_s", "failures", "opened_at")

    def __init__(self, threshold: int, cooldown_s: float) -> None:
        self.threshold = max(1, int(threshold))
        self.cooldown_s = float(cooldown_s)
        self.failures = 0
        self.opened_at: Optional[float] = None

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        if time.monotonic() - self.opened_at >= self.cooldown_s:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        return self.state != "open"

    def record_failure(self) -> bool:
        """Count one failure; True when this failure *opened* the breaker."""
        self.failures += 1
        if self.failures >= self.threshold and self.opened_at is None:
            self.opened_at = time.monotonic()
            return True
        if self.opened_at is not None:
            self.opened_at = time.monotonic()  # failed half-open trial re-opens
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None


class SupervisionLog:
    """Thread-safe ordered record of supervision decisions.

    Events are plain dicts with an ``event`` key (``retry``, ``backoff``,
    ``breaker_open``, ``reconnected``, ``respawn``, ``quarantine``, ...).
    Everything recorded is derived from the policy seed and the failure
    sequence — never from wall-clock readings — so two runs that see the
    same failures under the same seed produce identical logs.
    """

    def __init__(self) -> None:
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def record(self, event: str, **details: Any) -> None:
        entry = {"event": event}
        entry.update(details)
        with self._lock:
            self._events.append(entry)

    @property
    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(e) for e in self._events]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


# -- the self-healing local pool ------------------------------------------------


def _pid_alive(pid: int) -> bool:
    """Whether process ``pid`` runs, read without waiting on it.

    For a worker another process started: ``waitpid`` on it fails with
    ``ECHILD``, which ``poll`` reports as a clean exit.  A zombie counts as
    dead; without ``/proc`` (not Linux) a signal-0 probe decides.
    """
    if not os.path.isdir("/proc"):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            pass  # it exists, under another user
        return True
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state = handle.read().rsplit(b")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in (b"Z", b"X")


class _ForkedProcess:
    """The ``Popen`` surface callers use (``pid``, ``poll``, ``wait``,
    ``send_signal``, ``terminate``, ``kill``) over a forked worker's pid."""

    def __init__(self, pid: int) -> None:
        self.pid, self.returncode = pid, None

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:  # not this process's child: as Popen does
                pid, status = self.pid, 0
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        deadline = time.monotonic() + (float("inf") if timeout is None else timeout)
        while self.poll() is None:
            if time.monotonic() >= deadline:
                raise TimeoutError(f"worker {self.pid} still running after {timeout}s")
            time.sleep(0.002)
        return self.returncode

    def send_signal(self, sig: int) -> None:
        if self.poll() is None:
            os.kill(self.pid, sig)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


#: A forked worker's inherited stdio objects, kept alive: a thread lost in
#: the fork may hold their locks, and a collected one would flush into fd 1.
_INHERITED_STDIO: Tuple[Any, ...] = ()


def _become_worker(announce_fd: int, log_fd: Optional[int]) -> None:
    """Body of a forked pool worker; never returns.

    Drops what a fresh interpreter would not have (the caller's descriptors,
    stdio objects, signal handlers, metrics and correlation), reopens the
    caller's log sink by path (its descriptor is released with the rest),
    re-resolves the run settings
    (:func:`repro.perf.worker.settle`), announces the bound address on
    ``announce_fd`` (its stdout) and serves until killed.
    """
    global _INHERITED_STDIO
    from repro.perf import worker  # loaded by the caller: no import runs here

    code = 1
    log_path = _obs_log.log_path()
    try:
        devnull = os.open(os.devnull, os.O_RDWR)
        os.dup2(announce_fd, 1)
        os.dup2(devnull if log_fd is None else log_fd, 2)
        for fd in map(int, os.listdir("/dev/fd")):
            # Release each inherited descriptor but keep its number taken: a
            # stale object closing it later closes /dev/null, never a
            # descriptor this worker opened since.
            if fd > 2 and fd != devnull:
                with contextlib.suppress(OSError):  # the listing's own fd is gone
                    os.fstat(fd)
                    os.dup2(devnull, fd)
        _INHERITED_STDIO = (sys.stdout, sys.stderr)
        sys.stdout = open(1, "w", buffering=1, closefd=False)
        sys.stderr = open(2, "w", buffering=1, closefd=False)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        _metrics.reset()
        _obs_log.set_correlation(None)
        with contextlib.suppress(OSError, ValueError):  # a sink never stops a worker
            _obs_log.configure(log_path)
        worker.settle()
        worker.serve("127.0.0.1", 0)
    except KeyboardInterrupt:
        code = 0
    except BaseException:  # noqa: BLE001 - reported in the worker's log
        os.write(2, traceback.format_exc().encode("utf-8", "replace"))
    finally:
        os._exit(code)


class WorkerProcess:
    """One loopback worker, forked from the calling process.

    The caller has ``repro`` imported, so a worker serves milliseconds after
    :meth:`start`, running the same :func:`repro.perf.worker.serve` loop as
    ``python -m repro.perf.worker`` from a fresh slate (:func:`_become_worker`).

    Only its *owner*, the process that started it, polls, terminates or
    closes it.  A forked child that adopts the pool shares the worker: it
    reads liveness from ``/proc`` and its :meth:`terminate` is a no-op.
    """

    def __init__(self, slot: int, log_dir: Optional[str] = None) -> None:
        self.slot = slot
        self.process: Optional[_ForkedProcess] = None
        self.address: Optional[Tuple[str, int]] = None
        self._owner: Optional[int] = None
        self._log_dir = log_dir or os.environ.get("REPRO_WORKER_LOG_DIR") or None

    def start(self) -> Tuple[str, int]:
        """Fork the worker, read its banner, return the bound address."""
        from repro.perf import worker  # noqa: F401 - imported before the fork

        log_fd = None
        if self._log_dir:
            os.makedirs(self._log_dir, exist_ok=True)
            log_path = os.path.join(self._log_dir, f"pool-worker-{self.slot}.log")
            log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            _become_worker(write_fd, log_fd)
        self._owner = os.getpid()
        self.process = _ForkedProcess(pid)
        os.close(write_fd)
        if log_fd is not None:
            os.close(log_fd)
        with os.fdopen(read_fd, "rb") as announcements:
            banner = announcements.readline().decode("utf-8", "replace").strip()
        prefix = "repro-perf-worker listening on "
        if not banner.startswith(prefix):
            self.terminate()
            raise RuntimeError(
                f"pool worker {self.slot} did not announce itself (got {banner!r})"
            )
        host, _, port_text = banner[len(prefix):].rpartition(":")
        self.address = (host, int(port_text))
        return self.address

    @property
    def owned(self) -> bool:
        """True in the process that started the worker."""
        return self._owner == os.getpid()

    @property
    def alive(self) -> bool:
        if self.process is None:
            return False
        if self.owned:
            return self.process.poll() is None
        return _pid_alive(self.process.pid)

    def terminate(self) -> None:
        """Stop and reap the worker; a no-op outside its owner."""
        if not self.owned or self.process.poll() is not None:
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=5)
        except TimeoutError:
            self.process.kill()
            self.process.wait()


class LocalPoolBackend(SocketBackend):
    """Spec ``pool:N[;option=value...]`` — a self-launched loopback worker pool.

    Forks ``N`` workers on free loopback ports, one after another,
    and fans chunks over them exactly like :class:`SocketBackend`;
    additionally, a worker process found dead during revival is
    **respawned** (fresh process, fresh port, breaker reset) up to
    ``max_respawns`` times per slot.

    A forked child sweeps over the same workers through :meth:`adopt`, so
    one pool serves a whole crash-isolated suite; only the process that
    started a worker stops it.
    """

    name = "pool"

    def __init__(self, workers: int, options: Optional[Mapping[str, str]] = None) -> None:
        if workers < 1:
            raise BackendSpecError("pool backend needs at least one worker")
        self._requested_workers = workers
        self._procs = [WorkerProcess(slot) for slot in range(workers)]
        self._spawned = False
        self._started = 0
        # Reentrant: start() heals through _prepare_revival under it.
        self._spawn_lock = threading.RLock()
        # Workers are spawned lazily at first use: spec validation
        # (``normalize_spec``) and ``describe()`` build-and-discard backend
        # instances, which must not launch (and leak) workers.
        super().__init__([("127.0.0.1", 0)] * workers, options=options)
        self._respawns_by_slot = [0] * workers

    def _spawn_all(self) -> None:
        with self._spawn_lock:
            if self._spawned:
                return
            self._spawned = True
            for conn, proc in zip(self._connections, self._procs):
                try:
                    conn.address = proc.start()
                except (OSError, RuntimeError):
                    continue  # the slot keeps port 0 and revives via respawn
                self._started += 1

    def start(self) -> None:
        """Bring every worker up before a sweep needs it.

        The first call forks all ``N``.  Every call then
        respawns, through the revival path, each slot whose worker died, so
        children forked afterwards inherit a healthy pool.  Safe to call
        from several threads while others fork.
        """
        with self._spawn_lock:
            self._spawn_all()
            for conn in self._connections:
                if not self._procs[conn.index].alive and self._prepare_revival(conn):
                    self._forget(conn)

    def _forget(self, conn: _WorkerConnection) -> None:
        """Drop ``conn``'s socket to a replaced worker; the next sweep dials
        the replacement."""
        with self._pool_lock:
            if conn.sock is not None:
                try:
                    conn.sock.close()
                except OSError:
                    pass
                conn.sock = None
            conn.alive = False
            conn.attempted = False

    def adopt(self) -> "LocalPoolBackend":
        """This pool for a forked child: the same worker processes over the
        child's own fresh connections.  The inherited sockets belong to the
        parent and stay untouched; a worker the child respawns is its own."""
        clone = LocalPoolBackend(self._requested_workers, options=self._options)
        clone._procs = list(self._procs)
        clone._respawns_by_slot = list(self._respawns_by_slot)
        clone._spawned = self._spawned
        for conn, proc in zip(clone._connections, clone._procs):
            if proc.address is not None:
                conn.address = proc.address
        return clone

    def _ensure_connected(self) -> None:
        self._spawn_all()
        super()._ensure_connected()

    @property
    def spec(self) -> str:
        return f"pool:{self._requested_workers}" + self._options_suffix()

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        # Ports are bound only when the workers spawn, at first use.
        del info["addresses"]
        return info

    @property
    def worker_processes(self) -> List[WorkerProcess]:
        return list(self._procs)

    @property
    def workers_started(self) -> int:
        """Workers this process launched for the pool, respawns included."""
        return self._started

    def _prepare_revival(self, conn: _WorkerConnection) -> bool:
        """Respawn the slot's worker if it died; False ends revival."""
        with self._spawn_lock:
            proc = self._procs[conn.index]
            if proc.alive:
                return True
            if self._respawns_by_slot[conn.index] >= self.policy.max_respawns:
                return False
            proc.terminate()  # the owner reaps the corpse
            replacement = WorkerProcess(conn.index, log_dir=proc._log_dir)
            try:
                address = replacement.start()
            except (OSError, RuntimeError):
                return False
            self._procs[conn.index] = replacement
            self._respawns_by_slot[conn.index] += 1
            self._started += 1
        conn.address = address
        conn.breaker.record_success()  # a fresh process starts with a clean slate
        _RESPAWNS.inc()
        self.supervision_log.record(
            "respawn", slot=conn.index, respawn=self._respawns_by_slot[conn.index]
        )
        return True

    def close(self) -> None:
        super().close()
        for proc in self._procs:
            proc.terminate()


def _pool_factory(rest: Optional[str]):
    from repro.perf.backends.sockets import parse_options

    if not rest:
        raise BackendSpecError("pool spec needs a worker count, e.g. pool:4")
    head, _, option_text = rest.partition(";")
    try:
        workers = int(head)
    except ValueError:
        raise BackendSpecError(f"pool worker count must be an integer, got {head!r}")
    return LocalPoolBackend(workers, options=parse_options(option_text))


register_backend("pool", _pool_factory)
