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
  that launches its own ``python -m repro.perf.worker`` subprocesses on
  loopback and **respawns** them when they die, the "warm elastic pool"
  sketch from the roadmap.

Supervision is unconditional: every socket and pool backend runs under
it, and a static ``socket:`` list differs from ``pool:N`` only in that
it cannot respawn the workers it dials.

Counters live under ``perf.supervise.*``; trace instants are
``supervise.heartbeat_miss``, ``supervise.breaker_open``,
``supervise.respawn``, ``supervise.reconnect`` and ``supervise.quarantine``
(see ``docs/resilience.md`` for the full failure-mode table).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs import trace as _trace
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


class WorkerProcess:
    """One locally-launched ``python -m repro.perf.worker`` subprocess."""

    def __init__(self, slot: int, log_dir: Optional[str] = None) -> None:
        self.slot = slot
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self._log_dir = log_dir or os.environ.get("REPRO_WORKER_LOG_DIR") or None
        self._log_file = None

    def start(self) -> Tuple[str, int]:
        """Launch the worker, parse its banner, return the bound address."""
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        stderr: Any = subprocess.DEVNULL
        if self._log_dir:
            os.makedirs(self._log_dir, exist_ok=True)
            self._log_file = open(
                os.path.join(self._log_dir, f"pool-worker-{self.slot}.log"), "ab"
            )
            stderr = self._log_file
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.perf.worker", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
        )
        banner = self.process.stdout.readline().decode("utf-8", "replace").strip()
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
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def terminate(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process is not None and self.process.stdout is not None:
            self.process.stdout.close()
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None


class LocalPoolBackend(SocketBackend):
    """Spec ``pool:N[;option=value...]`` — a self-launched loopback worker pool.

    Launches ``N`` worker subprocesses on free loopback ports and fans
    chunks over them exactly like :class:`SocketBackend`; additionally,
    a worker process found dead during revival is **respawned** (fresh
    process, fresh port, breaker reset) up to ``max_respawns`` times per
    slot.
    """

    name = "pool"

    def __init__(self, workers: int, options: Optional[Mapping[str, str]] = None) -> None:
        if workers < 1:
            raise BackendSpecError("pool backend needs at least one worker")
        self._requested_workers = workers
        self._procs = [WorkerProcess(slot) for slot in range(workers)]
        self._spawned = False
        # Workers are spawned lazily at first use: spec validation
        # (``normalize_spec``) and ``describe()`` build-and-discard backend
        # instances, which must not launch (and leak) subprocesses.
        super().__init__([("127.0.0.1", 0)] * workers, options=options)
        self._respawns_by_slot = [0] * workers

    def _spawn_all(self) -> None:
        if self._spawned:
            return
        self._spawned = True
        for conn, proc in zip(self._connections, self._procs):
            try:
                conn.address = proc.start()
            except (OSError, RuntimeError):
                pass  # port 0 never connects; the slot revives via respawn

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

    def _prepare_revival(self, conn: _WorkerConnection) -> bool:
        """Respawn the slot's subprocess if it died; False ends revival."""
        proc = self._procs[conn.index]
        if proc.alive:
            return True
        if self._respawns_by_slot[conn.index] >= self.policy.max_respawns:
            return False
        proc.terminate()  # reap the corpse and close its pipes
        replacement = WorkerProcess(conn.index, log_dir=proc._log_dir)
        try:
            address = replacement.start()
        except (OSError, RuntimeError):
            return False
        self._procs[conn.index] = replacement
        self._respawns_by_slot[conn.index] += 1
        conn.address = address
        conn.breaker.record_success()  # a fresh process starts with a clean slate
        _RESPAWNS.inc()
        _trace.instant(
            "supervise.respawn", slot=conn.index, worker="{}:{}".format(*address)
        )
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
