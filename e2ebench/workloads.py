"""The benchmark's workloads and the closed loop that drives them.

Every workload is a sequence of *units*.  One caller issues one unit at a
time and starts the next only after the previous one returned (a closed
loop with one client), until the run's time budget would be exceeded.
Each unit uses an explicit ``RunConfig`` carrying the run's seed, so the
environment cannot change what runs.

* ``suite-serial`` -- the whole default suite, serial, in-memory cache on,
  no store: what people run.
* ``e11-deep`` -- E11 alone: the deepest executions, where depth-dependent
  kernel and cache costs show.
* ``sweep-pool2`` -- E12 and E15 on ``pool:2``: the only experiments that
  fan out, so worker start, pickling and socket transport dominate.
* ``service-cold`` / ``service-warm`` -- jobs of E4, E12 and E13 against a
  live ``python -m repro.service --pool 2 --cache-dir D``.  A cold job pins
  a fresh empty store; a warm job uses ``D``, pre-filled during set-up.

Correctness: every unit's per-experiment digests of ``(experiment,
status, table)`` must equal those of a reference run of the same
experiments and seed, made in-process, serial, uncached and outside all
timing.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.api import RunConfig
from repro.perf.store import PersistentStore
from repro.service.client import ServiceClient, ServiceClientError

import layers

SERVICE_EXPERIMENTS = ["E4", "E12", "E13"]
#: How many times a run sets up from scratch; ``setup_s`` is the median.
SETUP_REPEATS = 5
_TERMINAL = ("done", "failed", "cancelled")
_PR_SET_CHILD_SUBREAPER = 36


@dataclass
class Unit:
    wall: float
    ok: bool
    digests: Tuple[str, ...]
    records: List[Dict[str, Any]] = field(default_factory=list)


def digests(records: Sequence[Dict[str, Any]]) -> Tuple[str, ...]:
    """One digest per experiment over the fields that must never change."""
    return tuple(
        hashlib.sha256(
            json.dumps([r["experiment"], r["status"], r["table"]]).encode("utf-8")
        ).hexdigest()
        for r in records
    )


def count_failed(units: Sequence[Unit], reference: Tuple[str, ...]) -> int:
    """Units that did not pass or whose outputs differ from the reference."""
    return sum(1 for unit in units if not unit.ok or unit.digests != reference)


def closed_loop(run_unit: Callable[[], Unit], seconds: float) -> List[Unit]:
    """Run units back to back; stop before the next one would overrun."""
    units: List[Unit] = []
    start = time.perf_counter()
    while True:
        units.append(run_unit())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(u.wall for u in units) > seconds:
            return units


def peak_rss_mb() -> float:
    """The larger of this process's and its waited-for children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- process hygiene ----------------------------------------------------------------


def become_subreaper() -> None:
    """Adopt orphaned descendants.

    A forked experiment child that runs ``pool:2`` starts two worker
    processes and exits without stopping them; as a subreaper this process
    inherits them and can stop them after each unit."""
    libc = ctypes.CDLL(None, use_errno=True)
    prctl = libc.prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(errno)}")


def _child_pids() -> List[int]:
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(b")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(keep: Sequence[int] = ()) -> None:
    """Terminate every child except ``keep`` and wait until each has ended."""
    pids = [pid for pid in _child_pids() if pid not in keep]
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + 5.0
    for pid in pids:
        while True:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
                break
            time.sleep(0.01)


# -- workloads ------------------------------------------------------------------------


class Workload:
    """A closed-loop workload over ``run_suite``.

    ``replay`` runs the unit's body in this process: suite workloads time
    it as their unit, and traced runs replay it with the layer wrappers
    installed.
    """

    def __init__(
        self,
        *,
        root: str,
        workdir: str,
        env: Dict[str, str],
        seed: int,
        experiments: Optional[List[str]],
        backend: Optional[str] = None,
    ) -> None:
        self.root = root
        self.workdir = workdir
        self.env = env
        self.seed = seed
        self.experiments = experiments
        self.backend = backend

    def setup(self) -> float:
        """Median wall time of a fresh interpreter importing the API."""
        samples = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import repro.api"],
                cwd=self.root,
                env=self.env,
                check=True,
            )
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    def replay_config(self, cache: str = "on") -> RunConfig:
        return RunConfig(seed=self.seed, backend=self.backend, cache=cache)

    def replay(self, config: RunConfig) -> Unit:
        start = time.perf_counter()
        result = api.run_suite(self.experiments, config=config)
        wall = time.perf_counter() - start
        stop_children(keep=self.keep())
        return Unit(wall, result.exit_code == 0, digests(result.records), result.records)

    def unit(self) -> Unit:
        return self.replay(self.replay_config())

    def keep(self) -> List[int]:
        return []

    def service_layers(self) -> Dict[str, float]:
        return {}

    def store_bytes(self) -> int:
        return 0

    def teardown(self) -> None:
        pass

    def reference(self) -> Tuple[str, ...]:
        config = RunConfig(seed=self.seed, cache="off", isolated=False)
        return digests(api.run_suite(self.experiments, config=config).records)


class Service:
    """One ``python -m repro.service`` subprocess and a client for it."""

    def __init__(self, root: str, env: Dict[str, str], store: str, log_path: str) -> None:
        start = time.perf_counter()
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--port", "0", "--pool", "2", "--cache-dir", store,
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
            banner = self.process.stdout.readline().decode("utf-8", "replace").strip() if ready else ""
            prefix = "repro-service listening on "
            if not banner.startswith(prefix):
                raise RuntimeError(f"service did not start (banner {banner!r}; log {log_path})")
            self.client = ServiceClient("http://" + banner[len(prefix):], timeout=120.0)
            while self.client.health()["pool"]["alive"] < 2:
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - start

    def job(self, config: Dict[str, Any]) -> Tuple[float, Dict[str, Any]]:
        """Submit one job; return the time to its terminal SSE event and its id."""
        start = time.perf_counter()
        job = self.client.submit(SERVICE_EXPERIMENTS, config=config)
        state = None
        with contextlib.closing(self.client.stream_events(job["id"], timeout=120.0)) as events:
            for event in events:
                if event.get("event") == "state" and event.get("state") in _TERMINAL:
                    state = event["state"]
                    break
        return time.perf_counter() - start, {"id": job["id"], "state": state}

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class ServiceWorkload(Workload):
    """Jobs against a live service; ``warm`` selects the pre-filled store."""

    def __init__(self, *, warm: bool, **kwargs: Any) -> None:
        super().__init__(experiments=SERVICE_EXPERIMENTS, **kwargs)
        self.warm = warm
        self.store = os.path.join(self.workdir, "store")
        self.service: Optional[Service] = None
        self._cold_dirs = 0
        self._replay_store = self.store
        self._job_config: Optional[Dict[str, Any]] = None
        self._rtts_ms: List[float] = []
        self._overheads_s: List[float] = []

    def setup(self) -> float:
        starts = []
        for attempt in range(SETUP_REPEATS):
            service = Service(
                self.root, self.env, self.store, os.path.join(self.workdir, "service.log")
            )
            starts.append(service.start_s)
            if attempt < SETUP_REPEATS - 1:
                service.stop()
        self.service = service
        setup_s = statistics.median(starts)
        if self.warm:
            # The pre-fill job is discarded: it only makes the store warm.
            wall, job = service.job({"seed": self.seed})
            if job["state"] != "done":
                raise RuntimeError(f"store pre-fill job ended {job['state']}")
            setup_s += wall
        return setup_s

    def _fresh_store(self) -> str:
        self._cold_dirs += 1
        return os.path.join(self.workdir, f"cold-{self._cold_dirs}")

    def job_config(self) -> Dict[str, Any]:
        config: Dict[str, Any] = {"seed": self.seed}
        if not self.warm:
            config["cache_dir"] = self._fresh_store()
        return config

    def unit(self, timed_gets: bool = False) -> Unit:
        try:
            wall, job = self.service.job(self.job_config())
        except ServiceClientError:  # refused (429) or rejected: a failed unit
            return Unit(0.0, False, ())
        client = self.service.client
        start = time.perf_counter()
        status = client.status(job["id"])
        status_ms = 1e3 * (time.perf_counter() - start)
        start = time.perf_counter()
        report = client.report(job["id"]) if job["state"] == "done" else None
        report_ms = 1e3 * (time.perf_counter() - start)
        if report is None:
            return Unit(wall, False, ())
        if timed_gets:
            self._rtts_ms += [status_ms, report_ms]
            self._overheads_s.append(wall - report["summary"]["wall_time_s"])
        if self._job_config is None:
            # The config the service actually executed: the submission's
            # fields plus the warm pool's socket backend.
            self._job_config = report["summary"]["config"]
        records = report["experiments"]
        return Unit(wall, status["exit_code"] == 0, digests(records), records)

    def replay_config(self, cache: str = "on") -> RunConfig:
        config = dict(self._job_config)
        config["cache"] = cache
        if not self.warm:
            config["cache_dir"] = self._fresh_store()
        self._replay_store = config["cache_dir"]
        return RunConfig.from_dict(config)

    def keep(self) -> List[int]:
        return [self.service.process.pid] if self.service is not None else []

    def service_layers(self) -> Dict[str, float]:
        histogram = self.service.client.metrics()["histograms"].get(
            "service.jobs.queue_wait_s", {}
        )
        return {
            "service.http.rtt_ms": layers.median0(self._rtts_ms),
            "service.jobs.queue_wait_s": float(histogram.get("p50") or 0.0),
            "service.jobs.overhead_s": layers.median0(self._overheads_s),
        }

    def store_bytes(self) -> int:
        return PersistentStore(self._replay_store).stats()["bytes"]

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None


def make(name: str, **kwargs: Any) -> Workload:
    if name == "suite-serial":
        return Workload(experiments=None, **kwargs)
    if name == "e11-deep":
        return Workload(experiments=["E11"], **kwargs)
    if name == "sweep-pool2":
        return Workload(experiments=["E12", "E15"], backend="pool:2", **kwargs)
    if name == "service-cold":
        return ServiceWorkload(warm=False, **kwargs)
    if name == "service-warm":
        return ServiceWorkload(warm=True, **kwargs)
    raise KeyError(name)


# -- one run ----------------------------------------------------------------------------


def measure(workload: Workload, seconds: float) -> Tuple[List[Unit], Dict[str, float]]:
    """The untraced run: end-to-end metrics."""
    setup_s = workload.setup()
    units = closed_loop(workload.unit, seconds)
    workload.teardown()
    walls = [u.wall for u in units if u.ok]
    metrics = {
        "setup_s": setup_s,
        "unit_p50_s": statistics.median(walls) if walls else 0.0,
        "unit_mean_s": statistics.fmean(walls) if walls else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    return units, metrics


def measure_layers(
    workload: Workload, seconds: float, recorder: layers.Recorder
) -> Tuple[List[Unit], Dict[str, float], List[Dict[str, Any]]]:
    """The traced run: per-layer metrics, reconciliation, tracing overhead.

    Service workloads first run jobs through the server (HTTP round trips,
    queue wait, job overhead); the server is a separate process, so the
    job body is then replayed here with the same ``RunConfig``.  Untraced
    cache-on and cache-off replays alternate for about half the budget,
    traced replays fill the rest.
    """
    workload.setup()
    start = time.perf_counter()
    units: List[Unit] = []
    if isinstance(workload, ServiceWorkload):
        units += closed_loop(lambda: workload.unit(timed_gets=True), seconds / 4)
    on: List[Unit] = []
    off: List[Unit] = []
    while True:
        on.append(workload.replay(workload.replay_config()))
        off.append(workload.replay(workload.replay_config(cache="off")))
        elapsed = time.perf_counter() - start
        if elapsed + on[-1].wall + off[-1].wall > 0.75 * seconds:
            break
    recorder.install()
    traced: List[Unit] = []
    try:
        while True:
            recorder.unit = f"traced-{len(traced)}"
            unit = workload.replay(workload.replay_config())
            traced.append(unit)
            if time.perf_counter() - start + unit.wall > seconds:
                break
    finally:
        recorder.uninstall()
    service = workload.service_layers()
    store_bytes = workload.store_bytes()
    workload.teardown()
    counters: Dict[str, int] = {}
    for unit in traced:
        for record in unit.records:
            for name, value in (record.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + value
    rows = recorder.rows()
    metrics = layers.layer_metrics(
        rows,
        counters,
        traced_walls=[u.wall for u in traced],
        untraced_walls=[u.wall for u in on],
        cache_off_walls=[u.wall for u in off],
        store_bytes=store_bytes,
        service=service,
    )
    return units + on + off + traced, metrics, rows
