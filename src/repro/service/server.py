"""Sweep-as-a-service: the long-lived job server over the repro.api facade.

One :class:`JobService` owns four things:

* a :class:`~repro.service.jobs.JobRegistry` (submissions, states, events),
* an :class:`~repro.service.admission.AdmissionController` (bounded queue,
  per-tenant quotas — rejections are HTTP 429 with ``Retry-After``),
* an optional **warm worker pool**: long-lived loopback workers
  (:class:`repro.perf.supervise.WorkerProcess`) forked from the service
  process once at startup, milliseconds each; jobs that do not pin a
  backend run their sweeps on ``socket:<pool addresses>``, so consecutive
  jobs reuse the same workers instead of starting new ones per sweep.
  Dead workers are respawned between jobs (``service.pool.respawns``
  counts them); a worker dying
  *mid-job* degrades gracefully through the socket transport's lost-chunk
  fallback — the chunk is recomputed in the service process and the job
  still completes,
* a single **dispatcher thread** executing queued jobs strictly one at a
  time.  :meth:`repro.api.RunConfig.apply` sets this process's subsystem
  switches (cache, store, backend, tracer, ...), so two concurrently
  applied configs would race; within one job, ``parallel``/backend
  fan-out still provides the concurrency.  Each job's config is resolved
  at submission from its own fields plus the service's start-up
  environment — never from what an earlier job applied.

Result reuse: an *identical active* submission coalesces onto the
in-flight job (one execution, every submitter gets the report), and a
submission with ``"reuse": true`` is served a completed identical job's
report without running at all.  Both key on a SHA-256 of the experiments
and the resolved config (:func:`repro.perf.fingerprint.try_fingerprint`).
Any other resubmission re-runs the suite.  The job's ``cache_dir`` names
a store directory that no job reads or writes yet.

The HTTP surface is versioned under ``/v1`` (JSON in/out; see
``docs/service.md``)::

    GET    /v1/health                  liveness + pool/job gauges
    GET    /v1/experiments             known experiment ids and claims
    GET    /v1/metrics                 Prometheus exposition (?format=json)
    POST   /v1/jobs                    submit {experiments?, config?, tenant?,
                                       reuse?} -> 202 {job} | 400 | 429
    GET    /v1/jobs[?tenant=]          list job snapshots
    GET    /v1/jobs/<id>               one job snapshot
    GET    /v1/jobs/<id>/report        the run report (409 until done)
    GET    /v1/jobs/<id>/trace         merged job trace (409/404; traced jobs)
    GET    /v1/jobs/<id>/events        Server-Sent Events progress stream
    POST   /v1/jobs/<id>/cancel        cancel a queued job (409 otherwise)

Telemetry: every request, admission decision, job transition and pool
respawn is mirrored into the structured JSONL log (:mod:`repro.obs.log`,
enabled by ``--log-dir``/``REPRO_LOG``).  The dispatcher brackets each
execution with the job's correlation id, which forked experiment
children inherit through memory and socket workers get in the run-frame
ctx — so the per-lane trace payloads, the saved trace files, and
every log record written anywhere in the tree carry the job id, and
``GET /v1/jobs/<id>/trace`` can hand back one merged, attributable trace.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro import api
from repro.obs import distributed as obs_distributed
from repro.obs import expo as obs_expo
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import progress as obs_progress
from repro.perf.fingerprint import try_fingerprint
from repro.perf.supervise import WorkerProcess
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.jobs import (
    DONE,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobRegistry,
)

__all__ = ["API_VERSION", "JobService", "ServiceError"]

_LOG = obs_log.get_logger("service")
_ACCESS_LOG = obs_log.get_logger("service.http")

API_VERSION = "v1"

#: Submissions larger than this are rejected outright (413).
MAX_BODY_BYTES = 1 << 20


class ServiceError(Exception):
    """An HTTP-shaped service failure."""

    def __init__(self, status: int, detail: str, **extra: Any) -> None:
        super().__init__(detail)
        self.status = status
        self.body = {"error": detail, **extra}
        self.headers: Dict[str, str] = {}


class JobService:
    """The service core: submissions in, validated run reports out."""

    def __init__(
        self,
        *,
        pool: int = 0,
        backend: Optional[str] = None,
        cache_dir: Optional[str] = None,
        policy: Optional[AdmissionPolicy] = None,
        log_dir: Optional[str] = None,
        auto_dispatch: bool = True,
        job_ttl_s: Optional[float] = None,
        max_done: Optional[int] = 512,
        sse_keepalive_s: float = 5.0,
    ) -> None:
        if pool and backend:
            raise ValueError("pass either pool=N or backend=SPEC, not both")
        self.registry = JobRegistry(ttl_s=job_ttl_s, max_done=max_done)
        self.admission = AdmissionController(policy or AdmissionPolicy())
        self.pool_size = int(pool)
        self.default_backend = backend
        self.default_cache_dir = cache_dir
        self.log_dir = log_dir
        #: seconds of SSE silence before a comment frame probes the client
        #: (also how fast a vanished subscriber is noticed and cleaned up)
        self.sse_keepalive_s = float(sse_keepalive_s)
        self._pool: List[WorkerProcess] = []
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._auto_dispatch = auto_dispatch
        self._started_unix: Optional[float] = None
        self._sse_lock = threading.Lock()
        self._sse_count = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn the warm pool (if any) and the dispatcher thread."""
        self._started_unix = time.time()
        pool = [WorkerProcess(slot, log_dir=self.log_dir) for slot in range(self.pool_size)]
        try:
            for worker in pool:
                worker.start()
        except BaseException:
            for worker in pool:
                worker.terminate()
            raise
        self._pool = pool
        if self._auto_dispatch:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-service-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()

    def serve_http(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind the HTTP API and serve it on a background thread.

        Returns the bound ``(host, port)`` — pass port 0 to let the OS
        pick one (tests do)."""
        service = self

        class _BoundHandler(_Handler):
            pass

        _BoundHandler.service = service
        self._httpd = ThreadingHTTPServer((host, port), _BoundHandler)
        self._httpd.daemon_threads = True
        thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service-http", daemon=True
        )
        thread.start()
        return self._httpd.server_address[0], self._httpd.server_address[1]

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10)
            self._dispatcher = None
        for worker in self._pool:
            worker.terminate()
        self._pool = []

    # -- the warm pool -----------------------------------------------------------

    def pool_spec(self) -> Optional[str]:
        """The ``socket:`` spec addressing the live warm pool, if any."""
        if not self._pool:
            return None
        addresses = ",".join(f"{host}:{port}" for host, port in
                             (w.address for w in self._pool))
        return f"socket:{addresses}"

    def pool_alive(self) -> int:
        return sum(1 for worker in self._pool if worker.alive)

    def ensure_workers(self) -> int:
        """Respawn dead pool workers (between jobs); returns respawn count.

        A respawned worker binds a fresh port, so the pool spec is
        recomputed per job — which is why jobs resolve their backend at
        execution time, not admission time."""
        dead = [worker for worker in self._pool if not worker.alive]
        for worker in dead:
            worker.terminate()  # reap the old process
            host, port = worker.start()
            _LOG.warning(
                "service.pool.respawn", slot=worker.slot,
                address=f"{host}:{port}",
            )
        if dead:
            obs_metrics.counter("service.pool.respawns").inc(len(dead))
        return len(dead)

    # -- submission --------------------------------------------------------------

    def submit(self, payload: Any) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Admit one submission; returns (status, body, extra headers).

        ``payload``: ``{"experiments": [...], "config": {...},
        "tenant": "...", "reuse": bool}`` — all fields optional."""
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            raise ServiceError(400, "submission must be a JSON object")
        unknown = sorted(set(payload) - {"experiments", "config", "tenant", "reuse"})
        if unknown:
            raise ServiceError(
                400, f"unknown submission field(s): {', '.join(unknown)}"
            )

        tenant = payload.get("tenant") or "default"
        if not isinstance(tenant, str):
            raise ServiceError(400, "tenant must be a string")
        reuse = payload.get("reuse", False)
        if not isinstance(reuse, bool):
            raise ServiceError(400, "reuse must be a boolean")

        experiments = payload.get("experiments")
        known = api.list_experiments()
        if experiments is not None and (
            not isinstance(experiments, list)
            or not all(isinstance(e, str) for e in experiments)
        ):
            raise ServiceError(400, "experiments must be a list of ids")
        if not experiments:  # None or [] both mean the whole suite
            experiments = list(known)
        bad = [e for e in experiments if e not in known]
        if bad:
            raise ServiceError(
                400,
                f"unknown experiment(s): {', '.join(sorted(bad))}",
                known=list(known),
            )

        config_payload = payload.get("config") or {}
        if not isinstance(config_payload, dict):
            raise ServiceError(400, "config must be an object")
        overrides = dict(config_payload)
        # Service-wide defaults fill fields the submission left open; the
        # submission's own values always win (spec > service > env gates).
        if overrides.get("cache_dir") is None and self.default_cache_dir:
            overrides["cache_dir"] = self.default_cache_dir
        if overrides.get("backend") is None and self.default_backend:
            overrides["backend"] = self.default_backend
        try:
            config = api.resolve_config(**overrides)
        except api.ConfigError as exc:
            raise ServiceError(400, f"invalid config: {exc}")
        if config.progress:
            # Heartbeat rendering belongs to interactive terminals; job
            # progress is streamed through the registry's events instead.
            config = api.RunConfig(**{**config.describe(), "progress": False})

        cache_key = try_fingerprint(
            (
                "service.job",
                tuple(experiments),
                tuple(sorted(config.describe().items(), key=lambda kv: kv[0])),
            )
        )

        # Reuse: serve a completed identical job's report without running.
        if reuse and cache_key is not None:
            finished = self.registry.find_done_by_key(cache_key)
            if finished is not None:
                job = self.registry.create(
                    tenant=tenant,
                    experiments=experiments,
                    config=config,
                    cache_key=cache_key,
                )
                self.registry.mark_running(job)
                self.registry.finish(
                    job,
                    report=finished.report,
                    exit_code=finished.exit_code,
                    served_from=finished.id,
                )
                _LOG.info(
                    "service.job.reused", job=job.id, tenant=tenant,
                    served_from=finished.id,
                )
                return 202, {"job": job.snapshot()}, {}

        decision = self.admission.admit(
            total_active=self.registry.active_count(),
            tenant_active=self.registry.active_count(tenant=tenant),
            tenant=tenant,
        )
        if not decision.admitted:
            obs_metrics.counter("service.admission.rejected").inc()
            obs_metrics.counter(f"service.admission.rejected.{tenant}").inc()
            _LOG.warning(
                "service.admission.rejected",
                tenant=tenant,
                reason=decision.reason,
                detail=decision.detail,
                retry_after_s=decision.retry_after_s,
            )
            error = ServiceError(
                429, decision.detail or "rejected",
                reason=decision.reason,
                retry_after_s=decision.retry_after_s,
            )
            if decision.retry_after_s is not None:
                error.headers["Retry-After"] = str(int(decision.retry_after_s) or 1)
            raise error
        obs_metrics.counter("service.admission.admitted").inc()
        obs_metrics.counter(f"service.admission.admitted.{tenant}").inc()

        # Coalesce onto an identical in-flight job: one execution, every
        # submitter gets the report.
        leader = (
            self.registry.find_active_by_key(cache_key)
            if cache_key is not None
            else None
        )
        job = self.registry.create(
            tenant=tenant,
            experiments=experiments,
            config=config,
            cache_key=cache_key,
            leader=leader.id if leader is not None else None,
        )
        _LOG.info(
            "service.admission.admitted",
            job=job.id,
            tenant=tenant,
            experiments=len(experiments),
            coalesced_onto=leader.id if leader is not None else None,
        )
        self._wake.set()
        return 202, {"job": job.snapshot()}, {}

    # -- execution ---------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            job = self.registry.next_queued()
            if job is None:
                self._wake.wait(0.2)
                self._wake.clear()
                continue
            self.registry.mark_running(job)
            self.execute(job)

    def execute(self, job: Job) -> None:
        """Run one job's suite in this process (the dispatcher's body)."""
        self.ensure_workers()
        config = job.config
        overrides: Dict[str, Any] = {}
        if config.backend is None:
            spec = self.pool_spec()
            if spec is not None:
                # Resolved at execution time: respawned workers bind fresh
                # ports, so admission-time specs could point at the dead.
                overrides["backend"] = spec
        if config.trace and config.trace_dir is None:
            # Traced jobs get a per-job trace directory so the merged trace
            # stays retrievable via GET /v1/jobs/<id>/trace.  Injected at
            # execution time — like the backend — so it never perturbs the
            # submission's content fingerprint (coalescing/reuse).
            root = (
                os.path.join(self.log_dir, "traces")
                if self.log_dir
                else os.path.join(tempfile.gettempdir(), "repro-service-traces")
            )
            job.trace_dir = os.path.join(root, job.id)
            os.makedirs(job.trace_dir, exist_ok=True)
            overrides["trace_dir"] = job.trace_dir
        if overrides:
            config = api.RunConfig(**{**config.describe(), **overrides})

        progress_state = {"label": None, "done": 0}

        def on_heartbeat(event: str, **details: Any) -> None:
            # repro.obs.progress heartbeats -> job progress events.  Only
            # the suite-level phase counts: sweep phases inside inline
            # experiments advance in this process too, but they belong to
            # an experiment, not the job.
            if event == "begin":
                progress_state["label"] = details.get("label")
            elif (
                event == "advance"
                and progress_state["label"] == "experiments"
            ):
                progress_state["done"] += int(details.get("n", 1))
                self.registry.record_progress(
                    job, progress_state["done"], job.total
                )

        def on_record(
            experiment_id: str, record: Dict[str, Any], done: int, total: int
        ) -> None:
            self.registry.record_experiment(
                job, experiment_id, record["status"], record["ok"]
            )

        obs_progress.add_listener(on_heartbeat)
        obs_metrics.counter("service.jobs.started").inc()
        # The correlation bracket: from here until the finally, every log
        # record, trace lane and chunk payload produced anywhere in this
        # job's process tree carries job.id (fork children inherit it
        # through memory, workers get it via the run-frame ctx).
        obs_log.set_correlation(job.id)
        _LOG.info(
            "service.job.dispatch",
            job=job.id,
            tenant=job.tenant,
            backend=config.backend,
            experiments=len(job.experiments),
            trace_dir=job.trace_dir,
        )
        try:
            result = api.run_suite(
                job.experiments,
                config=config,
                argv=["service", *job.experiments],
                on_record=on_record,
            )
        except Exception:  # noqa: BLE001 - the job absorbs the failure
            obs_metrics.counter("service.jobs.failed").inc()
            self.registry.finish(job, error=traceback.format_exc())
        else:
            obs_metrics.counter("service.jobs.completed").inc()
            self.registry.finish(
                job, report=result.report, exit_code=result.exit_code
            )
        finally:
            obs_log.set_correlation(None)
            obs_progress.remove_listener(on_heartbeat)

    # -- health ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        jobs = self.registry.jobs()
        return {
            "status": "ok",
            "version": API_VERSION,
            "started_unix": self._started_unix,
            "pool": {"workers": len(self._pool), "alive": self.pool_alive()},
            "jobs": {
                "total": len(jobs),
                "queued": sum(1 for j in jobs if j.state == QUEUED),
                "running": sum(1 for j in jobs if j.state == RUNNING),
                "done": sum(1 for j in jobs if j.state == DONE),
            },
            "limits": {
                "max_active": self.admission.policy.max_active,
                "max_active_per_tenant": self.admission.policy.max_active_per_tenant,
            },
        }

    # -- telemetry ---------------------------------------------------------------

    def sse_subscribers(self) -> int:
        with self._sse_lock:
            return self._sse_count

    def _sse_add(self) -> None:
        with self._sse_lock:
            self._sse_count += 1
            obs_metrics.gauge("service.sse.subscribers").set(self._sse_count)

    def _sse_remove(self) -> None:
        with self._sse_lock:
            self._sse_count = max(0, self._sse_count - 1)
            obs_metrics.gauge("service.sse.subscribers").set(self._sse_count)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The registry snapshot behind ``GET /v1/metrics``.

        Point-in-time gauges (queue depth, pool health, uptime) are
        refreshed at scrape time — counters and histograms accumulate on
        their own as the service runs."""
        jobs = self.registry.jobs()
        obs_metrics.gauge("service.jobs.queue_depth").set(
            sum(1 for j in jobs if j.state == QUEUED)
        )
        obs_metrics.gauge("service.jobs.running").set(
            sum(1 for j in jobs if j.state == RUNNING)
        )
        obs_metrics.gauge("service.jobs.retained").set(len(jobs))
        obs_metrics.gauge("service.pool.workers").set(len(self._pool))
        obs_metrics.gauge("service.pool.alive").set(self.pool_alive())
        obs_metrics.gauge("service.sse.subscribers").set(self.sse_subscribers())
        if self._started_unix is not None:
            obs_metrics.gauge("service.uptime_s").set(
                round(time.time() - self._started_unix, 3)
            )
        return obs_metrics.snapshot()

    def metrics_text(self) -> str:
        """Prometheus text exposition of :meth:`metrics_snapshot`."""
        return obs_expo.render(self.metrics_snapshot())

    def job_trace(self, job: Job) -> Dict[str, Any]:
        """The merged Chrome trace behind ``GET /v1/jobs/<id>/trace``.

        409 while the job is still queued/running, 404 when it was not
        traced.  Followers and reuse-served jobs resolve through the job
        that actually executed.  Every ``process_name`` lane in the merged
        payload (and the payload itself) is stamped with the requested
        job's id — the correlation contract the analyze tooling and tests
        lean on."""
        if job.state not in TERMINAL_STATES:
            raise ServiceError(
                409, f"job {job.id} has no trace yet (state: {job.state})",
                state=job.state,
            )
        trace_dir = job.trace_dir
        if trace_dir is None and job.served_from is not None:
            source = self.registry.get(job.served_from)
            if source is not None:
                trace_dir = source.trace_dir
        files = sorted(glob.glob(os.path.join(trace_dir, "*.trace.json"))) if trace_dir else []
        if not files:
            raise ServiceError(
                404,
                f"job {job.id} was not traced "
                '(submit with config {"trace": true})',
            )
        merged = obs_distributed.merge_trace_files(files)
        merged["job"] = job.id
        for event in merged["traceEvents"]:
            if event.get("ph") == "M" and event.get("name") == "process_name":
                args = dict(event.get("args") or {})
                args["job"] = job.id
                event["args"] = args
        return merged


# -- the HTTP layer --------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """Routes ``/v1/...`` onto the bound :class:`JobService`."""

    service: JobService  # injected per server by serve_http
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        # http.server's own per-response lines, routed into the structured
        # log instead of stderr (debug level: _route emits the richer
        # `http.request` record for every request at info).
        _ACCESS_LOG.debug(
            "http.log", client=self.address_string(), message=fmt % args
        )

    def _send_json(
        self, status: int, body: Dict[str, Any], headers: Optional[Dict[str, str]] = None
    ) -> None:
        data = json.dumps(body, default=repr).encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        data = text.encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, f"body too large ({length} bytes)")
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(400, f"body is not valid JSON: {exc}")

    def _job_or_404(self, job_id: str) -> Job:
        job = self.service.registry.get(job_id)
        if job is None:
            raise ServiceError(404, f"no such job: {job_id}")
        return job

    def _route(self, method: str) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        self._status: Optional[int] = None
        started = time.perf_counter()
        disconnected = False
        try:
            if not parts or parts[0] != API_VERSION:
                raise ServiceError(
                    404, f"unknown API version (use /{API_VERSION}/...)"
                )
            self._dispatch(method, parts[1:], parse_qs(parsed.query))
        except ServiceError as exc:
            self._send_json(exc.status, exc.body, exc.headers)
        except (BrokenPipeError, ConnectionResetError):
            disconnected = True  # client went away mid-stream
        except Exception:  # noqa: BLE001 - the server must not die per request
            self._send_json(500, {"error": traceback.format_exc()})
        # The structured access log: one record per request, job-correlated
        # whenever the path addresses a job (this is the satellite replacing
        # the old silently-discarding log_message).
        job_id = parts[2] if len(parts) >= 3 and parts[1] == "jobs" else None
        _ACCESS_LOG.info(
            "http.request",
            method=method,
            path=parsed.path,
            status=self._status,
            duration_ms=round((time.perf_counter() - started) * 1000.0, 3),
            client=self.client_address[0] if self.client_address else None,
            job=job_id,
            disconnected=True if disconnected else None,
        )

    def _dispatch(self, method: str, parts: List[str], query: Dict[str, List[str]]) -> None:
        registry = self.service.registry
        if method == "GET" and parts == ["health"]:
            self._send_json(200, self.service.health())
        elif method == "GET" and parts == ["experiments"]:
            self._send_json(200, {"experiments": api.list_experiments()})
        elif method == "GET" and parts == ["metrics"]:
            if (query.get("format") or [None])[0] == "json":
                self._send_json(200, {"metrics": self.service.metrics_snapshot()})
            else:
                self._send_text(
                    200, self.service.metrics_text(), obs_expo.CONTENT_TYPE
                )
        elif method == "POST" and parts == ["jobs"]:
            status, body, headers = self.service.submit(self._read_body())
            self._send_json(status, body, headers)
        elif method == "GET" and parts == ["jobs"]:
            tenant = (query.get("tenant") or [None])[0]
            self._send_json(
                200,
                {"jobs": [j.snapshot() for j in registry.jobs(tenant=tenant)]},
            )
        elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            self._send_json(200, {"job": self._job_or_404(parts[1]).snapshot()})
        elif method == "GET" and len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "report":
            job = self._job_or_404(parts[1])
            if job.report is None:
                raise ServiceError(
                    409, f"job {job.id} has no report (state: {job.state})",
                    state=job.state,
                )
            self._send_json(200, {"job": job.id, "report": job.report})
        elif method == "GET" and len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "trace":
            self._send_json(200, self.service.job_trace(self._job_or_404(parts[1])))
        elif method == "GET" and len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "events":
            self._stream_events(self._job_or_404(parts[1]))
        elif method == "POST" and len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "cancel":
            job = self._job_or_404(parts[1])
            if not registry.cancel(job):
                raise ServiceError(
                    409, f"job {job.id} is not cancellable (state: {job.state})",
                    state=job.state,
                )
            self._send_json(200, {"job": job.snapshot()})
        else:
            raise ServiceError(404, f"no route for {method} {self.path}")

    # -- SSE ---------------------------------------------------------------------

    def _stream_events(self, job: Job) -> None:
        """Server-Sent Events: every job event as one ``data:`` frame.

        The stream replays the job's full event history, then follows it
        live and closes after the terminal-state event — a client reading
        to EOF has seen the whole lifecycle.  Quiet periods are bridged by
        SSE comment frames (``: keepalive``) every ``sse_keepalive_s``:
        clients ignore them by spec, and the write is what surfaces a
        vanished subscriber (a silent wait would otherwise hold the
        listener slot forever on an idle queued job).  The subscriber
        gauge is maintained in a try/finally, so a mid-stream disconnect
        — which raises out of the write — still releases the slot."""
        self._status = 200
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        registry = self.service.registry
        last_seq = 0

        self.service._sse_add()
        try:
            while True:
                events = registry.wait_events(
                    job, last_seq, timeout=self.service.sse_keepalive_s
                )
                for event in events:
                    last_seq = event["seq"]
                    frame = f"data: {json.dumps(event, default=repr)}\n\n"
                    self.wfile.write(frame.encode("utf-8"))
                if not events:
                    self.wfile.write(b": keepalive\n\n")
                self.wfile.flush()
                if job.state in TERMINAL_STATES and not registry.events_since(job, last_seq):
                    return
        finally:
            self.service._sse_remove()

    # -- verbs -------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")
