"""Job registry for the sweep service: states, progress, coalescing.

A *job* is one accepted submission — a selection of experiments plus a
fully-resolved :class:`repro.api.RunConfig`.  Jobs move through::

    queued -> running -> done | failed
    queued -> cancelled

``done`` means the suite ran to completion (individual experiments may
still have failed — the run report records that, and the job keeps the
suite exit code); ``failed`` means the service itself could not execute
the run.  The registry is thread-safe: the HTTP handler threads read it
while the dispatcher thread advances it, coordinated by one condition
variable so waiters (`wait`, the SSE stream) never poll a lock-free race.

Identical active submissions *coalesce*: a submission whose content
fingerprint matches a queued/running job becomes a **follower** of that
leader — it gets its own job id and lifecycle events, but the sweep runs
once and the leader's report fans out to every follower on completion.

Telemetry: every state transition is mirrored as a structured
``service.job.*`` record (:mod:`repro.obs.log`) carrying the job id, and
the registry feeds the service SLO instruments — queue-wait and
end-to-end latency histograms, and the eviction counter.  Finished jobs
are retained for reuse/coalescing but not forever: ``ttl_s`` ages
terminal jobs out and ``max_done`` caps how many are kept (oldest
evicted first), closing the unbounded-growth gap the ROADMAP called out.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics

__all__ = [
    "Job",
    "JobRegistry",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

_LOG = obs_log.get_logger("service.jobs")


@dataclass
class Job:
    """One accepted submission and everything the service knows about it."""

    id: str
    tenant: str
    experiments: List[str]
    #: the resolved RunConfig (repro.api.RunConfig) this job runs under
    config: Any
    submitted_unix: float
    state: str = QUEUED
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    #: experiments completed / total (advanced as each record arrives)
    done: int = 0
    total: int = 0
    #: suite exit code (0 all passed, 1 some experiment did not pass)
    exit_code: Optional[int] = None
    #: the validated run report, once state == done
    report: Optional[Dict[str, Any]] = None
    #: service-level failure diagnosis, once state == failed
    error: Optional[str] = None
    #: content fingerprint of (experiments, config) for coalescing/reuse
    cache_key: Optional[str] = None
    #: job id this submission coalesced onto (follower side)
    leader: Optional[str] = None
    #: job ids coalesced onto this job (leader side)
    followers: List[str] = field(default_factory=list)
    #: job id whose finished report this job was served from (reuse)
    served_from: Optional[str] = None
    #: monotonically numbered lifecycle/progress events (SSE source)
    events: List[Dict[str, Any]] = field(default_factory=list)

    def snapshot(self) -> Dict[str, Any]:
        """The JSON description served by ``GET /v1/jobs/<id>`` (no report —
        that has its own endpoint, it can be large)."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "experiments": list(self.experiments),
            "config": self.config.describe(),
            "state": self.state,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "progress": {"done": self.done, "total": self.total},
            "exit_code": self.exit_code,
            "error": self.error,
            "leader": self.leader,
            "followers": list(self.followers),
            "served_from": self.served_from,
        }


class JobRegistry:
    """Thread-safe job store shared by HTTP handlers and the dispatcher."""

    def __init__(
        self, *, ttl_s: Optional[float] = None, max_done: Optional[int] = None
    ) -> None:
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._counter = itertools.count(1)
        #: retention bounds for terminal jobs (None = keep; see evict())
        self.ttl_s = ttl_s
        self.max_done = max_done

    # -- creation ----------------------------------------------------------------

    def create(
        self,
        *,
        tenant: str,
        experiments: List[str],
        config: Any,
        cache_key: Optional[str] = None,
        leader: Optional[str] = None,
    ) -> Job:
        with self._changed:
            # Every submission pays the (cheap) retention sweep, so the
            # registry cannot grow without bound between explicit evictions.
            self._evict_locked(time.time())
            job_id = f"job-{next(self._counter)}-{os.urandom(3).hex()}"
            job = Job(
                id=job_id,
                tenant=tenant,
                experiments=list(experiments),
                config=config,
                submitted_unix=time.time(),
                total=len(experiments),
                cache_key=cache_key,
                leader=leader,
            )
            self._jobs[job_id] = job
            self._order.append(job_id)
            if leader is not None:
                leader_job = self._jobs.get(leader)
                if leader_job is not None:
                    leader_job.followers.append(job_id)
            self._event_locked(job, "state", state=QUEUED)
            self._changed.notify_all()
            return job

    # -- reads -------------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, *, tenant: Optional[str] = None) -> List[Job]:
        with self._lock:
            selected = (self._jobs[job_id] for job_id in self._order)
            return [j for j in selected if tenant is None or j.tenant == tenant]

    def active_count(self, *, tenant: Optional[str] = None) -> int:
        """Jobs currently queued or running (the admission-relevant load)."""
        return sum(
            1 for j in self.jobs(tenant=tenant) if j.state in (QUEUED, RUNNING)
        )

    def next_queued(self) -> Optional[Job]:
        """The oldest queued non-follower job (followers ride their leader)."""
        with self._lock:
            for job_id in self._order:
                job = self._jobs[job_id]
                if job.state == QUEUED and job.leader is None:
                    return job
            return None

    def find_active_by_key(self, cache_key: str) -> Optional[Job]:
        """A queued/running non-follower job with this content fingerprint."""
        with self._lock:
            for job_id in self._order:
                job = self._jobs[job_id]
                if (
                    job.cache_key == cache_key
                    and job.leader is None
                    and job.state in (QUEUED, RUNNING)
                ):
                    return job
            return None

    def find_done_by_key(self, cache_key: str) -> Optional[Job]:
        """The most recent completed job with this fingerprint and a report."""
        with self._lock:
            for job_id in reversed(self._order):
                job = self._jobs[job_id]
                if (
                    job.cache_key == cache_key
                    and job.state == DONE
                    and job.report is not None
                ):
                    return job
            return None

    # -- transitions -------------------------------------------------------------

    def mark_running(self, job: Job) -> None:
        with self._changed:
            job.state = RUNNING
            job.started_unix = time.time()
            obs_metrics.histogram("service.jobs.queue_wait_s").observe(
                max(0.0, job.started_unix - job.submitted_unix)
            )
            self._event_locked(job, "state", state=RUNNING)
            self._changed.notify_all()

    def record_experiment(
        self, job: Job, experiment_id: str, status: str, ok: bool
    ) -> None:
        """Log one completed experiment as a job event (SSE surfaces it)."""
        with self._changed:
            self._event_locked(
                job, "experiment", experiment=experiment_id, status=status, ok=ok
            )
            self._changed.notify_all()

    def record_progress(self, job: Job, done: int, total: int) -> None:
        with self._changed:
            job.done = done
            job.total = total
            self._event_locked(job, "progress", done=done, total=total)
            self._changed.notify_all()

    def finish(
        self,
        job: Job,
        *,
        report: Optional[Dict[str, Any]] = None,
        exit_code: Optional[int] = None,
        error: Optional[str] = None,
        served_from: Optional[str] = None,
    ) -> None:
        """Move ``job`` (and its followers) to ``done`` or ``failed``."""
        with self._changed:
            targets = [job] + [
                self._jobs[fid]
                for fid in job.followers
                if fid in self._jobs and self._jobs[fid].state in (QUEUED, RUNNING)
            ]
            state = FAILED if error is not None else DONE
            now = time.time()
            for target in targets:
                target.state = state
                target.finished_unix = now
                obs_metrics.histogram("service.jobs.e2e_latency_s").observe(
                    max(0.0, now - target.submitted_unix)
                )
                target.report = report
                target.exit_code = exit_code
                target.error = error
                if target is not job:
                    target.served_from = job.id
                    target.done = job.done
                    target.total = job.total
                elif served_from is not None:
                    target.served_from = served_from
                self._event_locked(target, "state", state=state)
            self._changed.notify_all()

    def cancel(self, job: Job) -> bool:
        """Cancel a queued job (running jobs are not interruptible).

        Cancelling a queued leader cascades to its queued followers — they
        were only ever going to be served by this execution."""
        with self._changed:
            if job.state != QUEUED:
                return False
            targets = [job] + [
                self._jobs[fid]
                for fid in job.followers
                if fid in self._jobs and self._jobs[fid].state == QUEUED
            ]
            now = time.time()
            for target in targets:
                target.state = CANCELLED
                target.finished_unix = now
                self._event_locked(target, "state", state=CANCELLED)
            self._changed.notify_all()
            return True

    # -- waiting -----------------------------------------------------------------

    def events_since(self, job: Job, after_seq: int) -> List[Dict[str, Any]]:
        with self._lock:
            return [e for e in job.events if e["seq"] > after_seq]

    def wait_events(
        self, job: Job, after_seq: int, timeout: float
    ) -> List[Dict[str, Any]]:
        """Events newer than ``after_seq``, blocking up to ``timeout`` for one."""
        deadline = time.monotonic() + timeout
        with self._changed:
            while True:
                fresh = [e for e in job.events if e["seq"] > after_seq]
                if fresh or job.state in TERMINAL_STATES:
                    return fresh
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._changed.wait(remaining)

    # -- retention ---------------------------------------------------------------

    def evict(self, *, now: Optional[float] = None) -> int:
        """Apply the retention bounds now; returns how many jobs were dropped.

        ``create`` already calls this on every submission — the explicit
        entry point exists for idle-time sweeps and tests."""
        with self._changed:
            return self._evict_locked(time.time() if now is None else now)

    def _evict_locked(self, now: float) -> int:
        if self.ttl_s is None and self.max_done is None:
            return 0
        terminal = [
            job
            for job_id in self._order
            if (job := self._jobs[job_id]).state in TERMINAL_STATES
        ]
        victims: List[Job] = []
        if self.ttl_s is not None:
            victims = [
                job
                for job in terminal
                if job.finished_unix is not None
                and now - job.finished_unix > self.ttl_s
            ]
        if self.max_done is not None:
            kept = [job for job in terminal if job not in victims]
            overflow = len(kept) - self.max_done
            if overflow > 0:
                victims.extend(kept[:overflow])  # _order is insertion order: oldest first
        for job in victims:
            del self._jobs[job.id]
            self._order.remove(job.id)
            obs_metrics.counter("service.jobs.evicted").inc()
            _LOG.info(
                "service.jobs.evicted",
                job=job.id,
                tenant=job.tenant,
                state=job.state,
                age_s=round(now - (job.finished_unix or job.submitted_unix), 3),
            )
        return len(victims)

    # -- internals ---------------------------------------------------------------

    def _event_locked(self, job: Job, kind: str, **details: Any) -> None:
        job.events.append(
            {
                "seq": len(job.events) + 1,
                "unix": time.time(),
                "event": kind,
                **details,
            }
        )
        # Mirror every lifecycle/progress event into the structured log —
        # `service.job.state`, `service.job.experiment`, `service.job.progress`
        # — always keyed by the job's own id (a follower logs its own id even
        # while the leader's execution drives the transition).
        _LOG.info(f"service.job.{kind}", job=job.id, tenant=job.tenant, **details)
