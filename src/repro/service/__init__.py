"""Sweep-as-a-service: a long-lived job service over :mod:`repro.api`.

Submit experiment/sweep runs over a versioned JSON HTTP API, get job ids
back, stream progress, fetch validated run reports — with admission
control (bounded queue, per-tenant quotas), a warm worker pool behind the
sweeps, coalescing of identical in-flight submissions and reuse of a
completed identical job's report.  See ``docs/service.md``.

Start a server::

    python -m repro.service --port 8642 --pool 2 --cache-dir .cache/repro

Talk to it::

    python -m repro.service.client --url http://127.0.0.1:8642 submit E15 --wait
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.service.jobs import Job, JobRegistry
from repro.service.server import API_VERSION, JobService, ServiceError


def __getattr__(name):
    # Lazy so `python -m repro.service.client` does not find the module
    # pre-imported by its own package (runpy would warn).
    if name in ("ServiceClient", "ServiceClientError"):
        from repro.service import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "API_VERSION",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "Job",
    "JobRegistry",
    "JobService",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
]
