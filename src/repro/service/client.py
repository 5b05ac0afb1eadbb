"""A stdlib client for the sweep service (and the CI smoke driver).

:class:`ServiceClient` wraps the ``/v1`` JSON API with plain
``urllib.request`` — submit, poll, wait, fetch reports, stream events.
Errors come back as :class:`ServiceClientError` carrying the HTTP status
and the decoded error body (so a 429's ``retry_after_s`` is one attribute
away).

The module doubles as a tiny CLI for scripting and CI smoke tests::

    python -m repro.service.client --url http://127.0.0.1:8642 health
    python -m repro.service.client --url ... submit E12 E15 --wait --out report.json
    python -m repro.service.client --url ... status job-1-abc123
    python -m repro.service.client --url ... report job-1-abc123 --out report.json
    python -m repro.service.client --url ... metrics            # Prometheus text
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["ServiceClient", "ServiceClientError"]


class ServiceClientError(Exception):
    """An error response from the service (or a transport failure)."""

    def __init__(self, status: int, body: Dict[str, Any]) -> None:
        detail = body.get("error") if isinstance(body, dict) else None
        super().__init__(f"HTTP {status}: {detail or body}")
        self.status = status
        self.body = body if isinstance(body, dict) else {"error": repr(body)}

    @property
    def retry_after_s(self) -> Optional[float]:
        value = self.body.get("retry_after_s")
        return float(value) if value is not None else None


class ServiceClient:
    """Talk to one service instance at ``base_url`` (e.g. ``http://host:port``)."""

    def __init__(
        self, base_url: str, *, tenant: Optional[str] = None, timeout: float = 30.0
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout

    # -- transport ---------------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        url = f"{self.base_url}/v1{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers, method=method)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                body = json.loads(exc.read().decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                body = {"error": str(exc)}
            raise ServiceClientError(exc.code, body) from None

    # -- API ---------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def experiments(self) -> Dict[str, str]:
        return self._request("GET", "/experiments")["experiments"]

    def metrics(self) -> Dict[str, Any]:
        """The service metrics snapshot (counters/gauges/histograms dict)."""
        return self._request("GET", "/metrics?format=json")["metrics"]

    def metrics_text(self) -> str:
        """The raw Prometheus text exposition from ``GET /v1/metrics``."""
        url = f"{self.base_url}/v1/metrics"
        request = urllib.request.Request(url, headers={"Accept": "text/plain"})
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServiceClientError(exc.code, {"error": str(exc)}) from None

    def submit(
        self,
        experiments: Optional[List[str]] = None,
        *,
        config: Optional[Dict[str, Any]] = None,
        reuse: bool = False,
    ) -> Dict[str, Any]:
        """Submit a job; returns its snapshot (``["id"]`` is the handle)."""
        payload: Dict[str, Any] = {}
        if experiments is not None:
            payload["experiments"] = list(experiments)
        if config is not None:
            payload["config"] = dict(config)
        if self.tenant is not None:
            payload["tenant"] = self.tenant
        if reuse:
            payload["reuse"] = True
        return self._request("POST", "/jobs", payload)["job"]

    def jobs(self) -> List[Dict[str, Any]]:
        query = f"?tenant={self.tenant}" if self.tenant else ""
        return self._request("GET", f"/jobs{query}")["jobs"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")["job"]

    def report(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/report")["report"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")["job"]

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 600.0,
        poll_s: float = 0.2,
        on_status: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns the final snapshot."""
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.status(job_id)
            if on_status is not None:
                on_status(snapshot)
            if snapshot["state"] in ("done", "failed", "cancelled"):
                return snapshot
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['state']!r} after {timeout}s"
                )
            time.sleep(poll_s)

    def stream_events(self, job_id: str, *, timeout: float = 600.0) -> Iterator[Dict[str, Any]]:
        """Yield the job's SSE events until the stream closes (terminal state)."""
        url = f"{self.base_url}/v1/jobs/{job_id}/events"
        request = urllib.request.Request(url, headers={"Accept": "text/event-stream"})
        with urllib.request.urlopen(request, timeout=timeout) as response:
            for raw in response:
                line = raw.decode("utf-8").strip()
                if line.startswith("data:"):
                    yield json.loads(line[len("data:"):].strip())


# -- CLI -------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="repro sweep-service client")
    parser.add_argument("--url", required=True, help="service base URL")
    parser.add_argument("--tenant", default=None, help="tenant id for submissions")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("health", help="print the health document")
    sub.add_parser("experiments", help="list known experiments")

    metrics = sub.add_parser("metrics", help="scrape /v1/metrics")
    metrics.add_argument("--json", action="store_true",
                         help="fetch the JSON snapshot instead of Prometheus text")

    submit = sub.add_parser("submit", help="submit a job")
    submit.add_argument("experiments", nargs="*", help="experiment ids (default: all)")
    submit.add_argument(
        "--config", default=None,
        help='RunConfig fields as a JSON object, e.g. \'{"parallel": 2}\'',
    )
    submit.add_argument("--reuse", action="store_true",
                        help="serve an identical finished job's report if one exists")
    submit.add_argument("--wait", action="store_true", help="block until terminal")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait deadline in seconds")
    submit.add_argument("--out", default=None,
                        help="write the run report JSON here (implies --wait)")

    status = sub.add_parser("status", help="print one job snapshot")
    status.add_argument("job_id")

    report = sub.add_parser("report", help="fetch a finished job's report")
    report.add_argument("job_id")
    report.add_argument("--out", default=None, help="write the report JSON here")

    cancel = sub.add_parser("cancel", help="cancel a queued job")
    cancel.add_argument("job_id")

    args = parser.parse_args(argv)
    client = ServiceClient(args.url, tenant=args.tenant)

    try:
        if args.command == "health":
            print(json.dumps(client.health(), indent=1))
        elif args.command == "metrics":
            if args.json:
                print(json.dumps(client.metrics(), indent=1))
            else:
                print(client.metrics_text(), end="")
        elif args.command == "experiments":
            for experiment_id, claim in client.experiments().items():
                print(f"{experiment_id:4s} {claim}")
        elif args.command == "submit":
            config = json.loads(args.config) if args.config else None
            job = client.submit(
                args.experiments or None, config=config, reuse=args.reuse
            )
            print(f"submitted {job['id']} ({job['state']})")
            if args.wait or args.out:
                job = client.wait(job["id"], timeout=args.timeout)
                print(f"{job['id']}: {job['state']} (exit_code={job['exit_code']})")
                if job["state"] == "failed":
                    print(job.get("error") or "")
                    return 1
                if job["state"] == "cancelled":
                    return 1
                if args.out:
                    payload = client.report(job["id"])
                    with open(args.out, "w", encoding="utf-8") as handle:
                        json.dump(payload, handle, indent=1)
                    print(f"report written to {args.out}")
                return int(job["exit_code"] or 0)
        elif args.command == "status":
            print(json.dumps(client.status(args.job_id), indent=1))
        elif args.command == "report":
            payload = client.report(args.job_id)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, indent=1)
                print(f"report written to {args.out}")
            else:
                print(json.dumps(payload, indent=1))
        elif args.command == "cancel":
            job = client.cancel(args.job_id)
            print(f"{job['id']}: {job['state']}")
    except ServiceClientError as exc:
        print(f"service error: {exc}")
        return 2
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
