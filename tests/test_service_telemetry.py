"""Service telemetry: structured logs, /v1/metrics, job↔log correlation.

Everything here drives a real in-process service over HTTP (the
``serve``/fixture idiom of tests/test_service.py) and asserts the
service's observability surface: the Prometheus exposition endpoint, the
structured JSONL access/lifecycle log, correlation ids riding into the
pool workers' log records, registry TTL/eviction, the SSE subscriber
gauge surviving mid-stream disconnects, and ``/v1/health`` gauges across
a pool respawn.
"""

import json
import os
import socket
import time

import pytest

from repro.obs import expo
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.service import JobService, ServiceClient, ServiceClientError, ServiceError
from repro.service.jobs import JobRegistry


def serve(service):
    service.start()
    host, port = service.serve_http("127.0.0.1", 0)
    return ServiceClient(f"http://{host}:{port}")


@pytest.fixture
def live():
    service = JobService()
    client = serve(service)
    yield service, client
    service.stop()


def read_records(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


class TestMetricsEndpoint:
    def test_exposition_parses_with_job_counters(self, live):
        _, client = live
        job = client.submit(["E1"])
        assert client.wait(job["id"], timeout=120)["state"] == "done"
        text = client.metrics_text()
        families = expo.parse(text)  # raises on malformed exposition
        assert families["service_jobs_completed"]["value"] >= 1
        assert families["service_admission_admitted"]["value"] >= 1
        # The SLO histograms ship as summaries with quantiles.
        for name in ("service_jobs_queue_wait_s", "service_jobs_e2e_latency_s"):
            assert families[name]["type"] == "summary"
            assert families[name]["count"] >= 1
            assert set(families[name]["quantiles"]) == {"0.5", "0.9", "0.99"}

    def test_tenants_add_no_counter_names(self):
        # Admitted and rejected submissions from many tenants bump the two
        # totals only; GET /v1/jobs?tenant= is the per-tenant view.
        service = JobService(auto_dispatch=False)

        def submit_as(tenants):
            for tenant in tenants:
                try:
                    service.submit({"experiments": ["E1"], "tenant": tenant})
                except ServiceError as exc:
                    assert exc.status == 429

        def counter_names():
            return set(obs_metrics.snapshot(include_zero=True)["counters"])

        submit_as([f"warm-{i}" for i in range(20)])
        before = counter_names()
        assert {"service.admission.admitted", "service.admission.rejected"} <= before
        submit_as([f"tenant-{i}" for i in range(200)] + ["a-b", "a_b"])
        assert counter_names() == before
        counters = obs_metrics.snapshot()["counters"]
        assert counters["service.admission.admitted"] == 16
        assert counters["service.admission.rejected"] == 206
        expo.parse(expo.render())  # one family per name

    def test_scrape_refreshes_point_in_time_gauges(self, live):
        service, client = live
        families = expo.parse(client.metrics_text())
        assert families["service_jobs_queue_depth"]["value"] == 0
        assert families["service_pool_workers"]["value"] == 0
        assert families["service_sse_subscribers"]["value"] == 0
        assert families["service_uptime_s"]["value"] >= 0

    def test_json_format_matches_registry_snapshot_shape(self, live):
        _, client = live
        snapshot = client.metrics()
        assert set(snapshot) >= {"counters", "gauges", "histograms"}
        assert "service.jobs.queue_depth" in snapshot["gauges"]


class TestStructuredLog:
    def test_requests_and_lifecycle_flow_into_jsonl(self, live, tmp_path):
        service, client = live
        path = obs_log.configure(str(tmp_path / "service.jsonl"))
        client.health()
        with pytest.raises(ServiceClientError):
            client.status("job-nope")
        job = client.submit(["E1"])
        assert client.wait(job["id"], timeout=120)["state"] == "done"
        obs_log.configure(None)

        records = read_records(path)
        events = [r["event"] for r in records]
        # The old log_message black hole is gone: every request is a record.
        http = [r for r in records if r["event"] == "http.request"]
        assert {(r["method"], r["path"].split("?")[0]) for r in http} >= {
            ("GET", "/v1/health"),
            ("POST", "/v1/jobs"),
        }
        assert all("status" in r and "duration_ms" in r for r in http)
        missed = [r for r in http if r["path"] == "/v1/jobs/job-nope"]
        assert missed and missed[0]["status"] == 404
        # Job-addressed requests are correlation-tagged; /v1/health is not.
        tagged = [r for r in http if r["path"].startswith(f"/v1/jobs/{job['id']}")]
        assert tagged and all(r["job"] == job["id"] for r in tagged)
        health = [r for r in http if r["path"] == "/v1/health"]
        assert health and all("job" not in r for r in health)
        # Admission and the full lifecycle appear, each carrying the job id.
        assert "service.admission.admitted" in events
        lifecycle = [r for r in records if r["event"].startswith("service.job")]
        assert {r["event"] for r in lifecycle} >= {
            "service.job.state", "service.job.dispatch", "service.job.experiment",
        }
        assert all(r["job"] == job["id"] for r in lifecycle)

    def test_rejection_is_logged_with_reason(self, tmp_path):
        from repro.service import AdmissionPolicy

        service = JobService(
            auto_dispatch=False,
            policy=AdmissionPolicy(max_active=1, retry_after_s=0.5),
        )
        client = serve(service)
        try:
            path = obs_log.configure(str(tmp_path / "admission.jsonl"))
            client.submit(["E1"])
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(["E4"])
            assert excinfo.value.status == 429
            obs_log.configure(None)
            rejected = [
                r for r in read_records(path)
                if r["event"] == "service.admission.rejected"
            ]
            assert rejected and rejected[0]["reason"] and rejected[0]["tenant"]
            assert (
                obs_metrics.counter("service.admission.rejected").value == 1
            )
        finally:
            service.stop()


class TestEndToEndCorrelation:
    """The issue's acceptance criterion, against a live 2-worker pool."""

    def test_pool_job_yields_correlated_log_and_metrics(self, tmp_path):
        # The sink is configured before the pool forks (as __main__ does),
        # so the workers reopen it by path and append to the same file.
        log_path = obs_log.configure(str(tmp_path / "service.jsonl"))
        service = JobService(pool=2, log_dir=str(tmp_path))
        client = serve(service)
        try:
            job = client.submit(["E15"])
            assert client.wait(job["id"], timeout=300)["state"] == "done"

            # (a) the exposition parses and shows nonzero completions.
            families = expo.parse(client.metrics_text())
            assert families["service_jobs_completed"]["value"] >= 1

            # Every job-scoped log record carries the correlation id —
            # including worker.chunk records appended by the pool workers
            # (they reopen the caller's sink, and get the id via the ctx).
            obs_log.configure(None)
            records = read_records(log_path)
            job_scoped = [
                r for r in records
                if r["event"].startswith(("service.job", "worker.chunk"))
            ]
            assert job_scoped
            assert all(r["job"] == job["id"] for r in job_scoped)
            assert any(r["event"] == "worker.chunk" for r in records)
        finally:
            obs_log.configure(None)
            service.stop()


class TestHealthAcrossRespawn:
    def test_health_gauges_track_a_pool_respawn(self):
        service = JobService(pool=1, auto_dispatch=False)
        client = serve(service)
        try:
            assert client.health()["pool"] == {"workers": 1, "alive": 1}
            service._pool[0].process.kill()
            deadline = time.monotonic() + 10
            while service._pool[0].alive and time.monotonic() < deadline:
                time.sleep(0.05)
            assert client.health()["pool"] == {"workers": 1, "alive": 0}
            families = expo.parse(client.metrics_text())
            assert families["service_pool_alive"]["value"] == 0
            assert "service_pool_respawns" not in families
            assert service.ensure_workers() == 1
            assert client.health()["pool"] == {"workers": 1, "alive": 1}
            families = expo.parse(client.metrics_text())
            assert families["service_pool_alive"]["value"] == 1
            assert families["service_pool_respawns"]["value"] == 1
        finally:
            service.stop()


class TestSSECleanup:
    def test_mid_stream_disconnect_releases_the_subscriber_slot(self):
        # Parked service: the job stays queued and emits no events, so only
        # the keepalive probe can notice the vanished client.
        service = JobService(auto_dispatch=False, sse_keepalive_s=0.1)
        client = serve(service)
        try:
            job = client.submit(["E1"])
            host, port = service._httpd.server_address[:2]
            raw = socket.create_connection((host, port), timeout=10)
            raw.sendall(
                f"GET /v1/jobs/{job['id']}/events HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\nAccept: text/event-stream\r\n\r\n".encode()
            )
            raw.recv(1024)  # the stream is live (headers + replay frame)
            deadline = time.monotonic() + 10
            while service.sse_subscribers() != 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert service.sse_subscribers() == 1
            assert obs_metrics.gauge("service.sse.subscribers").value == 1
            raw.close()  # mid-stream disconnect, job still queued
            deadline = time.monotonic() + 10
            while service.sse_subscribers() != 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert service.sse_subscribers() == 0
            assert obs_metrics.gauge("service.sse.subscribers").value == 0
        finally:
            service.stop()

    def test_normal_stream_completion_releases_the_slot_too(self, live):
        service, client = live
        job = client.submit(["E1"])
        client.wait(job["id"], timeout=120)
        events = list(client.stream_events(job["id"], timeout=30))
        assert events and events[-1]["state"] == "done"
        assert service.sse_subscribers() == 0


class TestEviction:
    def _finished_registry(self, count):
        registry = JobRegistry(max_done=None)
        for _ in range(count):
            job = registry.create(tenant="t", experiments=["E1"], config=FakeConfig())
            registry.mark_running(job)
            registry.finish(job, report={"ok": True}, exit_code=0)
        return registry

    def test_max_done_keeps_newest_terminal_jobs(self):
        registry = self._finished_registry(3)
        ids = list(registry._order)
        registry.max_done = 2
        assert registry.evict() == 1
        assert [j.id for j in registry.jobs()] == ids[1:]  # oldest went first
        assert obs_metrics.counter("service.jobs.evicted").value == 1

    def test_ttl_evicts_only_aged_out_jobs(self):
        registry = self._finished_registry(2)
        newest = registry.jobs()[-1]
        newest.finished_unix = time.time() + 100  # artificially fresh
        registry.ttl_s = 0.0
        assert registry.evict() == 1
        assert [j.id for j in registry.jobs()] == [newest.id]

    def test_active_jobs_are_never_evicted(self):
        registry = JobRegistry(ttl_s=0.0, max_done=0)
        active = registry.create(tenant="t", experiments=["E1"], config=FakeConfig())
        registry.mark_running(active)
        assert registry.evict() == 0
        assert registry.get(active.id) is active

    def test_submissions_trigger_the_sweep_and_log_the_event(self, tmp_path):
        path = obs_log.configure(str(tmp_path / "evict.jsonl"))
        registry = JobRegistry(max_done=0)
        first = registry.create(tenant="t", experiments=["E1"], config=FakeConfig())
        registry.mark_running(first)
        registry.finish(first, report={}, exit_code=0)
        registry.create(tenant="t", experiments=["E1"], config=FakeConfig())
        obs_log.configure(None)
        assert registry.get(first.id) is None  # create() swept the finished job
        evicted = [
            r for r in read_records(path) if r["event"] == "service.jobs.evicted"
        ]
        assert evicted and evicted[0]["job"] == first.id
        assert evicted[0]["state"] == "done"

    def test_service_wires_retention_flags_through(self):
        service = JobService(job_ttl_s=7.0, max_done=3)
        assert service.registry.ttl_s == 7.0
        assert service.registry.max_done == 3


class FakeConfig:
    def describe(self):
        return {"fake": True}
