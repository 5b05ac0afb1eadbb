"""Sweep-as-a-service: job lifecycle, admission, reuse layers, E2E parity.

The service runs in-process (``serve_http`` on port 0) and is driven
through :class:`repro.service.ServiceClient` — the same stdlib HTTP path
CI's smoke uses — so these tests cover the wire format, not just the
Python objects.  The acceptance pair rides at the bottom: a sweep
submitted through the service must match the same RunConfig run through
the CLI byte-for-byte (modulo the usual volatile blocks), and an
immediate warm resubmission must be answered from the shared persistent
store rather than recomputed.
"""

import json
import os
import time

import pytest

from repro import api
from repro.obs import metrics as obs_metrics
from repro.obs.report import validate_report
from repro.service import (
    AdmissionPolicy,
    JobService,
    ServiceClient,
    ServiceClientError,
)

#: Same volatility contract as tests/test_perf_persistent.py — timing,
#: process identity, and the perf counters.
#: ``summary.config`` stays *unscrubbed* on purpose: CLI/service parity
#: must include the resolved RunConfig.
VOLATILE_REPORT_KEYS = {"created_unix", "argv"}
VOLATILE_SUMMARY_KEYS = {
    "wall_time_s", "cache", "backend", "trace", "phases", "analysis",
    "resilience",
}
VOLATILE_RECORD_KEYS = {
    "elapsed_s", "peak_rss_bytes", "trace_file", "counters", "histograms",
}


def scrub(payload):
    payload = {k: v for k, v in payload.items() if k not in VOLATILE_REPORT_KEYS}
    payload["summary"] = {
        k: v for k, v in payload["summary"].items()
        if k not in VOLATILE_SUMMARY_KEYS
    }
    experiments = []
    for record in payload["experiments"]:
        record = {k: v for k, v in record.items() if k not in VOLATILE_RECORD_KEYS}
        record["attempt_history"] = [
            {k: v for k, v in entry.items() if k != "elapsed_s"}
            for entry in record.get("attempt_history", [])
        ]
        experiments.append(record)
    payload["experiments"] = experiments
    return json.dumps(payload, sort_keys=True)


def serve(service):
    service.start()
    host, port = service.serve_http("127.0.0.1", 0)
    return ServiceClient(f"http://{host}:{port}")


@pytest.fixture
def live():
    """A dispatching service plus a client bound to it."""
    service = JobService()
    client = serve(service)
    yield service, client
    service.stop()


@pytest.fixture
def parked():
    """A service whose dispatcher never runs — jobs stay queued, so
    admission, coalescing and cancellation are deterministic."""
    service = JobService(auto_dispatch=False)
    client = serve(service)
    yield service, client
    service.stop()


class TestLifecycle:
    def test_health_and_experiments(self, live):
        _, client = live
        health = client.health()
        assert health["status"] == "ok" and health["version"] == "v1"
        assert health["pool"] == {"workers": 0, "alive": 0}
        assert client.experiments() == api.list_experiments()

    def test_submit_to_done_with_progress_and_report(self, live):
        _, client = live
        job = client.submit(["E1", "E4"])
        assert job["state"] in ("queued", "running")
        assert job["experiments"] == ["E1", "E4"]
        assert job["config"]["progress"] is False  # forced server-side

        states = []
        final = client.wait(
            job["id"], timeout=120, on_status=lambda s: states.append(s["state"])
        )
        assert final["state"] == "done" and final["exit_code"] == 0
        assert final["progress"] == {"done": 2, "total": 2}
        assert final["started_unix"] <= final["finished_unix"]

        report = client.report(job["id"])
        validate_report(report)
        assert report["summary"]["passed"] == 2
        # The job keeps the submitted config; the report records what ran,
        # with the auto worker count resolved: a CPU per experiment.
        assert final["config"]["parallel"] is None
        workers = min(len(os.sched_getaffinity(0)), 2)
        assert report["summary"]["config"] == {**final["config"], "parallel": workers}
        assert report["argv"] == ["service", "E1", "E4"]
        # Jobs report where their time went, like every suite run.
        phases = report["summary"]["phases"]
        assert list(phases) == ["E1", "E4"]
        assert phases["E4"]["scheduler.step"]["calls"] == next(
            r["counters"]["scheduler.steps"] for r in report["experiments"]
            if r["experiment"] == "E4"
        )

    def test_job_config_does_not_leak_into_the_next_job(
        self, live, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        service, client = live
        service.log_dir = str(tmp_path)  # job A's traces land here
        first = client.submit(["E1"], config={"cache": "off", "trace": True})
        assert client.wait(first["id"], timeout=120)["state"] == "done"
        second = client.submit(["E1"])
        assert client.wait(second["id"], timeout=120)["state"] == "done"
        config = client.report(second["id"])["summary"]["config"]
        assert config["cache"] == "on"
        assert config["trace"] is False

    def test_event_stream_replays_whole_lifecycle(self, live):
        _, client = live
        job = client.submit(["E1"])
        client.wait(job["id"], timeout=120)
        events = list(client.stream_events(job["id"], timeout=30))
        kinds = [(e["event"], e.get("state")) for e in events]
        assert kinds[0] == ("state", "queued")
        assert ("state", "running") in kinds
        assert kinds[-1] == ("state", "done")
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        experiment_events = [e for e in events if e["event"] == "experiment"]
        assert [(e["experiment"], e["ok"]) for e in experiment_events] == [("E1", True)]

    def test_jobs_listing_filters_by_tenant(self, parked):
        service, client = parked
        ours = ServiceClient(client.base_url, tenant="us")
        theirs = ServiceClient(client.base_url, tenant="them")
        mine = ours.submit(["E1"])
        theirs.submit(["E4"])
        assert [j["id"] for j in ours.jobs()] == [mine["id"]]
        assert len(client.jobs()) == 2


class TestErrorPaths:
    def test_unknown_experiment_rejected(self, live):
        _, client = live
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(["E1", "E99", "E98"])
        assert excinfo.value.status == 400
        assert "unknown experiment(s): E98, E99" in str(excinfo.value)
        assert "E1" in excinfo.value.body["known"]

    def test_malformed_config_rejected(self, live):
        _, client = live
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(["E1"], config={"cache": "sideways"})
        assert excinfo.value.status == 400
        assert "invalid config" in str(excinfo.value)
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(["E1"], config={"warp_factor": 9})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", "/jobs", {"config": "not-an-object"})
        assert excinfo.value.status == 400

    def test_removed_fork_backend_rejected(self, live):
        _, client = live
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(["E4"], config={"backend": "fork:2"})
        assert excinfo.value.status == 400
        assert "unknown backend 'fork' (known: pool, serial, socket" in str(excinfo.value)

    def test_removed_profile_fields_rejected(self, live):
        _, client = live
        for field in ("profile", "profile_dir"):
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(["E1"], config={field: True})
            assert excinfo.value.status == 400
            assert f"unknown config field(s) '{field}'" in str(excinfo.value)

    def test_unknown_submission_field_rejected(self, live):
        _, client = live
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", "/jobs", {"experiment": ["E1"]})
        assert excinfo.value.status == 400
        assert "unknown submission field" in str(excinfo.value)

    def test_missing_job_is_404(self, live):
        _, client = live
        for probe in (client.status, client.report, client.cancel):
            with pytest.raises(ServiceClientError) as excinfo:
                probe("job-999-cafe00")
            assert excinfo.value.status == 404

    def test_report_before_done_is_409(self, parked):
        _, client = parked
        job = client.submit(["E1"])
        with pytest.raises(ServiceClientError) as excinfo:
            client.report(job["id"])
        assert excinfo.value.status == 409
        assert excinfo.value.body["state"] == "queued"

    def test_crashing_experiment_degrades_to_failure_record(self, live, monkeypatch):
        from repro.experiments import common

        monkeypatch.setitem(
            common.ALL_EXPERIMENTS, "EX-CRASH",
            ("tests.faultyexp.crashing", "always raises"),
        )
        _, client = live
        job = client.submit(["EX-CRASH", "E1"])
        final = client.wait(job["id"], timeout=120)
        # The *suite* completed: a crashing experiment is a result, not a
        # service failure — the report records it and the exit code says so.
        assert final["state"] == "done" and final["exit_code"] == 1
        report = client.report(job["id"])
        assert [r["status"] for r in report["experiments"]] == ["error", "pass"]

    def test_service_level_failure_marks_job_failed(self, parked, monkeypatch):
        service, client = parked
        job_id = client.submit(["E1"])["id"]

        def explode(*_args, **_kwargs):
            raise RuntimeError("the floor is lava")

        monkeypatch.setattr(api, "run_suite", explode)
        job = service.registry.get(job_id)
        service.registry.mark_running(job)
        service.execute(job)
        final = client.status(job_id)
        assert final["state"] == "failed"
        assert "the floor is lava" in final["error"]
        with pytest.raises(ServiceClientError) as excinfo:
            client.report(job_id)
        assert excinfo.value.status == 409
        assert obs_metrics.counter("service.jobs.failed").value == 1


class TestAdmission:
    def test_tenant_quota_rejects_with_retry_after(self):
        service = JobService(
            auto_dispatch=False,
            policy=AdmissionPolicy(max_active_per_tenant=1, retry_after_s=3.0),
        )
        client = serve(service)
        try:
            crowded = ServiceClient(client.base_url, tenant="crowded")
            crowded.submit(["E1"])
            with pytest.raises(ServiceClientError) as excinfo:
                crowded.submit(["E4"])
            assert excinfo.value.status == 429
            assert excinfo.value.body["reason"] == "tenant_quota"
            assert excinfo.value.retry_after_s == 3.0
            # Another tenant is not starved by the noisy one.
            other = ServiceClient(client.base_url, tenant="calm")
            assert other.submit(["E4"])["state"] == "queued"
        finally:
            service.stop()

    def test_global_bound_rejects_regardless_of_tenant(self):
        service = JobService(
            auto_dispatch=False, policy=AdmissionPolicy(max_active=1)
        )
        client = serve(service)
        try:
            ServiceClient(client.base_url, tenant="a").submit(["E1"])
            with pytest.raises(ServiceClientError) as excinfo:
                ServiceClient(client.base_url, tenant="b").submit(["E4"])
            assert excinfo.value.status == 429
            assert excinfo.value.body["reason"] == "queue_full"
        finally:
            service.stop()


class TestReuseLayers:
    def test_identical_active_submissions_coalesce(self, parked):
        service, client = parked
        first = client.submit(["E1", "E4"])
        second = client.submit(["E1", "E4"])
        different = client.submit(["E4"])
        assert second["leader"] == first["id"]
        assert different["leader"] is None

        leader = service.registry.get(first["id"])
        service.registry.mark_running(leader)
        service.execute(leader)

        done_first = client.status(first["id"])
        done_second = client.status(second["id"])
        assert done_first["state"] == done_second["state"] == "done"
        assert done_second["served_from"] == first["id"]
        assert done_second["progress"] == done_first["progress"]
        assert client.report(second["id"]) == client.report(first["id"])
        # One execution for the pair: only the different job remains queued.
        assert obs_metrics.counter("service.jobs.started").value == 1

    def test_cancelling_a_leader_cascades_to_queued_followers(self, parked):
        _, client = parked
        first = client.submit(["E1"])
        second = client.submit(["E1"])
        cancelled = client.cancel(first["id"])
        assert cancelled["state"] == "cancelled"
        assert client.status(second["id"])["state"] == "cancelled"
        with pytest.raises(ServiceClientError) as excinfo:
            client.cancel(first["id"])  # only queued jobs are cancellable
        assert excinfo.value.status == 409

    def test_reuse_serves_a_finished_identical_job(self, live):
        _, client = live
        first = client.submit(["E1"])
        client.wait(first["id"], timeout=120)
        started = obs_metrics.counter("service.jobs.started").value

        again = client.submit(["E1"], reuse=True)
        assert again["state"] == "done"
        assert again["served_from"] == first["id"]
        assert client.report(again["id"]) == client.report(first["id"])
        assert obs_metrics.counter("service.jobs.started").value == started

    def test_reuse_without_a_finished_match_runs_normally(self, live):
        _, client = live
        job = client.submit(["E4"], reuse=True)
        assert job["served_from"] is None
        assert client.wait(job["id"], timeout=120)["state"] == "done"


class TestWarmPool:
    def test_dead_workers_are_respawned_between_jobs(self):
        service = JobService(pool=1, auto_dispatch=False)
        service.start()
        try:
            assert service.pool_alive() == 1
            old_spec = service.pool_spec()
            service._pool[0].process.kill()
            deadline = time.monotonic() + 10
            while service._pool[0].alive and time.monotonic() < deadline:
                time.sleep(0.05)
            assert service.pool_alive() == 0
            assert service.ensure_workers() == 1
            assert service.pool_alive() == 1
            # The respawn bound a fresh port: execution-time resolution is
            # what keeps jobs off the dead address.
            assert service.pool_spec() != old_spec
            assert obs_metrics.counter("service.pool.respawns").value == 1
        finally:
            service.stop()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/fd")
    def test_respawned_worker_holds_no_http_listening_socket(self):
        # Workers are forked from the service process; one respawned while
        # the HTTP API serves must not keep the listening socket open.
        service = JobService(pool=1, auto_dispatch=False)
        serve(service)
        try:
            listening = os.fstat(service._httpd.socket.fileno()).st_ino
            service._pool[0].process.kill()
            service._pool[0].process.wait()
            assert service.ensure_workers() == 1
            fd_dir = f"/proc/{service._pool[0].process.pid}/fd"
            held = {os.readlink(os.path.join(fd_dir, fd)) for fd in os.listdir(fd_dir)}
            assert held and f"socket:[{listening}]" not in held
        finally:
            service.stop()

    def test_worker_death_mid_job_degrades_gracefully(self):
        service = JobService(pool=1)
        client = serve(service)
        try:
            job = client.submit(["E15"], config={"cache": "off"})
            deadline = time.monotonic() + 60
            while (
                client.status(job["id"])["state"] == "queued"
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            service._pool[0].process.kill()  # mid-job: sweeps fall back
            final = client.wait(job["id"], timeout=300)
            assert final["state"] == "done" and final["exit_code"] == 0
            validate_report(client.report(job["id"]))
            # The next job finds a respawned worker, not a dead socket.
            follow_up = client.submit(["E1"])
            assert client.wait(follow_up["id"], timeout=120)["state"] == "done"
            assert service.pool_alive() == 1
        finally:
            service.stop()


class TestAcceptance:
    """The issue's E2E criteria, in-process over real HTTP."""

    def test_service_report_matches_cli_for_same_runconfig(self, tmp_path, live):
        from repro.experiments import runner

        _, client = live
        store = str(tmp_path / "store")
        flags = ["--cache", "on", "--cache-dir", store]
        # CLI vs service: both runs resolve the *same* RunConfig.
        out = tmp_path / "cli.json"
        assert runner.main(["E15", *flags, "--metrics-out", str(out)]) == 0
        cli_report = json.loads(out.read_text())

        job = client.submit(["E15"], config={"cache": "on", "cache_dir": store})
        assert client.wait(job["id"], timeout=300)["state"] == "done"
        service_report = client.report(job["id"])

        assert scrub(service_report) == scrub(cli_report)
        assert service_report["summary"]["config"] == cli_report["summary"]["config"]

    def test_resubmission_report_is_byte_identical_to_the_first(self, tmp_path):
        service = JobService(cache_dir=str(tmp_path / "store"))
        client = serve(service)
        try:
            config = {"cache": "on"}
            first = client.submit(["E12"], config=config)
            assert client.wait(first["id"], timeout=300)["state"] == "done"
            first_report = client.report(first["id"])

            again = client.submit(["E12"], config=config)
            # Re-run, not coalesced or replayed.
            assert again["leader"] is None and again["served_from"] is None
            assert client.wait(again["id"], timeout=300)["state"] == "done"
            again_report = client.report(again["id"])
            assert scrub(again_report) == scrub(first_report)
            # The service's store directory is named in the report, and no
            # job reads or writes it.
            for report in (first_report, again_report):
                cache = report["summary"]["cache"]
                assert cache["persistent"]["dir"] == str(tmp_path / "store")
                assert cache["persistent"]["entries"] == 0
        finally:
            service.stop()
