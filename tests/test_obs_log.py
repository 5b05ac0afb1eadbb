"""Structured JSONL logging and Prometheus exposition (repro.obs.log / .expo).

The logger is process-global, so these tests lean on the suite-wide
``_clean_observability`` fixture (conftest) that clears the sink and the
correlation id around every test.
"""

import json
import os
import threading

import pytest

from repro.obs import expo, metrics
from repro.obs import log as obs_log


def read_records(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


class TestLogger:
    def test_disabled_by_default_and_noop(self, tmp_path):
        assert not obs_log.enabled()
        obs_log.log("info", "nobody.listening", payload=1)  # must not raise
        obs_log.get_logger("x").error("still.nobody")

    def test_record_shape_and_levels(self, tmp_path):
        path = obs_log.configure(str(tmp_path / "events.jsonl"))
        logger = obs_log.get_logger("unit.test")
        logger.debug("dropped.below.threshold")
        logger.info("kept", answer=42, skipped=None)
        logger.warning("warned")
        records = read_records(path)
        assert [r["event"] for r in records] == ["kept", "warned"]
        first = records[0]
        assert first["level"] == "info"
        assert first["logger"] == "unit.test"
        assert first["pid"] == os.getpid()
        assert first["answer"] == 42
        assert "skipped" not in first  # None-valued fields are dropped
        assert isinstance(first["ts"], float)

    def test_directory_sink(self, tmp_path):
        path = obs_log.configure(str(tmp_path))
        assert path == str(tmp_path / obs_log.DEFAULT_BASENAME)
        assert obs_log.log_path() == path
        obs_log.configure(None)
        assert obs_log.log_path() is None

    def test_debug_threshold_is_configurable(self, tmp_path):
        path = obs_log.configure(str(tmp_path / "all.jsonl"), level="debug")
        obs_log.get_logger("x").debug("now.kept")
        assert [r["event"] for r in read_records(path)] == ["now.kept"]
        with pytest.raises(ValueError):
            obs_log.configure(str(tmp_path / "bad.jsonl"), level="loud")

    def test_configure_from_env_gate(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env.jsonl"
        monkeypatch.setenv("REPRO_LOG", str(target))
        assert obs_log.configure_from_env() == str(target)
        obs_log.get_logger("x").info("via.env")
        assert [r["event"] for r in read_records(str(target))] == ["via.env"]

    def test_correlation_tags_records(self, tmp_path):
        path = obs_log.configure(str(tmp_path / "jobs.jsonl"))
        obs_log.set_correlation("job-9-abc123")
        obs_log.get_logger("x").info("ambient")
        obs_log.get_logger("x").info("explicit", job="job-other")
        obs_log.get_logger("x").info("opted.out", job=None)
        obs_log.set_correlation(None)
        obs_log.get_logger("x").info("after.clear")
        records = {r["event"]: r for r in read_records(path)}
        assert records["ambient"]["job"] == "job-9-abc123"
        assert records["explicit"]["job"] == "job-other"  # explicit wins
        assert "job" not in records["opted.out"]  # job=None disclaims the ambient id
        assert "job" not in records["after.clear"]

    def test_fork_child_inherits_sink_and_correlation_not_environment(self, tmp_path):
        # A forked child reaches the parent's sink and job id through
        # memory; nothing is written to the environment on either side.
        before = dict(os.environ)
        path = obs_log.configure(str(tmp_path / "forked.jsonl"))
        obs_log.set_correlation("job-7-f0f0")
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                unchanged = dict(os.environ) == before
                obs_log.get_logger("child").info("in.child", unchanged=unchanged)
                code = 0
            finally:
                os._exit(code)
        _pid, status = os.waitpid(pid, 0)
        assert status == 0
        obs_log.get_logger("parent").info("in.parent")
        assert dict(os.environ) == before
        records = read_records(path)
        assert [r["event"] for r in records] == ["in.child", "in.parent"]
        child, parent = records
        assert child["pid"] == pid and parent["pid"] == os.getpid()
        assert child["job"] == parent["job"] == "job-7-f0f0"
        assert child["unchanged"] is True

    def test_concurrent_writers_never_interleave_lines(self, tmp_path):
        path = obs_log.configure(str(tmp_path / "threads.jsonl"))
        logger = obs_log.get_logger("stress")

        def hammer(worker):
            for i in range(200):
                logger.info("hammer", worker=worker, i=i, pad="x" * 100)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = read_records(path)  # raises if any line was torn
        assert len(records) == 800

    def test_bound_fields_ride_every_record(self, tmp_path):
        path = obs_log.configure(str(tmp_path / "bound.jsonl"))
        bound = obs_log.get_logger("svc").bind(tenant="acme")
        bound.info("one")
        bound.info("two", extra=1)
        assert [r["tenant"] for r in read_records(path)] == ["acme", "acme"]


class TestExposition:
    def test_render_and_parse_roundtrip(self):
        metrics.counter("unit.requests.total").inc(7)
        metrics.gauge("unit.queue.depth").set(3)
        histogram = metrics.histogram("unit.latency_s")
        for value in (0.1, 0.2, 0.4):
            histogram.observe(value)
        text = expo.render()
        families = expo.parse(text)
        assert families["unit_requests_total"] == {"type": "counter", "value": 7.0}
        assert families["unit_queue_depth"] == {"type": "gauge", "value": 3.0}
        summary = families["unit_latency_s"]
        assert summary["type"] == "summary"
        assert summary["count"] == 3.0
        assert summary["sum"] == pytest.approx(0.7)
        assert summary["quantiles"]["0.5"] == pytest.approx(0.2)
        assert set(summary["quantiles"]) == {"0.5", "0.9", "0.99"}

    def test_every_sample_has_a_type_line(self):
        metrics.counter("unit.a").inc()
        metrics.histogram("unit.b").observe(1.0)
        lines = expo.render().splitlines()
        names = set()
        for line in lines:
            if line.startswith("# TYPE"):
                names.add(line.split()[2])
            else:
                sample = line.split("{")[0].split()[0]
                base = sample
                for suffix in ("_sum", "_count"):
                    if sample.endswith(suffix):
                        base = sample[: -len(suffix)]
                assert base in names, line

    def test_name_sanitization(self):
        assert expo.sanitize_name("service.jobs.completed") == "service_jobs_completed"
        assert expo.sanitize_name("weird-name@2") == "weird_name_2"
        assert expo.sanitize_name("0leading").startswith("_")

    def test_non_numeric_values_are_skipped(self):
        metrics.gauge("unit.textual").set("not-a-number")
        metrics.gauge("unit.flag").set(True)  # bools are not scrapeable numbers
        metrics.counter("unit.fine").inc()
        families = expo.parse(expo.render())
        assert "unit_textual" not in families
        assert "unit_flag" not in families
        assert "unit_fine" in families

    def test_parse_rejects_malformed_exposition(self):
        with pytest.raises(expo.ExpositionError):
            expo.parse("orphan_sample 1\n")  # no TYPE line
        with pytest.raises(expo.ExpositionError):
            expo.parse("# TYPE x counter\nx notanumber\n")
        with pytest.raises(expo.ExpositionError):
            expo.parse("# TYPE x wat\nx 1\n")
        with pytest.raises(expo.ExpositionError):
            expo.parse('# TYPE x summary\nx{wrong="0.5"} 1\n')

    def test_render_accepts_explicit_snapshot(self):
        snapshot = {
            "counters": {"c.a": 2},
            "gauges": {"g.b": 1.5},
            "histograms": {
                "h.c": {"count": 1, "sum": 0.5, "p50": 0.5, "p90": 0.5, "p99": 0.5}
            },
        }
        families = expo.parse(expo.render(snapshot))
        assert set(families) == {"c_a", "g_b", "h_c"}
