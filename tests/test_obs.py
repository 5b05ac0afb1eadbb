"""Unit tests for the observability substrate (:mod:`repro.obs`).

Covers in-place registry reset (test isolation is provided by the
suite-wide autouse fixture in ``tests/conftest.py``), the run-report schema
round-trip, and the benchmark trajectory merger.
"""

import importlib.util
import json
import pathlib
from types import SimpleNamespace

import pytest

from repro.obs import metrics
from repro.obs.procinfo import peak_rss_bytes
from repro.obs.report import (
    REPORT_SCHEMA,
    ReportSchemaError,
    build_report,
    format_record,
    format_suite_summary,
    format_summary_table,
    outcome_record,
    validate_report,
)


class TestMetrics:
    def test_counter_binding_survives_reset(self):
        bound = metrics.counter("test.bound")
        bound.inc(3)
        metrics.reset()
        assert bound.value == 0
        assert metrics.counter("test.bound") is bound  # identity preserved
        bound.inc()
        assert metrics.snapshot()["counters"]["test.bound"] == 1

    def test_snapshot_omits_untouched_instruments(self):
        metrics.counter("test.zero")
        metrics.counter("test.hot").inc(5)
        snap = metrics.snapshot()
        assert "test.zero" not in snap["counters"]
        assert snap["counters"]["test.hot"] == 5
        full = metrics.snapshot(include_zero=True)
        assert full["counters"]["test.zero"] == 0

    def test_gauge_and_histogram(self):
        metrics.gauge("test.g").set(7)
        hist = metrics.histogram("test.h")
        for value in (3, 1, 2):
            hist.observe(value)
        snap = metrics.snapshot()
        assert snap["gauges"]["test.g"] == 7
        stats = snap["histograms"]["test.h"]
        assert stats == {
            "count": 3,
            "sum": 6,
            "min": 1,
            "max": 3,
            "p50": 2,
            "p90": 3,
            "p99": 3,
            "mean": 2.0,
            "samples": [3, 1, 2],
        }

    def test_histogram_percentiles_nearest_rank(self):
        hist = metrics.histogram("test.pct")
        for value in range(1, 11):  # 1..10
            hist.observe(value)
        stats = hist.as_dict()
        assert stats["p50"] == 5  # ceil(0.5 * 10) = rank 5
        assert stats["p90"] == 9  # ceil(0.9 * 10) = rank 9
        assert stats["p99"] == 10  # ceil(0.99 * 10) = rank 10
        assert stats["mean"] == pytest.approx(5.5)
        assert stats["max"] == 10
        single = metrics.histogram("test.pct.single")
        single.observe(41)
        stats = single.as_dict()
        assert stats["p50"] == 41 and stats["p90"] == 41
        assert stats["p99"] == 41 and stats["mean"] == 41
        empty = metrics.histogram("test.pct.empty")
        stats = empty.as_dict()
        assert stats["p50"] is None and stats["p90"] is None
        assert stats["p99"] is None and stats["mean"] is None

    def test_histogram_sample_cap(self):
        hist = metrics.histogram("test.capped")
        for value in range(200):
            hist.observe(value)
        assert hist.count == 200
        assert len(hist.samples) == metrics.HISTOGRAM_SAMPLE_CAP
        assert hist.samples == list(range(metrics.HISTOGRAM_SAMPLE_CAP))

    def test_subtract_counters(self):
        after = {"a": 5, "b": 2, "c": 1}
        before = {"a": 3, "b": 2}
        assert metrics.subtract_counters(after, before) == {"a": 2, "c": 1}

    def test_timer_binding_survives_reset_and_pickles_by_name(self):
        import pickle

        bound = metrics.timer("test.phase")
        bound.record(500)
        bound.record(250, calls=3)
        assert (bound.calls, bound.ns) == (4, 750)
        metrics.reset()
        assert (bound.calls, bound.ns) == (0, 0)
        assert metrics.timer("test.phase") is bound
        assert pickle.loads(pickle.dumps(bound)) is bound

    def test_snapshot_keeps_timers_apart_from_counters(self):
        metrics.timer("test.idle")
        metrics.timer("test.busy").record(1000, calls=2)
        snap = metrics.snapshot()
        assert snap["timers"] == {"test.busy": {"calls": 2, "ns": 1000}}
        assert "test.busy" not in snap["counters"]
        assert metrics.snapshot(include_zero=True)["timers"]["test.idle"] == {
            "calls": 0, "ns": 0,
        }

    def test_merge_snapshot_adds_timers_and_subtract_timers_diffs(self):
        metrics.timer("test.merged").record(100)
        metrics.merge_snapshot({"timers": {"test.merged": {"calls": 2, "ns": 50}}})
        assert metrics.snapshot()["timers"]["test.merged"] == {"calls": 3, "ns": 150}
        after = {"a": {"calls": 5, "ns": 900}, "b": {"calls": 1, "ns": 10}}
        before = {"a": {"calls": 2, "ns": 300}, "b": {"calls": 1, "ns": 10}}
        assert metrics.subtract_timers(after, before) == {"a": {"calls": 3, "ns": 600}}

    # The two tests below verify the suite-wide autouse reset fixture: the
    # first leaks a counter bump on purpose, the second (running later in
    # file order) must start from a clean registry regardless.
    def test_registry_isolation_leak(self):
        assert metrics.snapshot().get("counters", {}).get("test.leak") is None
        metrics.counter("test.leak").inc(99)

    def test_registry_isolation_clean_slate(self):
        assert "test.leak" not in metrics.snapshot()["counters"]


class TestProcinfo:
    def test_peak_rss_is_positive_on_posix(self):
        peak = peak_rss_bytes()
        assert peak is None or peak > 1024 * 1024  # >1MB for any live python


def _outcome(**overrides):
    base = dict(
        experiment="E1",
        status="pass",
        ok=True,
        elapsed=0.25,
        attempts=1,
        seed=None,
        report=SimpleNamespace(table="col a  col b\n1      2"),
        error=None,
        metrics={
            "counters": {"scheduler.steps": 42, "measure.compose.calls": 7},
            "gauges": {},
            "histograms": {
                "faults.plan.seed": {
                    "count": 1, "sum": 9, "min": 9, "max": 9,
                    "p50": 9, "p90": 9, "samples": [9],
                }
            },
        },
        peak_rss_bytes=48 * 1024 * 1024,
    )
    base.update(overrides)
    return SimpleNamespace(**base)


class TestReportSchema:
    def test_round_trip_and_validation(self):
        records = [
            outcome_record(_outcome(), "claim one", default_seed=123),
            outcome_record(
                _outcome(
                    experiment="E2",
                    status="error",
                    ok=False,
                    report=None,
                    error="Traceback: boom",
                    seed=5,
                ),
                "claim two",
                default_seed=123,
            ),
        ]
        payload = build_report(records, argv=["E1", "E2"], fast=True, wall_time_s=1.5)
        restored = json.loads(json.dumps(payload))
        validate_report(restored)  # raises on violation
        assert restored["summary"] == {
            "total": 2,
            "passed": 1,
            "failures": [{"experiment": "E2", "status": "error"}],
            "wall_time_s": 1.5,
        }
        assert restored["experiments"][0]["fault_seeds"] == [9]
        assert restored["experiments"][1]["seed"] == 5
        assert restored["experiments"][1]["default_seed"] == 123

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.update(schema="wrong/schema"),
            lambda p: p["experiments"][0].pop("counters"),
            lambda p: p["experiments"][0].update(status="exploded"),
            lambda p: p["experiments"][0].update(ok=False),  # inconsistent with pass
            lambda p: p["summary"].update(total=99),
            lambda p: p["experiments"][0]["counters"].update({"bad": "str"}),
        ],
    )
    def test_validation_rejects_corruption(self, mutate):
        payload = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)], fast=True
        )
        corrupted = json.loads(json.dumps(payload))
        mutate(corrupted)
        with pytest.raises(ReportSchemaError):
            validate_report(corrupted)

    def test_schema_constant_is_versioned(self):
        assert REPORT_SCHEMA.endswith("/4")

    def test_legacy_v3_report_is_rejected(self):
        payload = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)], fast=True
        )
        legacy = json.loads(json.dumps(payload))
        legacy["schema"] = "repro.obs.run-report/3"
        with pytest.raises(ReportSchemaError, match="run-report/4"):
            validate_report(legacy)

    def test_histogram_p99_and_mean_are_optional(self):
        # /4 exports carry p99/mean; artifacts without them must keep
        # validating unchanged.
        record = outcome_record(_outcome(), "claim", default_seed=1)
        payload = build_report([record], fast=True)
        with_stats = json.loads(json.dumps(payload))
        with_stats["experiments"][0]["histograms"]["faults.plan.seed"].update(
            p99=9, mean=9.0
        )
        validate_report(with_stats)
        rendered = format_summary_table(with_stats)
        assert "p99=9" in rendered and "mean=9" in rendered
        without = json.loads(json.dumps(payload))
        without["experiments"][0]["histograms"]["faults.plan.seed"].pop("p99", None)
        without["experiments"][0]["histograms"]["faults.plan.seed"].pop("mean", None)
        validate_report(without)
        bad = json.loads(json.dumps(with_stats))
        bad["experiments"][0]["histograms"]["faults.plan.seed"]["p99"] = "fast"
        with pytest.raises(ReportSchemaError):
            validate_report(bad)

    def test_report_without_histograms_is_rejected(self):
        payload = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)], fast=True
        )
        current = json.loads(json.dumps(payload))
        current["experiments"][0].pop("histograms")
        with pytest.raises(ReportSchemaError):
            validate_report(current)

    def test_record_histograms_carry_percentiles(self):
        record = outcome_record(_outcome(), "claim", default_seed=1)
        stats = record["histograms"]["faults.plan.seed"]
        assert stats["p50"] == 9 and stats["p90"] == 9
        payload = build_report([record], fast=True)
        broken = json.loads(json.dumps(payload))
        broken["experiments"][0]["histograms"]["faults.plan.seed"].pop("p50")
        with pytest.raises(ReportSchemaError):
            validate_report(broken)

    def test_stale_trace_blocks_still_validate(self):
        # Reports written while the tracer existed carry summary.trace,
        # summary.analysis and a record trace_file; the format no longer
        # names them, so they pass and render nothing.
        payload = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)], fast=True
        )
        stale = json.loads(json.dumps(payload))
        stale["experiments"][0]["trace_file"] = "traces/E1.trace.json"
        stale["summary"]["trace"] = {"events": 12, "processes": [], "slowest_spans": []}
        stale["summary"]["analysis"] = {"critical_path": {"wall_us": 1.0, "steps": []}}
        validate_report(stale)
        rendered = format_summary_table(stale)
        assert "trace:" not in rendered and "critical path" not in rendered
        assert "trace_file" not in outcome_record(_outcome(), "claim")

    def test_backend_block_round_trips(self):
        payload = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)],
            fast=True,
            backend={"name": "pool", "spec": "pool:4", "parallelism": 4},
        )
        restored = json.loads(json.dumps(payload))
        validate_report(restored)
        assert restored["summary"]["backend"] == {
            "name": "pool",
            "spec": "pool:4",
            "parallelism": 4,
        }

    @pytest.mark.parametrize(
        "backend",
        [
            "fork:4",  # not an object (any bare string)
            {"name": "pool", "spec": "pool:4"},  # parallelism missing
            {"name": "pool", "spec": "pool:4", "parallelism": 0},
            {"name": "pool", "spec": "pool:4", "parallelism": True},
            {"name": 7, "spec": "pool:4", "parallelism": 4},
            {"name": "pool", "spec": None, "parallelism": 4},
        ],
    )
    def test_validation_rejects_bad_backend_block(self, backend):
        payload = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)], fast=True
        )
        corrupted = json.loads(json.dumps(payload, default=repr))
        corrupted["summary"]["backend"] = backend
        with pytest.raises(ReportSchemaError):
            validate_report(corrupted)


class TestReportFormatting:
    def test_format_record_pass_renders_table_and_timing(self):
        record = outcome_record(_outcome(), "the claim", default_seed=1)
        text = format_record(record)
        assert text.startswith("[PASS] E1 — the claim")
        assert "col a  col b" in text
        assert "(0.25s)" in text

    def test_format_record_error_renders_detail_attempts_seed(self):
        record = outcome_record(
            _outcome(
                status="error", ok=False, report=None, error="boom\nline2",
                attempts=3, seed=7,
            ),
            "the claim",
        )
        text = format_record(record)
        assert text.startswith("[ERROR] E1 — the claim")
        assert "   boom\n   line2" in text
        assert "3 attempts" in text and "seed 7" in text

    def test_suite_summary_lines(self):
        passing = outcome_record(_outcome(), "c", default_seed=1)
        failing = outcome_record(
            _outcome(experiment="E9", status="timeout", ok=False, report=None,
                     error="slow"),
            "c",
        )
        assert format_suite_summary([passing]) == "all 1 experiments passed"
        summary = format_suite_summary([passing, failing])
        assert summary.startswith("FAILED (1/2 run)") and "E9 [TIMEOUT]" in summary

    def test_summary_table_has_counter_columns(self):
        payload = build_report(
            [outcome_record(_outcome(), "c", default_seed=1)], fast=True
        )
        table = format_summary_table(payload)
        assert "steps" in table and "42" in table
        assert "1/1 passed" in table

    def test_summary_table_renders_histogram_percentiles(self):
        payload = build_report(
            [outcome_record(_outcome(), "c", default_seed=1)], fast=True
        )
        table = format_summary_table(payload)
        assert "E1 faults.plan.seed: n=1 p50=9 p90=9 max=9" in table


def _load_trajectory_tool():
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "report_trajectory.py"
    spec = importlib.util.spec_from_file_location("report_trajectory", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchTrajectory:
    def test_merge_and_format(self, tmp_path):
        tool = _load_trajectory_tool()
        for index, steps in enumerate((100, 80)):
            payload = {
                "schema": tool.TRAJECTORY_SCHEMA,
                "created_unix": 0.0,
                "runs": {
                    "bench::test_a": {
                        "elapsed_s": 0.5,
                        "counters": {"scheduler.steps": steps},
                    }
                },
            }
            (tmp_path / f"run{index}.json").write_text(json.dumps(payload))
        merged = tool.merge(
            [str(tmp_path / "run0.json"), str(tmp_path / "run1.json")],
            "scheduler.steps",
        )
        assert merged["rows"]["bench::test_a"] == [100, 80]
        table = tool.format_table(merged)
        assert "bench::test_a" in table and "100" in table and "80" in table

    def test_rejects_foreign_schema(self, tmp_path):
        tool = _load_trajectory_tool()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something-else", "runs": {}}))
        with pytest.raises(ValueError):
            tool.load_trajectory(str(bad))

    def test_main_exits_nonzero_on_schema_invalid_inputs(self, tmp_path, capsys):
        tool = _load_trajectory_tool()
        good = tmp_path / "good.json"
        good.write_text(
            json.dumps({"schema": tool.TRAJECTORY_SCHEMA, "runs": {}})
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something-else", "runs": {}}))
        # A bad file anywhere in the input list is an error, never skipped.
        assert tool.main([str(good), str(bad)]) == 1
        assert "error:" in capsys.readouterr().err
        assert tool.main([str(tmp_path / "missing.json")]) == 1
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert tool.main([str(broken)]) == 1

    def test_main_delegates_run_reports_to_compare(self, tmp_path, capsys):
        tool = _load_trajectory_tool()
        payload = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)], fast=True
        )
        for stem in ("a", "b"):
            (tmp_path / f"{stem}.json").write_text(json.dumps(payload))
        code = tool.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out
        # A lone run report is not a comparable pair.
        assert tool.main([str(tmp_path / "a.json")]) == 1
        assert "exactly two" in capsys.readouterr().err
