"""Phase timers and trace analytics (:mod:`repro.obs.metrics` / ``.analyze``).

Covers what the phase timers at the semantic entry points record on real
work (calls, inclusive time, how the phases nest, one call per PCA
transition), the ``summary.phases`` report block (round trip, rendering,
validation, absence in reports that predate it), critical-path extraction
and straggler detection over synthetic traces, and cross-run regression
attribution (identical reports compare clean; an inflated phase ranks
first; reports written with the removed ``summary.profile`` block still
validate and compare).
"""

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.obs import analyze, metrics
from repro.obs.analyze import (
    analyze_events,
    compare_reports,
    critical_path,
    format_analysis,
    format_comparison,
    lane_analysis,
)
from repro.obs.report import (
    ReportSchemaError,
    build_report,
    format_summary_table,
    outcome_record,
    phases_summary,
    validate_report,
)
from repro.semantics.measure import execution_measure
from repro.semantics.scheduler import ActionSequenceScheduler
from tests.helpers import coin_automaton


def _timers():
    return metrics.snapshot()["timers"]


# -- what the timers record --------------------------------------------------------


class TestAttribution:
    def test_semantic_phases_attributed_on_a_real_unfolding(self):
        coin = coin_automaton("coin", Fraction(1, 2))
        execution_measure(coin, ActionSequenceScheduler(["toss", "head", "tail"]))
        timers = _timers()
        counters = metrics.snapshot()["counters"]
        assert timers["measure.unfold"]["calls"] == 1
        assert timers["scheduler.step"]["calls"] == counters["scheduler.steps"] > 0
        assert timers["measure.unfold"]["ns"] > 0
        # No timing ever enters the counters.
        assert not any(name in counters for name in timers)

    def test_registered_phases_cover_the_spec_registry(self):
        import repro.config.transitions  # noqa: F401 - registers its timer
        import repro.secure.implementation  # noqa: F401 - registers its timer

        registered = metrics.snapshot(include_zero=True)["timers"]
        for phase in (
            "measure.unfold",
            "scheduler.step",
            "pca.transition",
            "measure.compose",
            "secure.tv",
        ):
            assert phase in registered, phase

    def test_phases_nest_inclusively(self):
        coin = coin_automaton("coin", Fraction(1, 3))
        for actions in (["toss"], ["toss", "head"], ["toss", "tail", "head"]):
            execution_measure(coin, ActionSequenceScheduler(actions))
        timers = _timers()
        # Every scheduler step runs inside an unfolding.
        assert timers["scheduler.step"]["ns"] <= timers["measure.unfold"]["ns"]

    def test_memo_hits_are_unfold_calls(self):
        coin = coin_automaton("coin", Fraction(1, 2))
        scheduler = ActionSequenceScheduler(["toss", "head"])
        execution_measure(coin, scheduler)
        execution_measure(coin, scheduler)
        counters = metrics.snapshot()["counters"]
        # No unfolding is memoized: the repeat is a second call.
        assert _timers()["measure.unfold"]["calls"] == 2 == counters["measure.unfold.calls"]

    def test_intrinsic_transition_is_one_pca_transition(self):
        from repro.config.configuration import Configuration
        from repro.config.transitions import intrinsic_transition, preserving_transition

        coin = coin_automaton("coin", Fraction(1, 2))
        configuration = Configuration([(coin, coin.start)])
        intrinsic_transition(configuration, "toss")
        preserving_transition(configuration, "toss")
        counters = metrics.snapshot()["counters"]
        # The preserving step inside the intrinsic one is not another call.
        assert _timers()["pca.transition"]["calls"] == 2
        assert counters["pca.transitions.preserving"] == 2
        assert counters["pca.transitions.intrinsic"] == 1


# -- critical path and stragglers --------------------------------------------------


def _span(name, ts, dur, pid=1, tid=1, depth=0):
    return {"name": name, "ph": "X", "cat": "repro", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid, "args": {"depth": depth}}


class TestCriticalPath:
    def test_empty_trace_has_no_path(self):
        assert critical_path([]) == {"wall_us": 0.0, "steps": []}

    def test_descends_into_the_blocking_child(self):
        events = [
            _span("experiment", 0.0, 100.0, depth=0),
            _span("early", 0.0, 30.0, depth=1),
            _span("blocking", 40.0, 55.0, depth=1),  # finishes last
            _span("grandchild", 42.0, 10.0, depth=2),
        ]
        path = critical_path(events)
        assert [s["name"] for s in path["steps"]] == [
            "experiment", "blocking", "grandchild",
        ]
        assert path["wall_us"] == pytest.approx(100.0)

    def test_crosses_lanes_with_slack(self):
        events = [
            _span("parallel.map", 0.0, 100.0, pid=1, depth=0),
            # The worker's outermost chunk span sits in a foreign lane,
            # aligned to within one reply latency.
            _span("backend.chunk", 10.0, 85.0, pid=2, depth=0),
            _span("backend.item", 12.0, 40.0, pid=2, depth=1),
        ]
        path = critical_path(events, slack_us=50.0)
        assert [s["name"] for s in path["steps"]] == [
            "parallel.map", "backend.chunk", "backend.item",
        ]
        assert [s["pid"] for s in path["steps"]] == [1, 2, 2]

    def test_malformed_traces_cannot_loop(self):
        # Two identical spans that would each pick the other forever.
        events = [
            _span("a", 0.0, 10.0, depth=0),
            _span("b", 0.0, 10.0, pid=2, depth=0),
        ]
        path = critical_path(events, slack_us=1000.0)
        assert len(path["steps"]) <= 2


class TestLaneAnalysis:
    def test_straggler_skew_and_idle_gaps(self):
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "ts": 0,
             "args": {"name": "worker a"}},
            _span("backend.chunk", 0.0, 10.0, pid=1),
            _span("backend.chunk", 20.0, 10.0, pid=1),   # 10us idle gap
            _span("backend.chunk", 30.0, 50.0, pid=1),   # the straggling chunk
            _span("backend.chunk", 0.0, 10.0, pid=2),
            _span("backend.chunk", 10.0, 10.0, pid=2),
        ]
        lanes = {lane["pid"]: lane for lane in lane_analysis(events)}
        straggler = lanes[1]
        assert straggler["name"] == "worker a"
        assert straggler["chunks"] == 3
        assert straggler["skew"] == pytest.approx(5.0)  # 50 / median 10
        assert straggler["straggler"] is True
        assert straggler["idle_gaps"]["count"] == 1
        assert straggler["idle_gaps"]["total_us"] == pytest.approx(10.0)
        assert straggler["utilization"] == pytest.approx(70.0 / 80.0)
        even = lanes[2]
        assert even["skew"] == pytest.approx(1.0)
        assert even["straggler"] is False
        assert even["utilization"] == pytest.approx(1.0)

    def test_single_chunk_lane_is_never_a_straggler(self):
        lanes = lane_analysis([_span("backend.chunk", 0.0, 99.0, pid=1)])
        assert lanes[0]["straggler"] is False

    def test_analyze_events_and_formatting(self):
        events = [
            _span("parallel.map", 0.0, 100.0, pid=1, depth=0),
            _span("backend.chunk", 0.0, 10.0, pid=2),
            _span("backend.chunk", 10.0, 10.0, pid=2),
            _span("backend.chunk", 20.0, 78.0, pid=2),
        ]
        analysis = analyze_events(events, slack_us=50.0)
        assert analysis["critical_path"]["steps"]
        assert analysis["stragglers"] and analysis["stragglers"][0]["pid"] == 2
        text = format_analysis(analysis)
        assert "critical path" in text and "straggler" in text


# -- summary.phases schema ---------------------------------------------------------


def _outcome(**overrides):
    base = dict(
        experiment="E1",
        status="pass",
        ok=True,
        elapsed=0.25,
        attempts=1,
        seed=None,
        report=SimpleNamespace(table="col a\n1"),
        error=None,
        metrics={"counters": {"scheduler.steps": 42}, "gauges": {}, "histograms": {}},
        peak_rss_bytes=48 * 1024 * 1024,
        trace_path=None,
    )
    base.update(overrides)
    return SimpleNamespace(**base)


def _phases_block(unfold_ns=1_000_000):
    return phases_summary(
        {
            "E1": {
                "measure.unfold": {"calls": 10, "ns": unfold_ns},
                "scheduler.step": {"calls": 42, "ns": unfold_ns // 2},
            }
        }
    )


class TestProfileReportBlock:
    """The report's phase-profile block, ``summary.phases``."""

    def test_profile_block_round_trips_and_renders(self):
        payload = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)],
            fast=True,
            phases=_phases_block(),
        )
        restored = json.loads(json.dumps(payload))
        validate_report(restored)
        block = restored["summary"]["phases"]
        assert block["E1"]["measure.unfold"] == {"calls": 10, "s": 0.001}
        table = format_summary_table(restored)
        assert "E1: measure.unfold 0.001s/10, scheduler.step 0.001s/42" in table

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b.update(E2="not-an-object"),
            lambda b: b["E1"].update({"measure.unfold": 5}),
            lambda b: b["E1"]["measure.unfold"].update(calls=-1),
            lambda b: b["E1"]["measure.unfold"].update(calls=True),
            lambda b: b["E1"]["measure.unfold"].pop("s"),
        ],
    )
    def test_validation_rejects_bad_profile_block(self, mutate):
        payload = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)],
            fast=True,
            phases=_phases_block(),
        )
        corrupted = json.loads(json.dumps(payload))
        mutate(corrupted["summary"]["phases"])
        with pytest.raises(ReportSchemaError):
            validate_report(corrupted)

    def test_report_without_profile_has_no_block(self):
        # Reports from before the timers carry no block and stay valid.
        payload = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)], fast=True
        )
        assert "phases" not in payload["summary"]
        validate_report(payload)
        assert "phases" not in format_summary_table(payload)


# -- cross-run comparison ----------------------------------------------------------


def _mini_report(unfold_s=0.001, steps=42, elapsed=1.0):
    return {
        "schema": "repro.obs.run-report/4",
        "summary": {
            "wall_time_s": 10.0,
            "phases": {"E1": {"measure.unfold": {"calls": 10, "s": unfold_s}}},
        },
        "experiments": [
            {
                "experiment": "E1",
                "elapsed_s": elapsed,
                "peak_rss_bytes": 1000,
                "counters": {"scheduler.steps": steps},
                "histograms": {
                    "h": {"p50": 1, "p90": 2, "p99": 3, "mean": 1.5, "max": 3}
                },
            }
        ],
    }


class TestCompareReports:
    def test_identical_reports_have_zero_regressions(self):
        report = _mini_report()
        comparison = compare_reports(report, json.loads(json.dumps(report)))
        assert comparison["regressions"] == []
        assert comparison["improvements"] == []
        assert all(row["delta"] == 0 for row in comparison["rows"])
        assert "no changes beyond the threshold" in format_comparison(comparison)

    def test_inflated_phase_ranks_first(self):
        a = _mini_report()
        # Inflate one phase 10x; nudge elapsed by 1% (below the threshold).
        b = _mini_report(unfold_s=0.01, elapsed=1.01)
        comparison = compare_reports(a, b, threshold=0.05)
        top = comparison["rows"][0]
        assert top["metric"] == "phase.E1.measure.unfold.s"
        assert top["pct"] == pytest.approx(9.0)
        regressed = {row["metric"] for row in comparison["regressions"]}
        assert "phase.E1.measure.unfold.s" in regressed
        assert "E1.elapsed_s" not in regressed  # within threshold
        table = format_comparison(comparison)
        assert table.count("phase.E1.measure.unfold") >= 1

    def test_pre_timer_reports_validate_and_compare(self, tmp_path, capsys):
        # A report written with the removed profiler: its summary.profile
        # block is ignored, so it still validates and compares against a
        # report that carries summary.phases.
        old = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)], fast=True
        )
        old["summary"]["profile"] = {
            "enabled": True,
            "lanes": [{"pid": 1, "lane": "E1: experiment", "phases": {
                "measure.unfold": {"calls": 10, "inclusive_us": 900, "exclusive_us": 400},
            }}],
        }
        validate_report(old)
        new = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)],
            fast=True,
            phases=_phases_block(),
        )
        a, b = tmp_path / "old.json", tmp_path / "new.json"
        a.write_text(json.dumps(old))
        b.write_text(json.dumps(new))
        assert analyze.main_compare([str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "phase.E1.measure.unfold.s" in out
        assert "inclusive_us" not in out

    def test_appearing_metric_ranks_above_finite_changes(self):
        a = _mini_report()
        b = _mini_report(unfold_s=0.002)
        b["experiments"][0]["counters"]["brand.new"] = 5
        comparison = compare_reports(a, b)
        assert comparison["rows"][0]["metric"] == "E1.counter.brand.new"
        assert comparison["rows"][0]["pct"] is None
        assert comparison["rows"][0] in comparison["regressions"]

    def test_histogram_stats_compared_including_p99_and_mean(self):
        a = _mini_report()
        b = _mini_report()
        b["experiments"][0]["histograms"]["h"]["p99"] = 30
        b["experiments"][0]["histograms"]["h"]["mean"] = 15.0
        comparison = compare_reports(a, b)
        regressed = {row["metric"] for row in comparison["regressions"]}
        assert {"E1.hist.h.p99", "E1.hist.h.mean"} <= regressed

    def test_cli_compare_validates_and_gates(self, tmp_path, capsys):
        good = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)], fast=True
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(good))
        worse = json.loads(json.dumps(good))
        worse["experiments"][0]["counters"]["scheduler.steps"] *= 10
        b.write_text(json.dumps(worse))

        assert analyze.main_compare([str(a), str(a)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out
        # Regressions are a non-blocking signal by default...
        assert analyze.main_compare([str(a), str(b)]) == 0
        assert "scheduler.steps" in capsys.readouterr().out
        # ...and a gate on request.
        assert analyze.main_compare([str(a), str(b), "--fail-on-regression"]) == 1
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        assert analyze.main_compare([str(a), str(bad)]) == 1
        assert "invalid report" in capsys.readouterr().out

    def test_cli_analyze_prints_critical_path(self, tmp_path, capsys):
        events = [
            _span("parallel.map", 0.0, 100.0, pid=1, depth=0),
            _span("backend.chunk", 5.0, 90.0, pid=2),
        ]
        source = tmp_path / "one.trace.json"
        source.write_text(json.dumps({"traceEvents": events}))
        assert analyze.main_analyze([str(source)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out and "parallel.map" in out
