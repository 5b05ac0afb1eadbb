"""Phase profiling and trace analytics (:mod:`repro.obs.profile` / ``.analyze``).

Covers the profiler's attribution semantics (anchored calls, nesting,
recursion counted once, exclusive-time disjointness), the collapsed-stack
export, lane payloads and ``(pid, lane)`` merging, the disabled-path
contract (no hook installed at all, tracer parity), the ``REPRO_PROFILE``
environment gate, critical-path extraction and straggler detection over
synthetic traces, the ``summary.profile`` schema block, and cross-run
regression attribution (identical reports compare clean; an inflated
phase ranks first).
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.obs import analyze, profile
from repro.obs.analyze import (
    analyze_events,
    compare_reports,
    critical_path,
    format_analysis,
    format_comparison,
    lane_analysis,
)
from repro.obs.profile import Profiler, merge_lane_phases, save_folded
from repro.obs.report import (
    ReportSchemaError,
    build_report,
    format_summary_table,
    outcome_record,
    profile_summary,
    validate_report,
)

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


# -- attribution ------------------------------------------------------------------


def _spin(n=2000):
    acc = 0
    for i in range(n):
        acc += i & 7
    return acc


def _anchored_inner():
    return _spin()


def _anchored_outer():
    _spin()
    return _anchored_inner()


def _anchored_recursive(n):
    _spin(200)
    if n > 1:
        _anchored_recursive(n - 1)


def _test_profiler():
    return Profiler(
        anchors={
            (__name__, "_anchored_outer"): "phase.outer",
            (__name__, "_anchored_inner"): "phase.inner",
            (__name__, "_anchored_recursive"): "phase.rec",
        }
    )


@pytest.fixture
def profiler():
    p = _test_profiler()
    p.enable()
    yield p
    p.disable()


class TestAttribution:
    def test_anchored_call_accounts_calls_and_time(self, profiler):
        _anchored_inner()
        profiler.disable()
        snap = profiler.snapshot()
        inner = snap["phases"]["phase.inner"]
        assert inner["calls"] == 1
        assert inner["inclusive_us"] > 0
        assert 0 < inner["exclusive_us"] <= inner["inclusive_us"]
        assert snap["stacks"].get("phase.inner", 0) > 0

    def test_unanchored_calls_account_nothing(self, profiler):
        _spin()
        profiler.disable()
        assert profiler.snapshot() == {"phases": {}, "stacks": {}}

    def test_nesting_splits_exclusive_from_inclusive(self, profiler):
        _anchored_outer()
        profiler.disable()
        snap = profiler.snapshot()
        outer, inner = snap["phases"]["phase.outer"], snap["phases"]["phase.inner"]
        assert outer["calls"] == 1 and inner["calls"] == 1
        # The inner phase's time is inside the outer's inclusive but
        # outside its exclusive.
        assert outer["exclusive_us"] < outer["inclusive_us"]
        assert inner["inclusive_us"] <= outer["inclusive_us"]
        assert outer["exclusive_us"] + inner["inclusive_us"] == pytest.approx(
            outer["inclusive_us"], rel=0.25
        )
        # Collapsed stacks carry the nesting.
        assert "phase.outer;phase.inner" in snap["stacks"]
        assert "phase.outer" in snap["stacks"]

    def test_recursion_adds_calls_not_inclusive_time(self, profiler):
        _anchored_recursive(5)
        profiler.disable()
        rec = profiler.snapshot()["phases"]["phase.rec"]
        assert rec["calls"] == 5
        # Inclusive is the outermost occurrence only: were recursion
        # double-counted it would be ~5x the exclusive sum (every level
        # spins the same loop), not about equal to it.
        assert rec["inclusive_us"] == pytest.approx(rec["exclusive_us"], rel=0.5)

    def test_semantic_phases_attributed_on_a_real_unfolding(self):
        from fractions import Fraction

        from tests.helpers import coin_automaton
        from repro.semantics.measure import execution_measure
        from repro.semantics.scheduler import ActionSequenceScheduler

        coin = coin_automaton("coin", Fraction(1, 2))
        scheduler = ActionSequenceScheduler(["toss", "head", "tail"])
        profile.clear()
        profile.enable()
        try:
            execution_measure(coin, scheduler)
        finally:
            profile.disable()
        phases = profile.snapshot()["phases"]
        profile.clear()
        assert "measure.unfold" in phases
        assert "scheduler.step" in phases
        assert phases["measure.unfold"]["calls"] >= 1

    def test_registered_phases_cover_the_spec_registry(self):
        registry = profile.registered_phases()
        for phase in (
            "measure.unfold",
            "measure.compose",
            "fragment.decide",
            "scheduler.step",
            "pca.transition",
            "cache.lookup",
            "transport.pickle",
        ):
            assert phase in registry, phase
            assert registry[phase]  # at least one anchor label each

    def test_register_extends_and_reclassifies(self):
        p = _test_profiler()
        p.register("phase.extra", __name__, "_spin")
        p.enable()
        try:
            _spin()
        finally:
            p.disable()
        assert "phase.extra" in p.snapshot()["phases"]


# -- disabled path (tracer parity) -------------------------------------------------


class TestDisabledContract:
    def test_no_hook_installed_when_disabled(self):
        # The strictest disabled contract: not a cheap hook — *no* hook.
        assert not profile.is_enabled()
        assert sys.getprofile() is None

    def test_enable_installs_and_disable_removes_the_hook(self):
        profile.enable()
        try:
            assert sys.getprofile() is not None
            assert profile.is_enabled()
        finally:
            profile.disable()
            profile.clear()
        assert sys.getprofile() is None
        assert not profile.is_enabled()

    def test_disabled_payload_is_none_and_absorb_noop(self):
        assert profile.chunk_profile_payload("lane") is None
        assert profile.absorb_chunk_profile(None) is False
        assert (
            profile.absorb_chunk_profile(
                {"pid": 1, "lane": "w", "phases": {}, "stacks": {}}
            )
            is False
        )

    def test_repro_profile_gates_a_fresh_process(self):
        # Importing never reads the gate; the entry-point resolution does.
        script = (
            "import sys; from repro.obs import profile; "
            "assert not profile.is_enabled() and sys.getprofile() is None; "
            "from repro.api import resolve_config; resolve_config().apply(); "
            "print('enabled' if profile.is_enabled() else 'disabled', "
            "'hooked' if sys.getprofile() is not None else 'unhooked')"
        )
        for value, expected in (
            ("on", "enabled hooked"),
            ("1", "enabled hooked"),
            ("", "disabled unhooked"),
            ("off", "disabled unhooked"),
        ):
            env = _subprocess_env()
            env["REPRO_PROFILE"] = value
            out = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert out.stdout.strip() == expected, (value, out.stdout)


# -- lanes, payloads, folded export ------------------------------------------------


def _lane_payload(pid=111, lane="worker x", calls=2, inclusive=10.0, exclusive=6.0):
    return {
        "pid": pid,
        "lane": lane,
        "phases": {
            "phase.p": {
                "calls": calls,
                "inclusive_us": inclusive,
                "exclusive_us": exclusive,
            }
        },
        "stacks": {"phase.p": exclusive},
    }


class TestLanes:
    def test_absorb_merges_by_pid_and_lane(self):
        profile.enable()
        try:
            profile.clear()
            assert profile.absorb_chunk_profile(_lane_payload()) is True
            assert profile.absorb_chunk_profile(_lane_payload()) is True
            assert profile.absorb_chunk_profile(_lane_payload(pid=222)) is True
            lanes = profile.lanes(lane="caller")
        finally:
            profile.disable()
            profile.clear()
        assert lanes[0]["lane"] == "caller" and lanes[0]["pid"] == os.getpid()
        absorbed = {(lane["pid"], lane["lane"]): lane for lane in lanes[1:]}
        assert set(absorbed) == {(111, "worker x"), (222, "worker x")}
        merged = absorbed[(111, "worker x")]["phases"]["phase.p"]
        assert merged["calls"] == 4  # two chunks, one lane
        assert merged["inclusive_us"] == pytest.approx(20.0)
        assert absorbed[(111, "worker x")]["stacks"]["phase.p"] == pytest.approx(12.0)

    def test_merge_lane_phases_is_addition(self):
        into = {"a": {"calls": 1, "inclusive_us": 2.0, "exclusive_us": 1.0}}
        merge_lane_phases(into, {"a": {"calls": 2, "inclusive_us": 3.0, "exclusive_us": 1.5},
                                 "b": {"calls": 1, "inclusive_us": 1.0, "exclusive_us": 1.0}})
        assert into["a"] == {"calls": 3, "inclusive_us": 5.0, "exclusive_us": 2.5}
        assert "b" in into

    def test_save_folded_writes_collapsed_stacks(self, tmp_path):
        out = tmp_path / "nested" / "profile.folded"
        save_folded(
            out,
            [
                {
                    "pid": 7,
                    "lane": "experiment",
                    "stacks": {"a;b": 1500.4, "a": 2.6, "zero": 0.0},
                }
            ],
        )
        lines = out.read_text().splitlines()
        assert "experiment (pid 7);a;b 1500" in lines
        assert "experiment (pid 7);a 3" in lines
        # Zero-weight stacks are dropped (flamegraph.pl chokes on them).
        assert not any(line.endswith(" 0") for line in lines)

    def test_format_lanes_ranks_phases(self):
        text = profile.format_lanes([_lane_payload()])
        assert "worker x (pid 111)" in text and "phase.p" in text


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


# -- summary.profile schema --------------------------------------------------------


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


def _profile_block(inclusive=1000.0, folded=None):
    return profile_summary(
        [
            {
                "pid": 1,
                "lane": "experiment",
                "phases": {
                    "measure.unfold": {
                        "calls": 10,
                        "inclusive_us": inclusive,
                        "exclusive_us": inclusive * 0.8,
                    }
                },
            }
        ],
        enabled=True,
        folded_files=folded,
    )


class TestProfileReportBlock:
    def test_profile_block_round_trips_and_renders(self):
        payload = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)],
            fast=True,
            profile=_profile_block(folded=["profiles/E1.folded"]),
        )
        restored = json.loads(json.dumps(payload))
        validate_report(restored)
        block = restored["summary"]["profile"]
        assert block["enabled"] is True
        assert block["lanes"][0]["phases"]["measure.unfold"]["calls"] == 10
        assert block["folded_files"] == ["profiles/E1.folded"]
        assert "profile:" in format_summary_table(restored)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b.update(enabled="yes"),
            lambda b: b.update(lanes="not-a-list"),
            lambda b: b["lanes"][0].update(pid="one"),
            lambda b: b["lanes"][0]["phases"]["measure.unfold"].update(calls=-1),
            lambda b: b["lanes"][0]["phases"]["measure.unfold"].pop("inclusive_us"),
        ],
    )
    def test_validation_rejects_bad_profile_block(self, mutate):
        payload = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)],
            fast=True,
            profile=_profile_block(),
        )
        corrupted = json.loads(json.dumps(payload))
        mutate(corrupted["summary"]["profile"])
        with pytest.raises(ReportSchemaError):
            validate_report(corrupted)

    def test_report_without_profile_has_no_block(self):
        payload = build_report(
            [outcome_record(_outcome(), "claim", default_seed=1)], fast=True
        )
        assert "profile" not in payload["summary"]
        validate_report(payload)


# -- cross-run comparison ----------------------------------------------------------


def _mini_report(profile_inclusive=1000.0, steps=42, elapsed=1.0):
    return {
        "schema": "repro.obs.run-report/4",
        "summary": {
            "wall_time_s": 10.0,
            "profile": {
                "enabled": True,
                "lanes": [
                    {
                        "pid": 1,
                        "lane": "experiment",
                        "phases": {
                            "measure.unfold": {
                                "calls": 10,
                                "inclusive_us": profile_inclusive,
                                "exclusive_us": profile_inclusive * 0.8,
                            }
                        },
                    }
                ],
            },
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
        b = _mini_report(profile_inclusive=10_000.0, elapsed=1.01)
        comparison = compare_reports(a, b, threshold=0.05)
        top = comparison["rows"][0]
        assert top["metric"].startswith("phase.measure.unfold.")
        assert top["pct"] == pytest.approx(9.0)
        regressed = {row["metric"] for row in comparison["regressions"]}
        assert "phase.measure.unfold.inclusive_us" in regressed
        assert "E1.elapsed_s" not in regressed  # within threshold
        table = format_comparison(comparison)
        assert table.count("phase.measure.unfold") >= 1

    def test_appearing_metric_ranks_above_finite_changes(self):
        a = _mini_report()
        b = _mini_report(profile_inclusive=2000.0)
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
