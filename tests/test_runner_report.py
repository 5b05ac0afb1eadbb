"""Integration tests: observability through the guarded experiment runner.

The guarded runner must marshal the child's metrics snapshot across the
fork boundary — including from a child that crashes mid-experiment — and
emit a schema-valid ``--metrics-out`` report that records every seed
needed to reproduce a failure.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments import common
from repro.experiments.common import DEFAULT_SEED, run_experiment_guarded
from repro.experiments.runner import main
from repro.obs.__main__ import main as obs_main
from repro.obs.report import validate_report
from repro.perf.supervise import base_policy
from tests.conftest import subprocess_env

_FIXTURES = {
    "EX-WORKCRASH": (
        "tests.faultyexp.crashing_after_work",
        "crashes after metered work",
    ),
}


@pytest.fixture(autouse=True)
def _inject_fixture_experiments(monkeypatch):
    for experiment_id, entry in _FIXTURES.items():
        monkeypatch.setitem(common.ALL_EXPERIMENTS, experiment_id, entry)


class TestGuardedObservability:
    def test_crashing_child_ships_partial_metrics(self):
        outcome = run_experiment_guarded("EX-WORKCRASH")
        assert outcome.status == "error"
        assert outcome.metrics is not None, "extras must survive the crash"
        counters = outcome.metrics["counters"]
        assert counters.get("measure.unfold.calls", 0) >= 1
        assert counters.get("scheduler.steps", 0) > 0
        assert outcome.peak_rss_bytes is None or outcome.peak_rss_bytes > 0

    def test_passing_child_ships_metrics(self):
        outcome = run_experiment_guarded("E4")
        assert outcome.ok
        assert outcome.metrics["counters"]["scheduler.steps"] > 0
        assert outcome.metrics["timers"]["measure.unfold"]["calls"] > 0

    def test_inline_metrics_are_per_experiment_deltas(self):
        first = run_experiment_guarded("E4", isolated=False)
        second = run_experiment_guarded("E4", isolated=False)
        assert first.ok and second.ok
        # Without before/after diffing the second run would report the
        # accumulated (roughly doubled) totals of the shared registry.
        assert (
            first.metrics["counters"]["scheduler.steps"]
            == second.metrics["counters"]["scheduler.steps"]
        )

    def test_timeout_yields_no_metrics(self, monkeypatch):
        monkeypatch.setitem(
            common.ALL_EXPERIMENTS, "EX-HANG", ("tests.faultyexp.hanging", "hangs")
        )
        outcome = run_experiment_guarded("EX-HANG", timeout=1.0)
        assert outcome.status == "timeout"
        assert outcome.metrics is None


class TestRunnerCliReports:
    def test_metrics_out_captures_crashing_childs_partial_metrics(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "report.json"
        assert main(["EX-WORKCRASH", "E4", "--metrics-out", str(out_path)]) == 1
        payload = json.loads(out_path.read_text())
        validate_report(payload)
        by_id = {record["experiment"]: record for record in payload["experiments"]}
        crashed = by_id["EX-WORKCRASH"]
        assert crashed["status"] == "error"
        assert "deliberate crash after metered work" in crashed["error"]
        assert crashed["counters"].get("scheduler.steps", 0) > 0
        assert by_id["E4"]["ok"] and by_id["E4"]["table"]
        out = capsys.readouterr().out
        assert f"metrics report written to {out_path}" in out

    def test_seeds_recorded_for_reproducibility(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            ["EX-WORKCRASH", "--seed", "11", "--retries", "1",
             "--metrics-out", str(out_path)]
        )
        assert code == 1
        payload = json.loads(out_path.read_text())
        validate_report(payload)
        (record,) = payload["experiments"]
        assert record["attempts"] == 2
        assert record["seed"] == 12  # base 11, rotated once
        assert record["default_seed"] == DEFAULT_SEED

    def test_attempt_history_records_every_attempt(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            ["EX-WORKCRASH", "--seed", "11", "--retries", "1",
             "--metrics-out", str(out_path)]
        )
        assert code == 1
        payload = json.loads(out_path.read_text())
        validate_report(payload)
        (record,) = payload["experiments"]
        history = record["attempt_history"]
        assert [entry["attempt"] for entry in history] == [1, 2]
        assert [entry["seed"] for entry in history] == [11, 12]
        assert all(entry["status"] == "error" for entry in history)
        assert all(entry["error_class"] == "RuntimeError" for entry in history)
        assert all(entry["elapsed_s"] >= 0 for entry in history)

    def test_supervise_flag_emits_resilience_block(
        self, tmp_path, capsys, monkeypatch
    ):
        # A remote backend is always supervised, so its report carries the
        # resilience block.
        monkeypatch.delenv("REPRO_CHUNK_DEADLINE", raising=False)
        out_path = tmp_path / "report.json"
        code = main(
            ["E4", "--backend", "pool:1", "--chunk-deadline", "45", "--seed", "3",
             "--metrics-out", str(out_path)]
        )
        assert code == 0
        # Children inherit the base policy through fork; nothing is exported.
        assert "REPRO_CHUNK_DEADLINE" not in os.environ
        assert base_policy().seed == 3
        payload = json.loads(out_path.read_text())
        validate_report(payload)
        resilience = payload["summary"]["resilience"]
        assert set(resilience) == {"chunk_deadline_s", "counters"}
        assert resilience["chunk_deadline_s"] == 45.0
        assert isinstance(resilience["counters"], dict)

    @pytest.mark.parametrize("backend", ["serial"])
    def test_unsupervised_report_has_no_resilience_block(
        self, tmp_path, capsys, backend
    ):
        out_path = tmp_path / "report.json"
        assert main(["E4", "--backend", backend, "--metrics-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        validate_report(payload)
        assert "resilience" not in payload["summary"]

    def test_default_seed_recorded_without_seed_flag(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["E4", "--metrics-out", str(out_path)]) == 0
        (record,) = json.loads(out_path.read_text())["experiments"]
        assert record["seed"] is None
        assert record["default_seed"] == DEFAULT_SEED

    def test_obs_report_summarizes_existing_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        main(["E4", "--metrics-out", str(out_path)])
        capsys.readouterr()
        assert obs_main(["report", str(out_path), "--summary"]) == 0
        table = capsys.readouterr().out
        assert "experiment" in table and "E4" in table and "1/1 passed" in table

    def test_obs_report_rejects_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert obs_main(["report", str(bad), "--summary"]) == 1
        assert "invalid report" in capsys.readouterr().out

    def test_obs_report_without_summary_prints_only_the_verdict(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        main(["E4", "--metrics-out", str(out_path)])
        capsys.readouterr()
        assert obs_main(["report", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["report OK: 1 experiments, 1 passed, 0 failures"]

    def test_obs_report_rejects_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert obs_main(["report", str(missing)]) == 1
        assert f"invalid report {missing}" in capsys.readouterr().out

    def test_obs_without_subcommand_prints_usage(self, capsys):
        assert obs_main([]) == 2
        assert "usage: python -m repro.obs" in capsys.readouterr().err

    def test_bare_report_path_is_not_a_command(self, tmp_path, capsys):
        assert obs_main([str(tmp_path / "report.json")]) == 2
        assert "usage: python -m repro.obs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["trace", "analyze"])
    def test_removed_obs_subcommands_print_usage(self, command, tmp_path, capsys):
        assert obs_main([command, str(tmp_path / "E4.trace.json")]) == 2
        assert "usage: python -m repro.obs {report,compare}" in capsys.readouterr().err

    def test_report_module_has_one_entry_point(self):
        # ``python -m repro.obs report`` is the one way to call the reader:
        # the module has no ``__main__`` block of its own.
        import ast
        import inspect

        from repro.obs import report

        tree = ast.parse(inspect.getsource(report))
        assert not [
            node for node in tree.body
            if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)
        ]

    @pytest.mark.parametrize("flag", ["--report", "--progress", "--trace-dir"])
    def test_removed_runner_flags_are_refused(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_stale_progress_env_leaves_stderr_empty(self):
        # A REPRO_PROGRESS left in the shell names no switch any more: the
        # runner writes its table to stdout and nothing at all to stderr.
        env = subprocess_env()
        env["REPRO_PROGRESS"] = "1"
        completed = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "E4", "E15"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "E15" in completed.stdout
        assert completed.stderr == ""

    def test_stale_trace_env_is_inert(self, tmp_path):
        # A REPRO_TRACE left in the shell names no switch any more: nothing
        # on stderr, no trace file anywhere, no trace block in the report.
        env = subprocess_env()
        env["REPRO_TRACE"] = "1"
        completed = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "E4", "E15",
             "--metrics-out", "report.json"],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""
        assert list(tmp_path.rglob("*.trace.json")) == []
        payload = json.loads((tmp_path / "report.json").read_text())
        validate_report(payload)
        assert not {"trace", "analysis"} & set(payload["summary"])
        assert not {"trace", "trace_dir"} & set(payload["summary"]["config"])
        assert all("trace_file" not in record for record in payload["experiments"])

    def test_e15_report_includes_fault_counters_and_plan_seeds(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["E15", "--metrics-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        validate_report(payload)
        (record,) = payload["experiments"]
        assert record["counters"].get("faults.injected", 0) > 0
        assert record["fault_seeds"], "sampled fault-plan seeds must be recorded"

    def test_backend_flag_lands_in_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        out_path = tmp_path / "report.json"
        assert main(["E4", "--backend", "pool:2", "--metrics-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        validate_report(payload)
        backend = payload["summary"]["backend"]
        assert {k: backend[k] for k in ("name", "spec", "parallelism")} == {
            "name": "pool",
            "spec": "pool:2",
            "parallelism": 2,
        }

    def test_backend_defaults_to_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "pool:3")
        out_path = tmp_path / "report.json"
        assert main(["E4", "--metrics-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["backend"]["spec"] == "pool:3"

    def test_removed_fork_backend_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert main(["E4", "--backend", "fork:2"]) != 0
        out = capsys.readouterr().out
        assert "unknown backend 'fork' (known: pool, serial, socket" in out
        assert "PASS" not in out  # nothing ran

    def test_invalid_backend_spec_exits_2_before_running(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert main(["E4", "--backend", "warp:9"]) == 2
        out = capsys.readouterr().out
        assert "invalid backend spec" in out
        assert "PASS" not in out  # nothing ran


#: Each phase timer and the counters its calls mirror.
def _mirrored_calls(counters):
    return {
        "measure.unfold": counters.get("measure.unfold.calls", 0),
        "scheduler.step": counters.get("scheduler.steps", 0),
        "measure.compose": counters.get("measure.compose.calls", 0),
        "pca.transition": counters.get("pca.transitions.preserving", 0),
        "secure.tv": counters.get("secure.tv.calls", 0),
    }


class TestPhaseTimers:
    def _assert_phases_mirror_counters(self, payload):
        validate_report(payload)
        phases = payload["summary"]["phases"]
        assert list(phases) == [r["experiment"] for r in payload["experiments"]]
        for record in payload["experiments"]:
            assert "timers" not in record
            timed = phases[record["experiment"]]
            calls = {phase: totals["calls"] for phase, totals in timed.items()}
            expected = {
                phase: count
                for phase, count in _mirrored_calls(record["counters"]).items()
                if count
            }
            assert calls == expected, record["experiment"]

    def test_default_run_reports_phases_for_every_experiment(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        paper = [f"E{number}" for number in range(1, 16)]  # not the injected fixture
        assert main(paper + ["--metrics-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        self._assert_phases_mirror_counters(payload)
        assert len(payload["summary"]["phases"]) == 15
        assert all(
            payload["summary"]["phases"][e]["measure.unfold"]["s"] > 0
            for e in ("E4", "E11", "E12", "E15")
        )

    def test_inline_run_reports_per_experiment_phases(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["E4", "E4", "E9", "--no-isolation", "--metrics-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        validate_report(payload)
        # Deltas, not the shared registry's running totals.
        for record in payload["experiments"]:
            timed = payload["summary"]["phases"][record["experiment"]]
            assert timed["scheduler.step"]["calls"] == record["counters"]["scheduler.steps"]

    def test_pool_run_reports_phases(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        out_path = tmp_path / "report.json"
        assert main(["E15", "--backend", "pool:2", "--metrics-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        self._assert_phases_mirror_counters(payload)
        assert payload["experiments"][0]["counters"]["perf.parallel.socket.chunks"] > 0


class TestHelp:
    def test_help_names_real_defaults_only(self, capsys):
        from repro.experiments.runner import build_parser

        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "(default: None)" not in text
        assert "(default: 600" in text and "(default: 0)" in text
        for action in build_parser()._actions:
            assert (action.help or "").count("(default:") <= 1, action.option_strings
