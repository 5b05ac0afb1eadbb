"""Integration tests: the hardened experiment runner.

A crashing experiment must surface as ``[ERROR]`` (with its traceback) and
the suite must keep going; a hanging experiment must hit the wall-clock
timeout; a flaky experiment must recover through retry-with-seed-rotation.
The misbehaving experiments live in :mod:`tests.faultyexp` and are injected
into the registry through its dotted-module escape hatch.
"""

import pytest

from repro.experiments import common
from repro.experiments.common import run_experiment_guarded
from repro.experiments.runner import main

_FIXTURES = {
    "EX-CRASH": ("tests.faultyexp.crashing", "always raises"),
    "EX-HANG": ("tests.faultyexp.hanging", "never returns"),
    "EX-FAIL": ("tests.faultyexp.failing", "report.passed is False"),
    "EX-FLAKY": ("tests.faultyexp.flaky", "passes only under odd seeds"),
}


@pytest.fixture(autouse=True)
def _inject_fixture_experiments(monkeypatch):
    for experiment_id, entry in _FIXTURES.items():
        monkeypatch.setitem(common.ALL_EXPERIMENTS, experiment_id, entry)


class TestGuardedRunner:
    def test_crash_is_captured_with_traceback(self):
        outcome = run_experiment_guarded("EX-CRASH")
        assert outcome.status == "error"
        assert not outcome.ok
        assert "RuntimeError: deliberate experiment crash" in outcome.error
        assert outcome.report is None

    def test_crash_is_captured_inline_too(self):
        outcome = run_experiment_guarded("EX-CRASH", isolated=False)
        assert outcome.status == "error"
        assert "deliberate experiment crash" in outcome.error

    def test_hang_times_out(self):
        outcome = run_experiment_guarded("EX-HANG", timeout=1.0)
        assert outcome.status == "timeout"
        assert "1.0s" in outcome.error
        assert outcome.elapsed >= 1.0

    def test_failing_report_is_distinguished_from_error(self):
        outcome = run_experiment_guarded("EX-FAIL")
        assert outcome.status == "fail"
        assert outcome.report is not None and not outcome.report.passed

    def test_retry_rotates_seed_until_pass(self):
        # Seed 2 crashes, seed 3 passes: one retry suffices.
        outcome = run_experiment_guarded("EX-FLAKY", retries=2, seed=2)
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.seed == 3
        assert outcome.report.data["seed"] == 3

    def test_no_retries_keeps_first_failure(self):
        outcome = run_experiment_guarded("EX-FLAKY", retries=0, seed=2)
        assert outcome.status == "error"
        assert outcome.attempts == 1

    def test_passing_experiment_unaffected(self):
        outcome = run_experiment_guarded("E4")
        assert outcome.ok and outcome.status == "pass"
        assert outcome.report.passed


class TestRunnerCli:
    def test_crash_prints_fail_and_suite_continues(self, capsys):
        assert main(["EX-CRASH", "E4"]) == 1
        out = capsys.readouterr().out
        assert "[ERROR] EX-CRASH" in out
        assert "RuntimeError" in out
        assert "[PASS] E4" in out  # the suite kept going
        assert "FAILED" in out and "EX-CRASH [ERROR]" in out

    def test_fail_fast_stops_the_suite(self, capsys):
        assert main(["EX-CRASH", "E4", "--fail-fast"]) == 1
        out = capsys.readouterr().out
        assert "[ERROR] EX-CRASH" in out
        assert "[PASS] E4" not in out

    def test_hang_reports_timeout(self, capsys):
        assert main(["EX-HANG", "--timeout", "1"]) == 1
        out = capsys.readouterr().out
        assert "[TIMEOUT] EX-HANG" in out

    def test_retries_and_seed_flags(self, capsys):
        assert main(["EX-FLAKY", "--retries", "1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] EX-FLAKY" in out
        assert "2 attempts" in out

    def test_no_isolation_still_captures_errors(self, capsys):
        assert main(["EX-CRASH", "E4", "--no-isolation"]) == 1
        out = capsys.readouterr().out
        assert "[ERROR] EX-CRASH" in out and "[PASS] E4" in out

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E15" in out and "E1" in out

    def test_help_shows_the_switch_defaults_as_off(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        for flag in ("--fail-fast", "--no-isolation"):
            help_line = text.split(f"{flag} ", 1)[1].split(" --", 1)[0]
            assert "(default: False)" in help_line, help_line
        assert "--keep-going" not in text
