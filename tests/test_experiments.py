"""Integration tests: the experiment harness itself.

Each experiment is exercised end-to-end (fast sweeps) and its theorem-shape
assertion checked; the heavier experiments run in benchmarks/ only, the
cheap ones are also part of the regular test suite so a regression in any
layer surfaces here immediately.
"""

import re
from pathlib import Path

import pytest

from repro.experiments.common import ALL_EXPERIMENTS, run_experiment

CHEAP = ["E3", "E4", "E5", "E7", "E8", "E9", "E12", "E14", "E15"]

#: The experiments whose ∀σ∃σ′ checks unfold an oblivious schema.
OBLIVIOUS = ["E4", "E5", "E6", "E11", "E12"]

_WALL_TIME = re.compile(r"   \(\d+\.\d\ds\)")


def recorded_tables():
    """EXPERIMENTS.md's recorded fast-mode output: experiment id -> table
    (the block between the ``[PASS]`` header and the wall-time line)."""
    text = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text()
    block = text.split("## Recorded output (fast sweeps)", 1)[1].split("```\n", 2)[1]
    tables = {}
    for chunk in block.split("\n\n")[:-1]:  # the last is the suite's summary line
        header, *body = chunk.splitlines()
        assert _WALL_TIME.fullmatch(body[-1]), body[-1]
        tables[header.split()[1]] = "\n".join(body[:-1])
    return tables


@pytest.mark.parametrize("experiment_id", CHEAP)
def test_experiment_passes(experiment_id):
    report = run_experiment(experiment_id)
    assert report.passed, report.table
    assert report.table.startswith("==")
    assert report.experiment == experiment_id


def test_registry_is_complete():
    assert list(ALL_EXPERIMENTS) == [f"E{i}" for i in range(1, 16)]


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_experiment("E99")


def test_runner_cli_selected(capsys):
    from repro.experiments.runner import main

    assert main(["E4"]) == 0
    out = capsys.readouterr().out
    assert "E4" in out and "PASS" in out


def test_runner_cli_unknown(capsys):
    from repro.experiments.runner import main

    assert main(["E99"]) == 2


class TestReportShape:
    def test_e9_reports_exact_zero(self):
        report = run_experiment("E9")
        assert report.passed
        # The table must show integer-zero distances, not floats.
        assert " 0 " in report.table or "0            True" in report.table

    def test_e4_uses_exact_rationals(self):
        report = run_experiment("E4")
        assert "1/8" in report.table

    def test_e12_reports_all_three_schemas(self):
        report = run_experiment("E12")
        for name in ("singleton", "oblivious", "adaptive"):
            assert name in report.table
        assert len(set(report.data["advantages"])) == 1


class TestRecordedTables:
    """The tables of the recorded fast run are a regression oracle that no
    in-repo reference path shares a kernel with."""

    @pytest.mark.parametrize("experiment_id", OBLIVIOUS)
    def test_table_matches_recorded_output(self, experiment_id):
        report = run_experiment(experiment_id)
        assert report.passed
        assert report.table == recorded_tables()[experiment_id]
