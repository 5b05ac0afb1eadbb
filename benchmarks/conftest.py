"""Shared benchmark configuration.

Every experiment bench runs its experiment exactly once under
``benchmark.pedantic`` (experiments are deterministic — repeated rounds
would only re-measure the same computation), prints the experiment's table
(run with ``-s`` to see it), and asserts the theorem-shape check.
Performance benches (``bench_perf_*``) use the default calibration loop.

Observability hook: every bench test starts from a clean
:mod:`repro.obs.metrics` registry, and the counters each test accumulated
are written to a ``BENCH_obs.json`` trajectory artifact at session end
(path overridable via ``REPRO_BENCH_OBS``; merge artifacts from several
runs with ``benchmarks/report_trajectory.py``).  Counter values are raw
totals over however many rounds pytest-benchmark ran, so within-run
comparisons are exact for the pedantic experiment benches and indicative
for the calibrated perf benches.

Perf regression gate: tests record named throughput points through the
``perf_point`` fixture; at session end they are written to
``BENCH_perf.json`` (``repro.perf.bench/1``, path overridable via
``REPRO_BENCH_PERF``) *normalized by a host-speed calibration loop*, and
checked against the rules in ``GATED_POINTS``.  Two rule kinds: a *drop*
rule compares a point's field against the committed
``benchmarks/BENCH_perf_baseline.json`` and fails on a fractional drop
beyond the tolerance (``REPRO_PERF_GATE_TOLERANCE`` overrides it, default
25% for ``measure.unfold.throughput``); a *floor* rule fails when the field
falls below an absolute minimum regardless of baseline — used for
host-independent ratios like the speedup of E2 with the transition memo
on against off (floor 2x; the baseline records ~3.6x).  Set
``REPRO_PERF_GATE=off`` to record without gating (e.g. when refreshing the
baseline).
"""

import json
import os
import time

import pytest

from repro.api import resolve_config
from repro.obs import metrics

TRAJECTORY_SCHEMA = "repro.obs.bench-trajectory/1"
PERF_SCHEMA = "repro.perf.bench/1"

#: The points the gate enforces: name -> ("drop", field, tolerance) fails
#: when the field falls more than the fractional tolerance below the
#: committed baseline; ("floor", field, minimum) fails when the field is
#: below an absolute minimum, baseline or not.
GATED_POINTS = {
    "measure.unfold.throughput": ("drop", "normalized", 0.25),
    "experiments.e2.memo_on_vs_off": ("floor", "speedup", 2.0),
}

_RUNS = {}
_PERF_POINTS = {}
_CALIBRATION = None


def _calibration_ops_s():
    """Host-speed yardstick: pure-Python ops/s of a fixed arithmetic loop.

    Dividing measured throughput by this number gives a machine-portable
    figure, so the committed baseline gates relative engine speed rather
    than absolute host speed."""
    global _CALIBRATION
    if _CALIBRATION is None:
        ops = 300_000
        acc = 0
        start = time.perf_counter()
        for i in range(ops):
            acc += i * 3 + (i & 7)
        elapsed = time.perf_counter() - start
        _CALIBRATION = ops / elapsed if elapsed > 0 else float("inf")
    return _CALIBRATION


@pytest.fixture(autouse=True)
def _obs_capture(request):
    """Reset metrics and the run switches per test; collect counters after."""
    metrics.reset()
    resolve_config().apply()
    start = time.perf_counter()
    yield
    resolve_config().apply()
    snapshot = metrics.snapshot()
    if snapshot["counters"] or snapshot["histograms"]:
        _RUNS[request.node.nodeid] = {
            "elapsed_s": time.perf_counter() - start,
            "counters": snapshot["counters"],
        }


@pytest.fixture
def perf_point():
    """Record a named throughput point for ``BENCH_perf.json``.

    ``perf_point(name, ops_s, **extra)`` — ``ops_s`` is raw operations per
    second; the session hook adds the calibration-normalized figure."""

    def record(name, ops_s, **extra):
        _PERF_POINTS[name] = {"ops_s": float(ops_s), **extra}

    return record


def _baseline_path():
    return os.path.join(os.path.dirname(__file__), "BENCH_perf_baseline.json")


def _gate_enabled():
    return os.environ.get("REPRO_PERF_GATE", "on").strip().lower() not in (
        "off",
        "0",
        "false",
        "no",
    )


def _finish_perf(session):
    calibration = _calibration_ops_s()
    for point in _PERF_POINTS.values():
        point["normalized"] = point["ops_s"] / calibration
    payload = {
        "schema": PERF_SCHEMA,
        "created_unix": time.time(),
        "calibration_ops_s": calibration,
        "points": _PERF_POINTS,
    }
    path = os.environ.get("REPRO_BENCH_PERF", "BENCH_perf.json")
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
    except OSError:
        pass

    if not _gate_enabled():
        return
    try:
        with open(_baseline_path(), "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, json.JSONDecodeError):
        baseline = None  # no baseline committed yet: floor rules still apply
    tolerance_override = os.environ.get("REPRO_PERF_GATE_TOLERANCE")
    regressions = []
    for name, (kind, field, limit) in GATED_POINTS.items():
        new = _PERF_POINTS.get(name, {}).get(field)
        if new is None:
            continue
        if kind == "floor":
            if new < limit:
                regressions.append(
                    f"{name}: {field} {new:.4f} is below the absolute "
                    f"floor {limit:.1f}"
                )
            continue
        if baseline is None:
            continue
        base = baseline.get("points", {}).get(name, {}).get(field)
        if base is None:
            continue
        tolerance = float(tolerance_override) if tolerance_override else limit
        if new < base * (1.0 - tolerance):
            regressions.append(
                f"{name}: {field} {new:.4f} is "
                f"{(1 - new / base) * 100:.1f}% below baseline {base:.4f} "
                f"(tolerance {tolerance * 100:.0f}%)"
            )
    if regressions:
        for line in regressions:
            print(f"\nPERF REGRESSION: {line}")
        print("(refresh benchmarks/BENCH_perf_baseline.json if intentional;"
              " set REPRO_PERF_GATE=off to bypass)")
        session.exitstatus = 1


def pytest_sessionfinish(session, exitstatus):
    if _PERF_POINTS:
        _finish_perf(session)
    if not _RUNS:
        return
    path = os.environ.get("REPRO_BENCH_OBS", "BENCH_obs.json")
    payload = {
        "schema": TRAJECTORY_SCHEMA,
        "created_unix": time.time(),
        "runs": _RUNS,
    }
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
    except OSError:
        pass


@pytest.fixture
def run_report(benchmark, capsys):
    """Run an experiment once under the benchmark, print its table, assert it passed."""

    def runner(experiment_id: str):
        from repro.experiments.common import run_experiment

        report = benchmark.pedantic(
            run_experiment, args=(experiment_id,), rounds=1, iterations=1
        )
        with capsys.disabled():
            print()
            print(report)
        assert report.passed, f"{experiment_id} failed:\n{report.table}"
        return report

    return runner
