"""The run-report validator, rule by rule, on a report carrying every block.

One ``E15 --backend pool:2`` run with a store directory writes a report
that holds all five optional summary blocks (``cache`` with
``persistent``, ``backend``, ``resilience``, ``phases``, ``config``) and a
histogram.  Each entry of
:data:`VIOLATIONS` breaks one rule of the format in a copy of it, and
:func:`repro.obs.report.validate_report` must reject every copy; each entry
of :data:`ALLOWED` is a change the format permits (open objects, optional
keys, nulls), and it must accept every one of those.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.obs.report import ReportSchemaError, validate_report

_BASELINE = Path(__file__).resolve().parents[1] / "benchmarks/REPORT_obs_baseline.json"

#: Marks a key to delete rather than set.
GONE = object()

R = ("experiments", 0)  # E15: it carries a histogram
A = R + ("attempt_history", 0)
H = R + ("histograms", "faults.plan.seed")
S = ("summary",)
C = S + ("cache",)
P = C + ("persistent",)
B = S + ("backend",)
Z = S + ("resilience",)
PH = S + ("phases", "E15", "measure.unfold")
CF = S + ("config",)

RECORD_FIELDS = (
    "experiment", "claim", "status", "ok", "elapsed_s", "attempts", "seed",
    "default_seed", "attempt_history", "fault_seeds", "peak_rss_bytes",
    "counters", "histograms", "table", "error",
)
ATTEMPT_FIELDS = ("attempt", "seed", "status", "error_class", "elapsed_s")
HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "p50", "p90", "samples")
#: The resolved ``RunConfig`` in ``summary.config``: any scalar, no container.
CONFIG_FIELDS = (
    "full", "timeout", "retries", "seed", "isolated", "keep_going", "parallel",
    "cache", "cache_dir", "backend", "chunk_deadline",
)

VIOLATIONS = [
    ((), ["not", "an", "object"]),
    (("schema",), "repro.obs.run-report/3"),
    (("schema",), GONE),
    (("created_unix",), GONE),
    (("created_unix",), "yesterday"),
    (("argv",), "E12 E15"),
    (("fast",), GONE),
    (("fast",), 1),
    (("experiments",), GONE),
    (("experiments",), {}),
    (("schema",), "repro.obs.run-report/5"),
    (("schema",), 4),
    (("created_unix",), True),
    (("created_unix",), None),
    (("argv",), {}),
    (("fast",), None),
    (("experiments",), "E15"),
    (("experiments",), None),
    # a record
    (R, "E15"),
    *[(R + (name,), GONE) for name in RECORD_FIELDS],
    (R + ("experiment",), 15),
    (R + ("claim",), None),
    (R + ("status",), 1),
    (R + ("status",), "exploded"),
    (R + ("ok",), "yes"),
    (R + ("ok",), 1),
    (R + ("ok",), False),  # inconsistent with status "pass"
    (R + ("elapsed_s",), "0.4"),
    (R + ("elapsed_s",), True),
    (R + ("attempts",), 1.0),
    (R + ("attempts",), True),
    (R + ("attempts",), 2),  # the history holds one attempt
    (R + ("seed",), "7"),
    (R + ("seed",), True),
    (R + ("default_seed",), 1.5),
    (R + ("attempt_history",), {}),
    (R + ("fault_seeds",), {}),
    (R + ("peak_rss_bytes",), 1.5),
    (R + ("peak_rss_bytes",), True),
    (R + ("counters",), []),
    (R + ("counters", "bad"), "str"),
    (R + ("counters", 1), 2),
    (R + ("histograms",), []),
    (R + ("table",), 1),
    (R + ("error",), 1),
    (R + ("experiment",), None),
    (R + ("claim",), 1),
    (R + ("status",), None),
    (R + ("status",), "PASS"),
    (R + ("ok",), None),
    (R + ("elapsed_s",), None),
    (R + ("attempts",), "1"),
    (R + ("attempts",), None),
    (R + ("seed",), 1.5),
    (R + ("default_seed",), "20260806"),
    (R + ("default_seed",), True),
    (R + ("attempt_history",), "1"),
    (R + ("attempt_history",), None),
    (R + ("fault_seeds",), "7"),
    (R + ("fault_seeds",), None),
    (R + ("peak_rss_bytes",), "1"),
    (R + ("counters",), None),
    (R + ("counters", "bad"), 1.5),
    (R + ("counters", "bad"), True),
    (R + ("counters", "bad"), None),
    (R + ("histograms",), None),
    (R + ("table",), ["row"]),
    (R + ("error",), []),
    # an attempt
    (A, "attempt"),
    *[(A + (name,), GONE) for name in ATTEMPT_FIELDS],
    (A + ("attempt",), "1"),
    (A + ("attempt",), True),
    (A + ("attempt",), 2),  # attempts are numbered 1..n
    (A + ("seed",), "x"),
    (A + ("status",), 1),
    (A + ("status",), "exploded"),
    (A + ("status",), "fail"),  # the last attempt's status is the record's
    (A + ("error_class",), 1),
    (A + ("elapsed_s",), "x"),
    (A + ("elapsed_s",), True),
    (A + ("elapsed_s",), -1),
    (A, None),
    (A + ("attempt",), None),
    (A + ("attempt",), 0),
    (A + ("seed",), 1.5),
    (A + ("seed",), True),
    (A + ("status",), None),
    (A + ("error_class",), []),
    (A + ("elapsed_s",), None),
    # a histogram export
    (H, [1, 2]),
    (R + ("histograms", 7), {}),
    *[(H + (name,), GONE) for name in HISTOGRAM_FIELDS],
    (H + ("count",), -1),
    (H + ("count",), "1"),
    (H + ("samples",), {}),
    (H + ("p99",), "fast"),
    (H + ("mean",), True),
    (H, None),
    (H + ("count",), True),
    (H + ("count",), 1.5),
    (H + ("count",), None),
    (H + ("samples",), None),
    (H + ("samples",), "7"),
    (H + ("p99",), True),
    (H + ("mean",), "7.5"),
    # the summary
    (S, []),
    (S, GONE),
    (S + ("total",), 99),
    (S + ("total",), GONE),
    (S + ("passed",), 0),
    (S + ("failures",), {}),
    (S + ("wall_time_s",), "1s"),
    (S + ("wall_time_s",), GONE),
    (S, None),
    (S + ("total",), -1),
    (S + ("total",), True),
    (S + ("total",), "1"),
    (S + ("passed",), -1),
    (S + ("passed",), True),
    (S + ("passed",), GONE),
    (S + ("failures",), GONE),
    (S + ("failures",), None),
    (S + ("wall_time_s",), True),
    (S + ("wall_time_s",), None),
    # summary.cache
    (C, "on"),
    (C + ("enabled",), GONE),
    (C + ("enabled",), "yes"),
    (C + ("counters",), GONE),
    (C + ("counters",), []),
    (C + ("counters", "bad"), "str"),
    (C + ("counters", 1), 2),
    (P, "/store"),
    (P + ("dir",), GONE),
    (P + ("dir",), 1),
    (P + ("entries",), GONE),
    (P + ("entries",), 1.5),
    (P + ("bytes",), GONE),
    (P + ("bytes",), "0"),
    (C, None),
    (C + ("enabled",), 1),
    (C + ("counters", "bad"), 1.5),
    (C + ("counters", "bad"), True),
    (P, None),
    (P + ("dir",), None),
    (P + ("entries",), True),
    (P + ("bytes",), True),
    (P + ("bytes",), 1.5),
    # summary.backend
    (B, "pool:2"),
    (B + ("name",), GONE),
    (B + ("name",), 7),
    (B + ("spec",), None),
    (B + ("parallelism",), GONE),
    (B + ("parallelism",), 0),
    (B + ("parallelism",), True),
    (B + ("parallelism",), "2"),
    (B + ("workers_started",), -1),
    (B + ("workers_started",), True),
    (B + ("workers_started",), "2"),
    (B, None),
    (B + ("name",), None),
    (B + ("spec",), GONE),
    (B + ("spec",), 2),
    (B + ("parallelism",), None),
    (B + ("parallelism",), 2.0),
    (B + ("workers_started",), None),
    (B + ("workers_started",), 2.0),
    # summary.resilience
    (Z, []),
    (Z + ("chunk_deadline_s",), 0),
    (Z + ("chunk_deadline_s",), -1.0),
    (Z + ("chunk_deadline_s",), True),
    (Z + ("chunk_deadline_s",), "600"),
    (Z + ("counters",), GONE),
    (Z + ("counters",), []),
    (Z + ("counters", "bad"), "str"),
    (Z, None),
    (Z + ("chunk_deadline_s",), "30s"),
    (Z + ("counters",), None),
    (Z + ("counters", "bad"), 1.5),
    (Z + ("counters", "bad"), True),
    (Z + ("counters", 1), 2),
    # summary.phases
    (S + ("phases",), []),
    (S + ("phases", "E15"), "not-an-object"),
    (PH, 5),
    (PH + ("calls",), GONE),
    (PH + ("calls",), -1),
    (PH + ("calls",), True),
    (PH + ("s",), GONE),
    (PH + ("s",), -0.1),
    (PH + ("s",), "0.1"),
    (S + ("phases",), None),
    (S + ("phases", 15), {}),
    (S + ("phases", "E15", 1), {"calls": 1, "s": 0.1}),
    (S + ("phases", "E15", "measure.unfold"), None),
    (PH + ("calls",), 1.5),
    (PH + ("calls",), None),
    (PH + ("s",), True),
    (PH + ("s",), None),
    # summary.config
    (CF, "pool:2"),
    (CF + ("backend",), ["pool:2"]),
    (CF + ("backend",), {"spec": "pool:2"}),
    (CF + (1,), "x"),
    (CF, None),
    *[(CF + (name,), [1]) for name in CONFIG_FIELDS],
]

#: Changes the format allows: unknown keys at every level, optional keys
#: left out, null where it is allowed, and blocks that came and went.
ALLOWED = [
    (("extra",), 1),
    (R + ("extra",), 1),
    (A + ("extra",), 1),
    (H + ("extra",), 1),
    (S + ("profile",), {"enabled": True, "lanes": []}),
    (S + ("trace",), {"events": 12, "processes": [], "slowest_spans": []}),
    (S + ("analysis",), {"critical_path": {"wall_us": 1.0, "steps": []}}),
    (R + ("trace_file",), "traces/E15.trace.json"),
    (C + ("extra",), 1),
    (B + ("extra",), 1),
    (PH + ("extra",), 1),
    (("argv",), GONE),
    (("argv",), None),
    (A + ("seed",), 3),
    (H + ("p99",), GONE),
    (H + ("mean",), None),
    (H + ("min",), None),
    (P, GONE),
    (B + ("workers_started",), GONE),
    (Z + ("chunk_deadline_s",), GONE),
    (Z + ("chunk_deadline_s",), None),
    (CF + ("cache_dir",), None),
    (R + ("seed",), 7),
    (R + ("default_seed",), None),
    (R + ("peak_rss_bytes",), None),
    (R + ("table",), None),
    (R + ("error",), "detail"),
    (R + ("attempt_history",), []),
    (R + ("histograms",), {}),
    (A + ("error_class",), "RuntimeError"),
    (A + ("elapsed_s",), 0),
    *[(H + (name,), None) for name in ("sum", "min", "max", "p50", "p90")],
    (H + ("samples",), []),
    (P + ("entries",), 9),
    (B + ("parallelism",), 1),
    (B + ("workers_started",), 0),
    (Z + ("chunk_deadline_s",), 30),
    (Z + ("counters",), {}),
    (S + ("phases",), {}),
    (S + ("phases", "E15"), {}),
    (PH + ("calls",), 0),
    (PH + ("s",), 0),
    (CF, {}),
    *[(CF + (name,), "x") for name in CONFIG_FIELDS],
    *[
        (CF + (name,), None)
        for name in CONFIG_FIELDS
        if name not in ("seed", "cache_dir", "chunk_deadline")  # already null
    ],
    *[(S + (block,), GONE) for block in (
        "cache", "backend", "resilience", "phases", "config"
    )],
]


def _describe(case):
    path, value = case
    shown = "gone" if value is GONE else repr(value)[:20]
    return f"{'.'.join(map(str, path)) or 'report'}={shown}"


def _apply(report, case):
    path, value = case
    if not path:
        return value
    mutated = copy.deepcopy(report)
    target = mutated
    for key in path[:-1]:
        target = target[key]
    if value is GONE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return mutated


@pytest.fixture(scope="module")
def full_report(tmp_path_factory):
    from repro.experiments import runner

    root = tmp_path_factory.mktemp("full-report")
    out = root / "report.json"
    code = runner.main([
        "E15", "--backend", "pool:2", "--cache", "on",
        "--cache-dir", str(root / "store"), "--metrics-out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert {"cache", "backend", "resilience", "phases", "config"} <= set(report["summary"])
    assert "persistent" in report["summary"]["cache"]
    return report


def test_full_report_validates(full_report):
    validate_report(full_report)


def test_committed_baseline_validates():
    validate_report(json.loads(_BASELINE.read_text()))


@pytest.mark.parametrize("case", VIOLATIONS, ids=map(_describe, VIOLATIONS))
def test_violation_is_rejected(full_report, case):
    mutated = _apply(full_report, case)
    assert repr(mutated) != repr(full_report)  # 1 == True == 1.0 in Python
    with pytest.raises(ReportSchemaError):
        validate_report(mutated)


@pytest.mark.parametrize("case", ALLOWED, ids=map(_describe, ALLOWED))
def test_allowed_change_is_accepted(full_report, case):
    mutated = _apply(full_report, case)
    assert repr(mutated) != repr(full_report)  # 1 == True == 1.0 in Python
    validate_report(mutated)


def test_error_names_the_json_path(full_report):
    mutated = _apply(full_report, (PH + ("calls",), -1))
    path = r"summary\.phases\['E15'\]\['measure\.unfold'\]\.calls"
    with pytest.raises(ReportSchemaError, match=path):
        validate_report(mutated)


#: docs/observability.md: where each deleted span family's answer lives now,
#: as a check on one report: (span family, check of the report).
SPAN_ANSWERS = [
    ("experiment", lambda report: (
        report["experiments"][0]["elapsed_s"] > 0 and report["summary"]["phases"]["E15"]
    )),
    ("measure.execution_measure", lambda report: (
        report["summary"]["phases"]["E15"]["measure.unfold"]["calls"] > 0
        and report["experiments"][0]["counters"]["measure.unfold.calls"] > 0
    )),
    ("fault.injected", lambda report: (
        report["experiments"][0]["counters"]["faults.injected"] > 0
    )),
    ("backend.retry", lambda report: (
        set(report["summary"]["resilience"]) == {"chunk_deadline_s", "counters"}
    )),
    ("parallel", lambda report: all(
        report["experiments"][0]["counters"][name] > 0
        for name in ("perf.parallel.maps", "perf.parallel.items", "perf.parallel.socket.chunks")
    )),
]


@pytest.mark.parametrize(
    "check", [check for _, check in SPAN_ANSWERS], ids=[family for family, _ in SPAN_ANSWERS]
)
def test_deleted_span_answer_is_in_the_report(full_report, check):
    assert check(full_report)
