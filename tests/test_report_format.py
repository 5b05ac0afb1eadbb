"""The run-report validator, rule by rule, on a report carrying every block.

One traced ``E12 E15 --backend pool:2`` run with a store directory writes a
report that holds all seven optional summary blocks (``cache`` with
``persistent``, ``backend``, ``resilience``, ``trace``, ``phases``,
``analysis``, ``config``) and a histogram.  Each entry of
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

R = ("experiments", 1)  # E15: it carries a histogram
A = R + ("attempt_history", 0)
H = R + ("histograms", "faults.plan.seed")
S = ("summary",)
C = S + ("cache",)
P = C + ("persistent",)
B = S + ("backend",)
Z = S + ("resilience",)
T = S + ("trace",)
TP = T + ("processes", 0)
TS = T + ("slowest_spans", 0)
PH = S + ("phases", "E15", "measure.unfold")
AN = S + ("analysis",)
CP = AN + ("critical_path",)
CS = CP + ("steps", 0)
L = AN + ("lanes", 0)
CF = S + ("config",)

RECORD_FIELDS = (
    "experiment", "claim", "status", "ok", "elapsed_s", "attempts", "seed",
    "default_seed", "attempt_history", "fault_seeds", "peak_rss_bytes",
    "counters", "histograms", "table", "error", "trace_file",
)
ATTEMPT_FIELDS = ("attempt", "seed", "status", "error_class", "elapsed_s")
HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "p50", "p90", "samples")

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
    (R + ("trace_file",), 1),
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
    # a histogram export
    (H, [1, 2]),
    (R + ("histograms", 7), {}),
    *[(H + (name,), GONE) for name in HISTOGRAM_FIELDS],
    (H + ("count",), -1),
    (H + ("count",), "1"),
    (H + ("samples",), {}),
    (H + ("p99",), "fast"),
    (H + ("mean",), True),
    # the summary
    (S, []),
    (S, GONE),
    (S + ("total",), 99),
    (S + ("total",), GONE),
    (S + ("passed",), 0),
    (S + ("failures",), {}),
    (S + ("wall_time_s",), "1s"),
    (S + ("wall_time_s",), GONE),
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
    # summary.resilience
    (Z, []),
    (Z + ("chunk_deadline_s",), 0),
    (Z + ("chunk_deadline_s",), -1.0),
    (Z + ("chunk_deadline_s",), True),
    (Z + ("chunk_deadline_s",), "600"),
    (Z + ("counters",), GONE),
    (Z + ("counters",), []),
    (Z + ("counters", "bad"), "str"),
    # summary.trace
    (T, 12),
    (T + ("events",), GONE),
    (T + ("events",), -1),
    (T + ("events",), "12"),
    (T + ("events",), True),
    (T + ("files",), "not-a-list"),
    (T + ("files",), [1]),
    (T + ("processes",), GONE),
    (T + ("processes",), "x"),
    (TP, "process"),
    (TP + ("pid",), GONE),
    (TP + ("pid",), "1"),
    (TP + ("name",), 1),
    (TP + ("spans",), -2),
    (TP + ("spans",), "1"),
    (TP + ("instants",), -1),
    (TP + ("busy_us",), GONE),
    (TP + ("busy_us",), -1),
    (TP + ("busy_us",), True),
    (TP + ("idle_us",), "0"),
    (TP + ("wall_us",), -1),
    (T + ("slowest_spans",), GONE),
    (T + ("slowest_spans",), "x"),
    (TS, "span"),
    (TS + ("name",), GONE),
    (TS + ("name",), 1),
    (TS + ("pid",), "1"),
    (TS + ("dur_us",), None),
    (TS + ("dur_us",), -1),
    (TS + ("dur_us",), True),
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
    # summary.analysis
    (AN, []),
    (CP, GONE),
    (CP, []),
    (CP + ("wall_us",), GONE),
    (CP + ("wall_us",), -1),
    (CP + ("wall_us",), True),
    (CP + ("steps",), GONE),
    (CP + ("steps",), "x"),
    (CS, "step"),
    (CS + ("name",), 1),
    (CS + ("pid",), "1"),
    (CS + ("start_us",), "0"),
    (CS + ("start_us",), True),
    (CS + ("dur_us",), None),
    (AN + ("lanes",), GONE),
    (AN + ("lanes",), "x"),
    (L, "lane"),
    (L + ("pid",), GONE),
    (L + ("chunks",), -1),
    (L + ("chunks",), "1"),
    (L + ("skew",), -1),
    (L + ("skew",), True),
    (L + ("utilization",), -0.5),
    (L + ("idle_gaps",), GONE),
    (L + ("idle_gaps",), []),
    (L + ("straggler",), GONE),
    (L + ("straggler",), 1),
    (AN + ("stragglers",), GONE),
    (AN + ("stragglers",), "x"),
    # summary.config
    (CF, "pool:2"),
    (CF + ("backend",), ["pool:2"]),
    (CF + ("backend",), {"spec": "pool:2"}),
    (CF + (1,), "x"),
]

#: Changes the format allows: unknown keys at every level, optional keys
#: left out, null where it is allowed, and blocks that came and went.
ALLOWED = [
    (("extra",), 1),
    (R + ("extra",), 1),
    (A + ("extra",), 1),
    (H + ("extra",), 1),
    (S + ("profile",), {"enabled": True, "lanes": []}),
    (C + ("extra",), 1),
    (B + ("extra",), 1),
    (T + ("extra",), 1),
    (PH + ("extra",), 1),
    (L + ("extra",), 1),
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
    (T + ("files",), GONE),
    (TP + ("name",), None),
    (TP + ("name",), GONE),
    (CS + ("start_us",), -1.5),
    (CF + ("cache_dir",), None),
    *[(S + (block,), GONE) for block in (
        "cache", "backend", "resilience", "trace", "phases", "analysis", "config"
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
        "E12", "E15", "--backend", "pool:2", "--cache", "on",
        "--cache-dir", str(root / "store"), "--trace-dir", str(root / "traces"),
        "--metrics-out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert {"cache", "backend", "resilience", "trace", "phases", "analysis",
            "config"} <= set(report["summary"])
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
