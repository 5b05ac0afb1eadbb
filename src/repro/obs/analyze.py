"""Trace analytics and cross-run comparison: *why* was a run slow?

:mod:`repro.obs.distributed` answers "what happened when" (merged span
lanes, per-lane busy/idle totals).  This module answers the three
follow-up questions performance work actually asks:

* **What was the critical path?**  :func:`critical_path` walks the merged
  trace from its longest span down through the blocking child at every
  level — the dependency chain (dispatch → chunk → retry → merge) whose
  spans bound the wall time.  Shortening any other span cannot speed the
  run up.
* **Which lanes straggled?**  :func:`lane_analysis` generalizes
  ``summarize_events``: per lane it computes the max/median chunk-duration
  ratio (skew), utilization (busy over lane wall time), and an idle-gap
  histogram over the spaces between its busy segments.  A lane whose
  slowest chunk dwarfs its median is a straggler — the signal the
  ROADMAP's adaptive-chunk-sizing item needs.
* **What changed between run A and run B?**  :func:`compare_reports`
  diffs two validated run reports metric-by-metric (elapsed, counters,
  RSS), histogram-by-histogram (p50/p90/p99/mean/max), and — from
  ``summary.phases`` — phase-by-phase, producing a ranked
  "what changed" table (``python -m repro.obs compare A B``).

Everything here is pure functions over JSON-shaped data: no clocks, no
processes — deterministic and unit-testable.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import distributed as _distributed

__all__ = [
    "critical_path",
    "lane_analysis",
    "analyze_events",
    "format_analysis",
    "compare_reports",
    "format_comparison",
    "main_analyze",
    "main_compare",
]

#: Spans that represent units of fanned-out work (skew is measured on these).
CHUNK_SPAN_NAMES = ("backend.chunk",)

#: A lane whose slowest chunk is at least this many times its median chunk
#: duration counts as a straggler (needs >= 2 chunks to be meaningful).
STRAGGLER_RATIO = 2.0

_EPS_US = 1e-3


# -- critical path ----------------------------------------------------------------


def _span_key(event: Dict[str, Any]) -> Tuple[float, float]:
    ts = float(event.get("ts", 0.0))
    return ts, ts + float(event.get("dur", 0.0))


def _depth(event: Dict[str, Any]) -> int:
    try:
        return int((event.get("args") or {}).get("depth", 0))
    except (TypeError, ValueError):
        return 0


def critical_path(
    events: Iterable[Dict[str, Any]],
    *,
    slack_us: float = 250_000.0,
    max_steps: int = 64,
) -> Dict[str, Any]:
    """The blocking chain of spans from the longest span downward.

    Starting at the longest span in the trace (the run's bounding span),
    each step descends into the child that *finished last* — the one the
    parent actually waited on.  Children are same-lane spans exactly one
    nesting level deeper and contained in the parent, plus top-level spans
    of **other** lanes contained within ``slack_us`` (remote clock
    alignment is accurate to one reply latency, so cross-lane containment
    needs slack; same-lane containment is exact).

    Returns ``{"wall_us", "steps": [{"name", "pid", "start_us", "dur_us",
    "depth"}, ...]}`` — steps ordered root first.  Empty trace -> zero
    wall, no steps.
    """
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        return {"wall_us": 0.0, "steps": []}
    current = max(spans, key=lambda e: float(e.get("dur", 0.0)))
    steps: List[Dict[str, Any]] = []
    seen: set = set()
    while current is not None and len(steps) < max_steps:
        if id(current) in seen:  # defensive: malformed traces must not loop
            break
        seen.add(id(current))
        start, end = _span_key(current)
        steps.append(
            {
                "name": str(current.get("name", "?")),
                "pid": current.get("pid", 0),
                "start_us": start,
                "dur_us": float(current.get("dur", 0.0)),
                "depth": _depth(current),
            }
        )
        pid, tid, depth = current.get("pid"), current.get("tid"), _depth(current)
        blocking: Optional[Dict[str, Any]] = None
        blocking_end = float("-inf")
        for span in spans:
            if id(span) in seen:
                continue
            s_start, s_end = _span_key(span)
            if span.get("pid") == pid and span.get("tid") == tid:
                contained = (
                    _depth(span) == depth + 1
                    and s_start >= start - _EPS_US
                    and s_end <= end + _EPS_US
                )
            else:
                # Cross-lane: a worker's outermost span belongs under the
                # caller span it ran inside, modulo clock-alignment slack.
                contained = (
                    _depth(span) == 0
                    and s_start >= start - slack_us
                    and s_end <= end + slack_us
                )
            if contained and s_end > blocking_end:
                blocking, blocking_end = span, s_end
        current = blocking
    return {"wall_us": steps[0]["dur_us"] if steps else 0.0, "steps": steps}


# -- lane skew / stragglers --------------------------------------------------------


def _median(ordered: Sequence[float]) -> float:
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def lane_analysis(
    events: Iterable[Dict[str, Any]],
    *,
    chunk_names: Sequence[str] = CHUNK_SPAN_NAMES,
    straggler_ratio: float = STRAGGLER_RATIO,
) -> List[Dict[str, Any]]:
    """Per-lane skew and utilization statistics over a (merged) trace.

    For every process lane carrying chunk spans: chunk count, total /
    median / max chunk duration, ``skew`` (max over median — 1.0 means
    perfectly even), ``utilization`` (busy over lane wall time, busy
    computed over *all* the lane's spans), an idle-gap histogram
    (count / total / max / p50 over the gaps between busy segments), and
    ``straggler`` (skew >= ``straggler_ratio`` with >= 2 chunks).
    """
    names: Dict[int, str] = {}
    chunk_durs: Dict[int, List[float]] = {}
    intervals: Dict[int, List[Tuple[float, float]]] = {}
    for event in events:
        pid = event.get("pid", 0)
        if event.get("ph") == "M":
            if event.get("name") == "process_name":
                names[pid] = (event.get("args") or {}).get("name", "")
            continue
        if event.get("ph") != "X":
            continue
        start, end = _span_key(event)
        intervals.setdefault(pid, []).append((start, end))
        if event.get("name") in chunk_names:
            chunk_durs.setdefault(pid, []).append(float(event.get("dur", 0.0)))

    lanes: List[Dict[str, Any]] = []
    for pid in sorted(chunk_durs):
        durs = sorted(chunk_durs[pid])
        segments = _distributed.union_segments(intervals[pid])
        busy = sum(end - start for start, end in segments)
        wall = segments[-1][1] - segments[0][0] if segments else 0.0
        gaps = sorted(
            later[0] - earlier[1] for earlier, later in zip(segments, segments[1:])
        )
        median = _median(durs)
        skew = (durs[-1] / median) if median > 0 else 1.0
        lanes.append(
            {
                "pid": pid,
                "name": names.get(pid),
                "chunks": len(durs),
                "chunk_total_us": sum(durs),
                "chunk_median_us": median,
                "chunk_max_us": durs[-1],
                "skew": skew,
                "utilization": (busy / wall) if wall > 0 else 1.0,
                "idle_gaps": {
                    "count": len(gaps),
                    "total_us": sum(gaps),
                    "max_us": gaps[-1] if gaps else 0.0,
                    "p50_us": _median(gaps) if gaps else 0.0,
                },
                "straggler": len(durs) >= 2 and skew >= straggler_ratio,
            }
        )
    return lanes


def analyze_events(
    events: Sequence[Dict[str, Any]], *, slack_us: float = 250_000.0
) -> Dict[str, Any]:
    """The run report's ``summary.analysis`` block for a merged trace."""
    lanes = lane_analysis(events)
    return {
        "critical_path": critical_path(events, slack_us=slack_us),
        "lanes": lanes,
        "stragglers": [
            {"pid": lane["pid"], "name": lane["name"], "skew": lane["skew"]}
            for lane in lanes
            if lane["straggler"]
        ],
    }


def format_analysis(analysis: Dict[str, Any]) -> str:
    """A human rendering of :func:`analyze_events` output."""
    path = analysis.get("critical_path", {})
    lines = [f"critical path ({path.get('wall_us', 0.0) / 1000.0:.1f}ms wall):"]
    for step in path.get("steps", []):
        indent = "  " * (len(lines))
        lines.append(
            f"{indent}{step['name']} (pid {step['pid']}, "
            f"{step['dur_us'] / 1000.0:.1f}ms)"
        )
    lanes = analysis.get("lanes", [])
    if lanes:
        lines.append("lanes:")
        for lane in lanes:
            name = lane.get("name") or f"pid {lane['pid']}"
            flag = "  ** straggler" if lane.get("straggler") else ""
            lines.append(
                f"  {name}: {lane['chunks']} chunks, "
                f"median {lane['chunk_median_us'] / 1000.0:.1f}ms / "
                f"max {lane['chunk_max_us'] / 1000.0:.1f}ms "
                f"(skew {lane['skew']:.2f}), "
                f"utilization {lane['utilization'] * 100.0:.0f}%, "
                f"{lane['idle_gaps']['count']} idle gap(s) "
                f"totalling {lane['idle_gaps']['total_us'] / 1000.0:.1f}ms{flag}"
            )
    stragglers = analysis.get("stragglers", [])
    if stragglers:
        lines.append(
            "stragglers: "
            + ", ".join(s.get("name") or f"pid {s['pid']}" for s in stragglers)
        )
    return "\n".join(lines)


# -- cross-run comparison ----------------------------------------------------------

#: Histogram statistics compared per histogram (absent keys are skipped,
#: so /2-era reports without p99/mean still compare).
_HIST_STATS = ("p50", "p90", "p99", "mean", "max")


def _record_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a validated run report into comparable ``name -> value``."""
    out: Dict[str, float] = {}
    summary = report.get("summary", {})
    if isinstance(summary.get("wall_time_s"), (int, float)):
        out["summary.wall_time_s"] = float(summary["wall_time_s"])
    for record in report.get("experiments", []):
        exp = record.get("experiment", "?")
        out[f"{exp}.elapsed_s"] = float(record.get("elapsed_s", 0.0))
        rss = record.get("peak_rss_bytes")
        if isinstance(rss, (int, float)) and not isinstance(rss, bool):
            out[f"{exp}.peak_rss_bytes"] = float(rss)
        for name, value in (record.get("counters") or {}).items():
            out[f"{exp}.counter.{name}"] = float(value)
        for name, stats in (record.get("histograms") or {}).items():
            for stat in _HIST_STATS:
                value = stats.get(stat)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    out[f"{exp}.hist.{name}.{stat}"] = float(value)
    # Phase calls follow from the counters; only the seconds are new.
    for exp, timed in (summary.get("phases") or {}).items():
        for phase, totals in timed.items():
            out[f"phase.{exp}.{phase}.s"] = float(totals["s"])
    return out


def compare_reports(
    report_a: Dict[str, Any],
    report_b: Dict[str, Any],
    *,
    threshold: float = 0.05,
) -> Dict[str, Any]:
    """Diff two run reports metric/histogram/phase-wise, ranked by |change|.

    Every comparable metric of both reports becomes a row ``{"metric",
    "a", "b", "delta", "pct"}`` (``pct`` is ``(b - a) / a``, ``None`` when
    ``a`` is zero and ``b`` is not — an appearance, ranked above any
    finite change).  Rows are ranked by descending ``|pct|``; rows within
    ``threshold`` (and rows identical on both sides) rank below changed
    ones.  ``regressions`` are the rows that *increased* beyond the
    threshold, ``improvements`` the ones that decreased — identical
    reports therefore compare with zero regressions.
    """
    metrics_a = _record_metrics(report_a)
    metrics_b = _record_metrics(report_b)
    rows: List[Dict[str, Any]] = []
    for metric in sorted(set(metrics_a) | set(metrics_b)):
        a = metrics_a.get(metric, 0.0)
        b = metrics_b.get(metric, 0.0)
        delta = b - a
        if a != 0.0:
            pct: Optional[float] = delta / a
        else:
            pct = 0.0 if b == 0.0 else None  # appeared out of nothing
        rows.append({"metric": metric, "a": a, "b": b, "delta": delta, "pct": pct})

    def magnitude(row: Dict[str, Any]) -> Tuple[float, float]:
        pct = row["pct"]
        return (float("inf") if pct is None else abs(pct), abs(row["delta"]))

    rows.sort(key=magnitude, reverse=True)
    regressions = [
        r for r in rows if r["delta"] > 0 and (r["pct"] is None or r["pct"] >= threshold)
    ]
    improvements = [
        r for r in rows if r["delta"] < 0 and r["pct"] is not None and -r["pct"] >= threshold
    ]
    return {
        "threshold": threshold,
        "rows": rows,
        "regressions": regressions,
        "improvements": improvements,
    }


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def format_comparison(comparison: Dict[str, Any], *, top_n: int = 20) -> str:
    """The ranked "what changed" table for :func:`compare_reports` output."""
    changed = [
        row
        for row in comparison["rows"]
        if row["delta"] != 0
        and (row["pct"] is None or abs(row["pct"]) >= comparison["threshold"])
    ]
    lines = [
        f"{len(comparison['regressions'])} regression(s), "
        f"{len(comparison['improvements'])} improvement(s) "
        f"beyond {comparison['threshold'] * 100.0:.1f}% "
        f"({len(comparison['rows'])} metrics compared)"
    ]
    if not changed:
        lines.append("no changes beyond the threshold")
        return "\n".join(lines)
    headers = ["metric", "a", "b", "delta", "pct"]
    table: List[List[str]] = []
    for row in changed[:top_n]:
        pct = row["pct"]
        table.append(
            [
                row["metric"],
                _format_value(row["a"]),
                _format_value(row["b"]),
                _format_value(row["delta"]),
                "new" if pct is None else f"{pct * 100.0:+.1f}%",
            ]
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in table)) for i in range(len(headers))
    ]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    if len(changed) > top_n:
        lines.append(f"... and {len(changed) - top_n} more changed metric(s)")
    return "\n".join(lines)


# -- CLI ---------------------------------------------------------------------------


def main_analyze(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.obs analyze TRACE... [--json]``: offline analytics."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs analyze",
        description="Critical-path and straggler analysis over saved trace files.",
    )
    parser.add_argument("traces", nargs="+", help="trace JSON files (--trace-dir output)")
    parser.add_argument(
        "--slack-us",
        type=float,
        default=250_000.0,
        help="cross-lane containment slack (remote clock-alignment error bound)",
    )
    parser.add_argument("--json", action="store_true", help="print the analysis as JSON")
    args = parser.parse_args(argv)
    try:
        merged = _distributed.merge_trace_files(args.traces)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"cannot load traces: {exc}")
        return 1
    analysis = analyze_events(merged["traceEvents"], slack_us=args.slack_us)
    if args.json:
        print(json.dumps(analysis, indent=1, sort_keys=True))
    else:
        print(format_analysis(analysis))
    return 0


def main_compare(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.obs compare A B [--threshold PCT]``: rank what changed.

    Exits 0 even when regressions exist (the table is the product; CI uses
    it as a non-blocking signal) unless ``--fail-on-regression`` is given.
    """
    import argparse

    from repro.obs import report as _report

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs compare",
        description="Diff two run reports metric/histogram/phase-wise.",
    )
    parser.add_argument("report_a", help="baseline run report (--metrics-out JSON)")
    parser.add_argument("report_b", help="candidate run report")
    parser.add_argument(
        "--threshold",
        type=float,
        default=5.0,
        metavar="PCT",
        help="ignore changes below this percentage (default 5)",
    )
    parser.add_argument(
        "--top", type=int, default=20, metavar="N", help="show at most N changed rows"
    )
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when any metric regressed beyond the threshold",
    )
    args = parser.parse_args(argv)
    reports = []
    for path in (args.report_a, args.report_b):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            _report.validate_report(payload)
        except (OSError, json.JSONDecodeError, _report.ReportSchemaError) as exc:
            print(f"invalid report {path}: {exc}")
            return 1
        reports.append(payload)
    comparison = compare_reports(
        reports[0], reports[1], threshold=args.threshold / 100.0
    )
    print(f"comparing {args.report_a} (a) vs {args.report_b} (b)")
    print(format_comparison(comparison, top_n=args.top))
    if args.fail_on_regression and comparison["regressions"]:
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main_analyze())
