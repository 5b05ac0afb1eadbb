"""Cross-run comparison: what changed between run A and run B?

:func:`compare_reports` diffs two validated run reports metric-by-metric
(elapsed, counters, RSS), histogram-by-histogram (p50/p90/p99/mean/max),
and — from ``summary.phases`` — phase-by-phase, producing a ranked "what
changed" table (``python -m repro.obs compare A B``).

Everything here is pure functions over JSON-shaped data: no clocks, no
processes — deterministic and unit-testable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "compare_reports",
    "format_comparison",
    "main_compare",
]


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
            reports.append(_report.read_report(path))
        except (OSError, ValueError) as exc:
            print(f"invalid report {path}: {exc}")
            return 1
    comparison = compare_reports(
        reports[0], reports[1], threshold=args.threshold / 100.0
    )
    print(f"comparing {args.report_a} (a) vs {args.report_b} (b)")
    print(format_comparison(comparison, top_n=args.top))
    if args.fail_on_regression and comparison["regressions"]:
        return 1
    return 0

