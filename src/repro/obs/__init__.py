"""Observability substrate: execution tracing, hot-path metrics, run reports.

The reproduction's constructions — Task-PIOA scheduling, dynamic PSIOA
execution, exact measure unfolding — are deep recursive computations whose
cost is otherwise invisible.  This package is the measurement substrate the
ROADMAP's performance work builds on:

* :mod:`repro.obs.trace` — a zero-dependency span tracer (context-manager
  and decorator API, monotonic clocks, nestable spans, off by default with
  near-zero disabled overhead) emitting Chrome-trace-format JSON that loads
  in ``chrome://tracing`` or Perfetto;
* :mod:`repro.obs.metrics` — process-local counters / gauges / histograms
  behind a global registry with a :func:`~repro.obs.metrics.snapshot`
  export (always on: a counter bump is one attribute increment);
* :mod:`repro.obs.distributed` — cross-process trace collection: executors
  ship buffered spans back with their results, the caller clock-aligns
  them into one merged Chrome trace with a named lane per worker (plus the
  ``python -m repro.obs trace`` merge/summarize/check CLI);
* :mod:`repro.obs.profile` — a deterministic ``sys.setprofile`` phase
  profiler attributing inclusive/exclusive time and call counts to
  semantic phases (unfold/compose/decide/transition/cache/transport),
  off by default (``--profile``) with collapsed-stack
  (flamegraph) export; profile payloads ride the backends like spans do;
* :mod:`repro.obs.analyze` — trace analytics (critical-path extraction,
  per-lane straggler/skew detection) and cross-run regression
  attribution (``python -m repro.obs compare A B``);
* :mod:`repro.obs.progress` — live chunk/experiment heartbeats rendered as
  a ``\\r``-rewritten stderr status line (off by default, the runner's
  ``--progress``; plain newline mode on non-TTY streams);
* :mod:`repro.obs.report` — the machine-readable run-report schema the
  experiment runner emits (``--metrics-out``), its validator, and the
  formatting helpers all human runner output flows through;
* :mod:`repro.obs.log` — structured JSONL event logging with job
  correlation ids (``REPRO_LOG`` gated, atomic line appends; the service
  layer's access/admission/lifecycle records flow through it);
* :mod:`repro.obs.expo` — Prometheus text exposition (and a validating
  parser) over the metrics registry, served by ``GET /v1/metrics``;
* :mod:`repro.obs.procinfo` — process introspection (peak RSS via
  ``resource.getrusage``).

Nothing in this package imports from the rest of :mod:`repro`, so every
layer — including :mod:`repro.probability.measures` at the very bottom —
can be instrumented without import cycles.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    counter,
    gauge,
    histogram,
    reset,
    snapshot,
    subtract_counters,
)
from repro.obs.distributed import (
    absorb_chunk_trace,
    check_trace,
    chunk_payload,
    merge_trace_files,
    summarize_events,
)
from repro.obs.analyze import (
    analyze_events,
    compare_reports,
    critical_path,
    lane_analysis,
)
from repro.obs.expo import parse as parse_exposition
from repro.obs.expo import render as render_exposition
from repro.obs.log import configure as configure_log
from repro.obs.log import correlation, get_logger, set_correlation
from repro.obs.procinfo import peak_rss_bytes
from repro.obs.profile import (
    PROFILER,
    Profiler,
    absorb_chunk_profile,
    chunk_profile_payload,
    register_phase,
    registered_phases,
    save_folded,
)
from repro.obs.report import (
    REPORT_SCHEMA,
    ReportSchemaError,
    build_report,
    format_record,
    format_suite_summary,
    format_summary_table,
    outcome_record,
    validate_report,
)
from repro.obs.trace import (
    TRACER,
    Tracer,
    disable,
    enable,
    instant,
    is_enabled,
    span,
    traced,
)
from repro.obs import progress

__all__ = [
    # trace
    "Tracer",
    "TRACER",
    "span",
    "traced",
    "instant",
    "enable",
    "disable",
    "is_enabled",
    # distributed
    "chunk_payload",
    "absorb_chunk_trace",
    "merge_trace_files",
    "summarize_events",
    "check_trace",
    # profile
    "Profiler",
    "PROFILER",
    "register_phase",
    "registered_phases",
    "chunk_profile_payload",
    "absorb_chunk_profile",
    "save_folded",
    # analyze
    "critical_path",
    "lane_analysis",
    "analyze_events",
    "compare_reports",
    # progress
    "progress",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "reset",
    "subtract_counters",
    # report
    "REPORT_SCHEMA",
    "ReportSchemaError",
    "outcome_record",
    "build_report",
    "validate_report",
    "format_record",
    "format_suite_summary",
    "format_summary_table",
    # log
    "configure_log",
    "get_logger",
    "correlation",
    "set_correlation",
    # expo
    "render_exposition",
    "parse_exposition",
    # procinfo
    "peak_rss_bytes",
]
