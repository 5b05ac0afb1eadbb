"""Observability substrate: hot-path metrics, phase timers, run reports.

The reproduction's constructions — Task-PIOA scheduling, dynamic PSIOA
execution, exact measure unfolding — are deep recursive computations whose
cost is otherwise invisible.  This package is the measurement substrate the
ROADMAP's performance work builds on; every part of it is always on, so a
run report says where the time went without a re-run:

* :mod:`repro.obs.metrics` — process-local counters / gauges / histograms
  / timers behind a global registry with a
  :func:`~repro.obs.metrics.snapshot` export (a counter bump is one
  attribute increment, a phase timer one ``perf_counter_ns`` pair per
  call; the timers become every report's ``summary.phases``);
* :mod:`repro.obs.analyze` — cross-run regression attribution
  (``python -m repro.obs compare A B``);
* :mod:`repro.obs.report` — the machine-readable run-report schema the
  experiment runner emits (``--metrics-out``), its reader and validator,
  and the formatting helpers all human runner output flows through;
* :mod:`repro.obs.log` — structured JSONL event logging with job
  correlation ids (``REPRO_LOG`` gated, atomic line appends; the service
  layer's access/admission/lifecycle records flow through it);
* :mod:`repro.obs.expo` — Prometheus text exposition (and a validating
  parser) over the metrics registry, served by ``GET /v1/metrics``;
* :mod:`repro.obs.procinfo` — process introspection (peak RSS via
  ``resource.getrusage``).

Nothing in this package imports from the rest of :mod:`repro`, so every
layer — including :mod:`repro.probability.measures` at the very bottom —
can be instrumented without import cycles.  The package itself exports
nothing: import the submodule you need (``from repro.obs import metrics``).
"""
