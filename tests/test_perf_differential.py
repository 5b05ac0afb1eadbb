"""Differential lockdown of the perf layer.

The memoization and parallelism machinery must be *invisible* in results:

* every experiment's report — table, verdict, data — is identical with the
  cache on and off (exact equality; all arithmetic is rational);
* the runner's machine-readable report is byte-identical at every
  ``--parallel N`` modulo wall-clock/pid-flavoured fields;
* inner sweep parallelism (the ``REPRO_BACKEND`` execution backend) does
  not change experiment results either;
* the unfolding engine decides every fragment exactly once (the historical
  double-decide of depth-bound fragments in ``execution_measure`` stays
  fixed), pinned by counting scheduler invocations;
* the phase timers of chunks run elsewhere merge exactly once: a sweep's
  phase call counts are the same on every backend, a lost chunk included.
"""

import json
import multiprocessing
import os
import time
from fractions import Fraction

import pytest

from repro.core.psioa import TablePSIOA
from repro.core.signature import Signature
from repro.experiments.common import ALL_EXPERIMENTS, run_experiment, set_experiment_seed
from repro.obs import metrics
from repro.perf import backends as perf_backends
from repro.perf import cache as perf_cache
from repro.probability.measures import DiscreteMeasure, dirac
from repro.semantics.measure import execution_measure
from repro.semantics.scheduler import ActionSequenceScheduler, Scheduler
from tests.helpers import scrub_record, scrub_report

#: Experiment ``data`` keys that carry wall-clock measurements.
VOLATILE_DATA_KEYS = {"timings_ms"}
#: Observability summary blocks scrubbed before byte comparison on top of
#: the timing :func:`tests.helpers.scrub_report` always drops:
#: ``summary.config`` records the resolved RunConfig, and differential runs
#: intentionally vary knobs — provenance, like ``argv``.
OPTIONAL_SUMMARY_BLOCKS = ("config",)
#: Counters of transport recovery: retries, dead workers, caller fallbacks
#: and supervision (reconnects, quarantines, heartbeats).  They count how
#: the transport recovered from faults, so they differ between runs when a
#: faulty transport (a chaos proxy) sits under the backend; results never do.
TRANSPORT_RECOVERY_COUNTERS = (
    "perf.parallel.chunk_fallbacks",
    "perf.parallel.socket.dead_workers",
    "perf.parallel.socket.retries",
    "perf.supervise.",
)


def _normalized(report):
    data = {k: v for k, v in report.data.items() if k not in VOLATILE_DATA_KEYS}
    return (report.experiment, report.claim, bool(report.passed), report.table, repr(data))


def _scrub_transport_recovery(payload):
    """Drop :data:`TRANSPORT_RECOVERY_COUNTERS` from every counter block."""
    blocks = [record["counters"] for record in payload["experiments"]]
    blocks += [
        (payload["summary"].get(name) or {}).get("counters", {})
        for name in ("cache", "resilience")
    ]
    for counters in blocks:
        for name in [n for n in counters if n.startswith(TRANSPORT_RECOVERY_COUNTERS)]:
            del counters[name]
    return payload


class TestCachedVersusUncached:
    @pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
    def test_experiment_identical_with_cache_on_and_off(self, experiment_id):
        set_experiment_seed(None)
        perf_cache.configure(enabled=True)
        cached = run_experiment(experiment_id)
        perf_cache.configure(enabled=False)
        uncached = run_experiment(experiment_id)
        assert _normalized(cached) == _normalized(uncached)
        assert cached.passed and uncached.passed


class TestRunnerParallelism:
    def test_reports_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "on")
        from repro.experiments import runner

        subset = ["E1", "E5", "E9", "E12", "E15"]
        scrubbed = {}
        # ``None`` passes no flag: the auto worker count.
        for workers in (None, 1, 2, 4):
            out = tmp_path / f"report-{workers}.json"
            flag = [] if workers is None else ["--parallel", str(workers)]
            code = runner.main(subset + flag + ["--metrics-out", str(out)])
            assert code == 0
            # The backend may sit on a faulty transport (the CI chaos job
            # runs this suite through chaos proxies): how it recovered may
            # differ between runs, what it computed may not.
            payload = _scrub_transport_recovery(json.loads(out.read_text()))
            scrubbed[workers] = scrub_report(payload, summary=OPTIONAL_SUMMARY_BLOCKS)
        assert scrubbed[None] == scrubbed[1] == scrubbed[2] == scrubbed[4]

    def test_fail_fast_records_identical_under_auto(self, monkeypatch):
        from repro import api
        from repro.experiments import common

        monkeypatch.setitem(
            common.ALL_EXPERIMENTS, "EX-FAIL",
            ("tests.faultyexp.failing", "a claim that does not hold"),
        )
        # Three usable CPUs: auto runs all three at once, so E9 is already
        # running when EX-FAIL stops the suite.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        selection = ["E4", "EX-FAIL", "E9"]
        records = {}
        for workers in (None, 1):
            config = api.RunConfig(keep_going=False, parallel=workers)
            result = api.run_suite(selection, config=config)
            assert result.exit_code == 1
            records[workers] = [scrub_record(r) for r in result.records]
        assert [r["experiment"] for r in records[1]] == ["E4", "EX-FAIL"]
        assert records[None] == records[1]

    def test_fail_fast_stops_experiments_still_running(self, monkeypatch):
        from repro import api
        from repro.experiments import common

        monkeypatch.setitem(
            common.ALL_EXPERIMENTS, "EX-FAIL",
            ("tests.faultyexp.failing", "a claim that does not hold"),
        )
        monkeypatch.setitem(
            common.ALL_EXPERIMENTS, "EX-HANG", ("tests.faultyexp.hanging", "hangs")
        )
        # Two usable CPUs: auto runs both, so EX-HANG is running when
        # EX-FAIL stops the suite, and must be terminated, not waited for.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        records = {}
        for workers in (None, 1):
            config = api.RunConfig(keep_going=False, timeout=6, parallel=workers)
            start = time.perf_counter()
            result = api.run_suite(["EX-FAIL", "EX-HANG"], config=config)
            assert time.perf_counter() - start < 2.0, workers
            assert result.exit_code == 1
            assert result.report["summary"]["config"]["parallel"] == (workers or 2)
            records[workers] = [scrub_record(r) for r in result.records]
            assert multiprocessing.active_children() == []
        assert [r["status"] for r in records[1]] == ["fail"]
        assert records[None] == records[1]

    def test_parallel_requires_isolation(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "on")
        from repro.experiments import runner

        assert runner.main(["E1", "--parallel", "2", "--no-isolation"]) == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_non_positive_worker_count_rejected(self, workers, capsys):
        from repro.experiments import runner

        assert runner.main(["E1", "--parallel", workers]) == 2
        assert "parallel must be >= 1" in capsys.readouterr().out

    def test_no_isolation_alone_runs_inline(self, tmp_path):
        from repro.experiments import runner

        out = tmp_path / "report.json"
        assert runner.main(["E1", "E9", "--no-isolation", "--metrics-out", str(out)]) == 0
        config = json.loads(out.read_text())["summary"]["config"]
        assert config["isolated"] is False and config["parallel"] == 1

    def test_report_carries_cache_summary(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "on")
        from repro.experiments import runner

        out = tmp_path / "report.json"
        assert runner.main(["E1", "--cache", "stats", "--metrics-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        cache = payload["summary"]["cache"]
        assert cache["enabled"] is True
        assert any(k.startswith("perf.cache.") for k in cache["counters"])

    def test_cache_off_flag_reaches_children(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "on")
        from repro.experiments import runner

        out = tmp_path / "report.json"
        assert runner.main(["E1", "--cache", "off", "--metrics-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        cache = payload["summary"]["cache"]
        assert cache["enabled"] is False
        assert not any(k.startswith("perf.cache.") for k in cache["counters"])


class TestInnerSweepParallelism:
    # E15 is the only experiment whose sweeps fan out.
    @pytest.mark.parametrize("experiment_id", ["E15"])
    def test_fanned_sweeps_identical_to_serial(self, experiment_id):
        set_experiment_seed(None)
        perf_cache.configure(enabled=True)
        perf_backends.configure_backend("serial")
        serial = run_experiment(experiment_id)
        perf_backends.configure_backend("pool:2")
        try:
            fanned = run_experiment(experiment_id)
        finally:
            perf_backends.close_active()  # stop the pool's workers
            perf_backends.configure_backend(None)
        assert _normalized(serial) == _normalized(fanned)


class TestPhaseTimersAcrossBackends:
    """Phase timers ride the chunk's metrics snapshot, so a sweep's phase
    call counts do not depend on where its chunks ran: E15 reports the same
    ones on serial, ``pool:2`` (a lost chunk included) and ``socket:``.
    The cache is off: a chunk's automata start with cold transition memos,
    so with it on ``measure.compose`` (like its counter) depends on the
    chunking."""

    @staticmethod
    def _e15_phase_calls(backend):
        from repro import api

        config = api.RunConfig(backend=backend, cache="off", parallel=1)
        result = api.run_suite(["E15"], config=config)
        assert result.ok
        (record,) = result.records
        phases = result.report["summary"]["phases"]["E15"]
        return {phase: t["calls"] for phase, t in phases.items()}, record["counters"]

    def test_e15_phase_calls_equal_on_every_backend(self, monkeypatch, spawn_worker):
        serial, _ = self._e15_phase_calls("serial")
        pooled, _ = self._e15_phase_calls("pool:2")
        _, p1 = spawn_worker()
        _, p2 = spawn_worker()
        remote, _ = self._e15_phase_calls(f"socket:127.0.0.1:{p1},127.0.0.1:{p2}")
        # Read by the pool's chunk children: roughly half of the chunks
        # die mid-way and are recomputed in the experiment's own process.
        monkeypatch.setenv("REPRO_CHAOS_FORK", "seed=1,kill=0.5")
        lossy, counters = self._e15_phase_calls("pool:2")
        assert counters.get("perf.parallel.chunk_fallbacks", 0) > 0
        assert {"measure.unfold", "scheduler.step", "measure.compose"} <= set(serial)
        assert serial == pooled == remote == lossy


class _CountingScheduler(Scheduler):
    """Counts logical decisions per fragment."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = {}

    def decide(self, automaton, fragment):
        key = (fragment.states, fragment.actions)
        self.calls[key] = self.calls.get(key, 0) + 1
        return self.inner.decide(automaton, fragment)

    def step_bound(self):
        return self.inner.step_bound()


def _branching_automaton():
    """``q0 --a--> {q1, q2}`` (1/2 each), then ``b`` to a sink."""
    sig_ab = Signature(outputs={"a"})
    sig_b = Signature(outputs={"b"})
    return TablePSIOA(
        "branch",
        "q0",
        {
            "q0": sig_ab,
            "q1": sig_b,
            "q2": sig_b,
            "q3": Signature(),
            "q4": Signature(),
        },
        {
            ("q0", "a"): DiscreteMeasure({"q1": Fraction(1, 2), "q2": Fraction(1, 2)}),
            ("q1", "b"): dirac("q3"),
            ("q2", "b"): dirac("q4"),
        },
    )


class TestDecideOnce:
    def test_every_fragment_decided_exactly_once(self):
        # bound 2 with a branch at depth 1: one initial fragment, two at
        # depth 1, two at the depth bound.  5 fragments, 5 decisions — the
        # depth-bound fragments must NOT be re-decided by a residual pass.
        perf_cache.configure(enabled=False)
        scheduler = _CountingScheduler(ActionSequenceScheduler(["a", "b"]))
        measure = execution_measure(_branching_automaton(), scheduler)
        assert measure.total_mass == 1
        assert all(count == 1 for count in scheduler.calls.values()), scheduler.calls
        assert sum(scheduler.calls.values()) == 5
        assert metrics.counter("scheduler.steps").value == 5
