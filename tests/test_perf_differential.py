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
  fixed), pinned by counting scheduler invocations.
"""

import json
import os
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
from tests.helpers import coin_automaton

#: Report fields that legitimately differ between runs (timing, process
#: identity, file paths) and are scrubbed before exact comparison.
VOLATILE_REPORT_KEYS = {"created_unix", "argv", "wall_time_s"}
VOLATILE_RECORD_KEYS = {"elapsed_s", "peak_rss_bytes", "trace_file"}
#: Experiment ``data`` keys that carry wall-clock measurements.
VOLATILE_DATA_KEYS = {"timings_ms"}
#: Optional observability summary blocks: their *presence* is the feature
#: under differential test, so they are scrubbed before byte comparison —
#: everything outside them must be identical with profiling on or off.
#: ``summary.config`` rides along: it records the resolved RunConfig, and
#: differential runs intentionally vary knobs — provenance, like ``argv``.
OPTIONAL_SUMMARY_BLOCKS = {"trace", "profile", "analysis", "config"}
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


def _scrub_record(record):
    record = {k: v for k, v in record.items() if k not in VOLATILE_RECORD_KEYS}
    record["attempt_history"] = [
        {k: v for k, v in entry.items() if k != "elapsed_s"}
        for entry in record.get("attempt_history", [])
    ]
    return record


def _scrub(payload):
    payload = {k: v for k, v in payload.items() if k not in VOLATILE_REPORT_KEYS}
    payload["summary"] = {
        k: v
        for k, v in payload["summary"].items()
        if k not in VOLATILE_REPORT_KEYS and k not in OPTIONAL_SUMMARY_BLOCKS
    }
    payload["experiments"] = [_scrub_record(r) for r in payload["experiments"]]
    return json.dumps(payload, sort_keys=True)


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
        perf_cache.clear()
        cached = run_experiment(experiment_id)
        perf_cache.configure(enabled=False)
        perf_cache.clear()
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
            scrubbed[workers] = _scrub(payload)
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
            records[workers] = [_scrub_record(r) for r in result.records]
        assert [r["experiment"] for r in records[1]] == ["E4", "EX-FAIL"]
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
    @pytest.mark.parametrize("experiment_id", ["E12", "E15"])
    def test_fanned_sweeps_identical_to_serial(self, experiment_id):
        set_experiment_seed(None)
        perf_cache.configure(enabled=True)
        perf_cache.clear()
        perf_backends.configure_backend("serial")
        serial = run_experiment(experiment_id)
        perf_cache.clear()
        perf_backends.configure_backend("pool:2")
        try:
            fanned = run_experiment(experiment_id)
        finally:
            perf_backends.close_active()  # stop the pool's workers
            perf_backends.configure_backend(None)
        assert _normalized(serial) == _normalized(fanned)


class TestProfileDifferential:
    """``REPRO_PROFILE`` must be invisible in results: the full 15-experiment
    run report is byte-identical with profiling on or off outside the
    optional ``summary.profile`` / ``summary.analysis`` blocks, on every
    backend the sweeps can fan out over."""

    @staticmethod
    def _suite_report(tmp_path, monkeypatch, label, profiled):
        from repro.experiments import runner
        from repro.obs import profile as obs_profile

        out = tmp_path / f"report-{label}.json"
        if profiled:
            monkeypatch.setenv("REPRO_PROFILE", "1")
        else:
            monkeypatch.delenv("REPRO_PROFILE", raising=False)
        try:
            code = runner.main(["--parallel", "4", "--metrics-out", str(out)])
        finally:
            obs_profile.disable()
            obs_profile.clear()
        assert code == 0
        payload = json.loads(out.read_text())
        if profiled:
            block = payload["summary"]["profile"]
            assert block["enabled"] is True and block["lanes"]
        else:
            assert "profile" not in payload["summary"]
        # No record ever carries phase data — only summary.profile does.
        for record in payload["experiments"]:
            assert "profile" not in record
        return _scrub(payload)

    @pytest.mark.parametrize("backend", ["serial", "pool:2"])
    def test_profiled_suite_byte_identical_outside_summary_blocks(
        self, tmp_path, monkeypatch, backend
    ):
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_BACKEND", backend)
        plain = self._suite_report(tmp_path, monkeypatch, f"{backend}-off", False)
        profiled = self._suite_report(tmp_path, monkeypatch, f"{backend}-on", True)
        assert plain == profiled

    def test_profiled_socket_suite_byte_identical(
        self, tmp_path, monkeypatch, spawn_worker
    ):
        _, p1 = spawn_worker()
        _, p2 = spawn_worker()
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_BACKEND", f"socket:127.0.0.1:{p1},127.0.0.1:{p2}")
        plain = self._suite_report(tmp_path, monkeypatch, "socket-off", False)
        profiled = self._suite_report(tmp_path, monkeypatch, "socket-on", True)
        assert plain == profiled


class _CountingScheduler(Scheduler):
    """Counts logical decisions per fragment (bypasses the decision cache)."""

    cacheable = False

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
        perf_cache.clear()
        scheduler = _CountingScheduler(ActionSequenceScheduler(["a", "b"]))
        measure = execution_measure(_branching_automaton(), scheduler)
        assert measure.total_mass == 1
        assert all(count == 1 for count in scheduler.calls.values()), scheduler.calls
        assert sum(scheduler.calls.values()) == 5
        assert metrics.counter("scheduler.steps").value == 5

    def test_memoized_unfolding_adds_no_decisions(self):
        perf_cache.configure(enabled=True)
        perf_cache.clear()
        scheduler = _CountingScheduler(ActionSequenceScheduler(["a", "b"]))
        scheduler.cacheable = True
        automaton = _branching_automaton()
        execution_measure(automaton, scheduler)
        first_round = sum(scheduler.calls.values())
        assert first_round == 5
        execution_measure(automaton, scheduler)
        assert sum(scheduler.calls.values()) == first_round
