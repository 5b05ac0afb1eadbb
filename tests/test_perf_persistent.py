"""Differential lockdown of the persistent content-addressed cache.

The disk-backed store (``cache_dir`` / ``--cache-dir``,
:mod:`repro.perf.store`) must be *invisible in results*: a run served from
a warmed store — unfoldings and whole sweep results alike — produces a
report byte-identical to a cold run, on every transport the sweeps can fan
out over (serial, forked children, a live socket pool).  The warm pass
must actually be warm (nonzero persistent and sweep-memo hit counters), and
mutating an automaton after caching must never serve stale fingerprinted
entries from either the in-memory or the disk tier.
"""

import json
import os
from fractions import Fraction

import pytest

from repro.core.psioa import TablePSIOA
from repro.core.signature import Signature
from repro.obs import metrics
from repro.perf import cache as perf_cache
from repro.perf import store as perf_store
from repro.perf.backends import make_backend
from repro.perf.parallel import parallel_map
from repro.probability.measures import DiscreteMeasure, dirac
from repro.semantics.measure import execution_measure
from repro.semantics.scheduler import ActionSequenceScheduler

#: Report fields that legitimately differ between a cold and a warm run:
#: timing, process identity, file paths — and the perf counters themselves,
#: whose *change* (hits instead of misses) is the feature under test.
VOLATILE_REPORT_KEYS = {"created_unix", "argv"}
VOLATILE_SUMMARY_KEYS = {
    "wall_time_s",
    "cache",
    "backend",
    "trace",
    "profile",
    "analysis",
    "resilience",
}
VOLATILE_RECORD_KEYS = {
    "elapsed_s",
    "peak_rss_bytes",
    "trace_file",
    "counters",
    "histograms",
}


def _scrub(payload):
    payload = {k: v for k, v in payload.items() if k not in VOLATILE_REPORT_KEYS}
    payload["summary"] = {
        k: v for k, v in payload["summary"].items() if k not in VOLATILE_SUMMARY_KEYS
    }
    experiments = []
    for record in payload["experiments"]:
        record = {k: v for k, v in record.items() if k not in VOLATILE_RECORD_KEYS}
        record["attempt_history"] = [
            {k: v for k, v in entry.items() if k != "elapsed_s"}
            for entry in record.get("attempt_history", [])
        ]
        experiments.append(record)
    payload["experiments"] = experiments
    return json.dumps(payload, sort_keys=True)


def _run_suite(tmp_path, label):
    from repro.experiments import runner

    out = tmp_path / f"report-{label}.json"
    code = runner.main(
        ["E12", "E15", "--cache", "stats", "--metrics-out", str(out)]
    )
    assert code == 0
    return json.loads(out.read_text())


def _assert_cold_then_warm(tmp_path, monkeypatch, flavor):
    store_dir = tmp_path / "store"
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(store_dir))

    cold = _run_suite(tmp_path, f"{flavor}-cold")
    warm = _run_suite(tmp_path, f"{flavor}-warm")
    assert _scrub(cold) == _scrub(warm)

    cold_counters = cold["summary"]["cache"]["counters"]
    warm_counters = warm["summary"]["cache"]["counters"]
    # The cold pass populated the store...
    assert cold_counters.get("perf.cache.persistent.writes", 0) > 0
    assert cold["summary"]["cache"]["persistent"]["entries"] > 0
    # ...and the warm pass was actually served from it.
    assert warm_counters.get("perf.cache.sweep.hits", 0) > 0
    assert warm_counters.get("perf.cache.persistent.hits", 0) > 0


class TestWarmStoreDifferential:
    @pytest.mark.parametrize("backend", ["serial", "fork:2"])
    def test_cold_and_warm_reports_byte_identical(
        self, tmp_path, monkeypatch, backend
    ):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        _assert_cold_then_warm(tmp_path, monkeypatch, backend.replace(":", "-"))

    def test_cold_and_warm_reports_byte_identical_on_socket_pool(
        self, tmp_path, monkeypatch, spawn_worker
    ):
        # Set before the workers spawn, so it is also their default store
        # (the run frames carry the same directory).
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        _, p1 = spawn_worker()
        _, p2 = spawn_worker()
        monkeypatch.setenv("REPRO_BACKEND", f"socket:127.0.0.1:{p1},127.0.0.1:{p2}")
        _assert_cold_then_warm(tmp_path, monkeypatch, "socket")

    def test_cache_dir_flag_reaches_report(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", "sentinel-to-restore")
        store_dir = tmp_path / "flagged-store"
        out = tmp_path / "report-flag.json"
        code = runner.main(
            ["E12", "--cache-dir", str(store_dir), "--metrics-out", str(out)]
        )
        assert code == 0
        persistent = json.loads(out.read_text())["summary"]["cache"]["persistent"]
        assert persistent["dir"] == os.path.abspath(str(store_dir))
        assert persistent["entries"] > 0

    def test_store_less_reports_carry_no_persistent_block(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        out = tmp_path / "report-plain.json"
        assert runner.main(["E12", "--metrics-out", str(out)]) == 0
        assert "persistent" not in json.loads(out.read_text())["summary"]["cache"]


class TestPoolHonoursEachFramesStore:
    def test_second_cache_dir_gets_its_own_writes(self, tmp_path):
        # One live pool serves two sweeps under different stores: each
        # frame's cache_dir, not the first one a worker saw, is used.
        perf_cache.configure(enabled=True)
        backend = make_backend("pool:2")
        writes = metrics.counter("perf.cache.persistent.writes")

        def unfold(n):
            automaton = _measure_automaton()
            return execution_measure(automaton, ActionSequenceScheduler(["a"] * n))

        try:
            for name in ("first", "second"):
                store_dir = tmp_path / name
                perf_store.configure(str(store_dir))
                before = writes.value
                parallel_map(unfold, [1, 2], backend=backend)
                assert writes.value > before
                assert list(store_dir.glob("*/unfold/*/*.pkl")), name
        finally:
            backend.close()


# -- the sweep memo in isolation -----------------------------------------------


class TestSweepMemo:
    def test_identical_sweep_served_from_disk(self, tmp_path):
        perf_store.configure(str(tmp_path / "store"))
        perf_cache.configure(enabled=True)  # the suite may run REPRO_CACHE=off
        hits = metrics.counter("perf.cache.sweep.hits")
        misses = metrics.counter("perf.cache.sweep.misses")
        first = parallel_map(lambda x: x * Fraction(1, 3), [1, 2, 3])
        assert (hits.value, misses.value) == (0, 1)
        second = parallel_map(lambda x: x * Fraction(1, 3), [1, 2, 3])
        assert (hits.value, misses.value) == (1, 1)
        assert first == second == [Fraction(n, 3) for n in (1, 2, 3)]

    def test_different_items_rekey(self, tmp_path):
        perf_store.configure(str(tmp_path / "store"))
        hits = metrics.counter("perf.cache.sweep.hits")
        parallel_map(lambda x: x + 1, [1, 2])
        parallel_map(lambda x: x + 1, [1, 3])  # seeds ride in the items
        assert hits.value == 0

    def test_failed_sweep_not_persisted(self, tmp_path):
        perf_store.configure(str(tmp_path / "store"))
        perf_cache.configure(enabled=True)  # the suite may run REPRO_CACHE=off
        misses = metrics.counter("perf.cache.sweep.misses")

        def boom(x):
            raise ValueError("no result to persist")

        for _ in range(2):
            with pytest.raises(ValueError):
                parallel_map(boom, [1, 2])
        assert misses.value == 2  # second attempt missed again: nothing stored

    def test_disabled_cache_bypasses_store(self, tmp_path):
        perf_store.configure(str(tmp_path / "store"))
        perf_cache.configure(enabled=False)
        misses = metrics.counter("perf.cache.sweep.misses")
        parallel_map(lambda x: x, [1, 2])
        assert misses.value == 0


# -- invalidation --------------------------------------------------------------


def _measure_automaton():
    return TablePSIOA(
        "inv",
        "q0",
        {"q0": Signature(outputs={"a"}), "q1": Signature(), "q2": Signature()},
        {
            ("q0", "a"): DiscreteMeasure(
                {"q1": Fraction(1, 2), "q2": Fraction(1, 2)}
            )
        },
    )


def _support_lstates(measure):
    return sorted(fragment.states[-1] for fragment in measure.support())


class TestInvalidation:
    def test_mutation_not_served_from_memory_tier(self, tmp_path):
        perf_store.configure(str(tmp_path / "store"))
        perf_cache.configure(enabled=True)
        automaton = _measure_automaton()
        scheduler = ActionSequenceScheduler(["a"])
        before = execution_measure(automaton, scheduler)
        assert _support_lstates(before) == ["q1", "q2"]
        automaton.transitions[("q0", "a")] = dirac("q1")
        perf_cache.invalidate(automaton)
        after = execution_measure(automaton, scheduler)
        assert _support_lstates(after) == ["q1"]

    def test_mutation_not_served_from_disk_tier(self, tmp_path):
        perf_store.configure(str(tmp_path / "store"))
        perf_cache.configure(enabled=True)
        automaton = _measure_automaton()
        execution_measure(automaton, ActionSequenceScheduler(["a"]))
        writes = metrics.counter("perf.cache.persistent.writes")
        assert writes.value > 0
        # invalidate removes the disk entries keyed by the old fingerprint;
        # a *fresh process* (simulated by clearing every in-memory tier)
        # recomputing the structurally-original automaton must then miss.
        automaton.transitions[("q0", "a")] = dirac("q1")
        perf_cache.invalidate(automaton)
        perf_cache.clear()
        hits = metrics.counter("perf.cache.persistent.hits")
        rebuilt = execution_measure(_measure_automaton(), ActionSequenceScheduler(["a"]))
        assert hits.value == 0
        assert _support_lstates(rebuilt) == ["q1", "q2"]

    def test_unmutated_rebuild_hits_disk_across_simulated_restart(
        self, tmp_path
    ):
        perf_store.configure(str(tmp_path / "store"))
        perf_cache.configure(enabled=True)
        first = execution_measure(_measure_automaton(), ActionSequenceScheduler(["a"]))
        perf_cache.clear()  # drop every in-memory tier; the disk survives
        hits = metrics.counter("perf.cache.persistent.hits")
        second = execution_measure(_measure_automaton(), ActionSequenceScheduler(["a"]))
        assert hits.value > 0
        assert first == second

    def test_invalidation_wipes_sweep_entries(self, tmp_path):
        from repro.perf.fingerprint import fingerprint

        perf_store.configure(str(tmp_path / "store"))
        perf_cache.configure(enabled=True)
        hits = metrics.counter("perf.cache.sweep.hits")
        parallel_map(lambda x: x * 2, [1, 2, 3])
        automaton = _measure_automaton()
        fingerprint(automaton)  # give invalidate a fingerprint to key on
        perf_cache.invalidate(automaton)
        # Sweep entries cannot name their dependencies, so invalidation is
        # conservative: the whole sweep kind is dropped.
        parallel_map(lambda x: x * 2, [1, 2, 3])
        assert hits.value == 0

    def test_store_survives_corrupt_entries(self, tmp_path):
        perf_store.configure(str(tmp_path / "store"))
        store = perf_store.active_store()
        assert store.put("sweep", "ab" * 32, [1, 2, 3])
        path = store._path("sweep", "ab" * 32, None)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert store.get("sweep", "ab" * 32) is None  # a miss, not a crash
