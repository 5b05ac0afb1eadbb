"""Differential lockdown of the store directory.

A run under ``cache_dir`` / ``--cache-dir`` (:mod:`repro.perf.store`)
produces a report byte-identical to a second run over the same
directory, on every transport the sweeps can fan out over (serial,
forked children, a live socket pool).  No run reads or writes the store:
neither report carries a ``perf.cache.persistent.*`` or
``perf.cache.sweep.*`` counter, and ``summary.cache.persistent`` names
the directory with no entries in it.  ``PersistentStore`` itself treats a
corrupt entry as a miss, and an automaton rebuilt with a changed table is
never served its same-named predecessor's memoized transitions.
"""

import json
import os
from fractions import Fraction

import pytest

from repro.core.psioa import TablePSIOA
from repro.core.signature import Signature
from repro.perf import cache as perf_cache
from repro.perf import store as perf_store
from repro.probability.measures import DiscreteMeasure, dirac
from repro.semantics.measure import execution_measure
from repro.semantics.scheduler import ActionSequenceScheduler
from tests.helpers import scrub_report


def _scrub(payload):
    # Beyond timing: the perf blocks and counters (a socket pool's workers
    # keep their interpreters warm between the two runs).
    return scrub_report(
        payload,
        summary=("cache", "backend", "trace", "analysis", "resilience"),
        record=("counters", "histograms"),
    )


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

    for report in (cold, warm):
        cache = report["summary"]["cache"]
        assert not [
            name
            for name in cache["counters"]
            if name.startswith(("perf.cache.persistent.", "perf.cache.sweep."))
        ]
        assert cache["persistent"]["entries"] == 0


class TestWarmStoreDifferential:
    @pytest.mark.parametrize("backend", ["serial", "pool:2"])
    def test_cold_and_warm_reports_byte_identical(
        self, tmp_path, monkeypatch, backend
    ):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        _assert_cold_then_warm(tmp_path, monkeypatch, backend.replace(":", "-"))

    def test_cold_and_warm_reports_byte_identical_on_socket_pool(
        self, tmp_path, monkeypatch, spawn_worker
    ):
        # Set before the workers spawn, so their environment names the
        # store too.
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
        assert persistent["entries"] == 0  # named, never written

    def test_store_less_reports_carry_no_persistent_block(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        out = tmp_path / "report-plain.json"
        assert runner.main(["E12", "--metrics-out", str(out)]) == 0
        assert "persistent" not in json.loads(out.read_text())["summary"]["cache"]


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
        # Automata are not mutated in place: a changed table is a new
        # automaton, equal to the old one (equality is by name) but with
        # its own, empty memo.
        changed = TablePSIOA(
            automaton.name,
            automaton.start,
            automaton.signatures,
            {**automaton.transitions, ("q0", "a"): dirac("q1")},
        )
        assert changed == automaton and not changed._tmemo
        after = execution_measure(changed, scheduler)
        assert _support_lstates(after) == ["q1"]

    def test_store_survives_corrupt_entries(self, tmp_path):
        perf_store.configure(str(tmp_path / "store"))
        store = perf_store.active_store()
        assert store.put("report", "ab" * 32, [1, 2, 3])
        assert store.get("report", "ab" * 32) == [1, 2, 3]
        with open(store._path("report", "ab" * 32), "wb") as handle:
            handle.write(b"not a pickle")
        assert store.get("report", "ab" * 32) is None  # a miss, not a crash


# -- the store directory changes no work ---------------------------------------


def _untimed(record):
    record = {k: v for k, v in record.items() if k not in ("elapsed_s", "peak_rss_bytes")}
    record["attempt_history"] = [
        {k: v for k, v in entry.items() if k != "elapsed_s"}
        for entry in record.get("attempt_history", [])
    ]
    return json.dumps(record, sort_keys=True)


class TestStoreDirectoryChangesNoWork:
    def test_cache_dir_run_matches_store_less_run_and_never_fingerprints(
        self, tmp_path, monkeypatch
    ):
        # E4, E12 and E13 are the service's jobs.  A run naming a store must
        # do exactly the work of a store-less one: same records (counters
        # included), and no automaton, scheduler or sweep ever fingerprinted.
        from repro import api
        from repro.api import RunConfig
        from repro.perf import fingerprint as perf_fingerprint

        calls = []
        real = perf_fingerprint.fingerprint

        def counting(obj):
            calls.append(type(obj).__name__)
            return real(obj)

        monkeypatch.setattr(perf_fingerprint, "fingerprint", counting)
        experiments = ["E4", "E12", "E13"]
        stored = api.run_suite(
            experiments,
            config=RunConfig(cache="on", isolated=False, cache_dir=str(tmp_path / "store")),
        ).records
        plain = api.run_suite(
            experiments, config=RunConfig(cache="on", isolated=False)
        ).records

        assert calls == []
        assert [r["experiment"] for r in stored] == experiments
        for with_dir, without in zip(stored, plain):
            for name in ("measure.unfold.calls", "perf.cache.transition.misses"):
                assert with_dir["counters"].get(name) == without["counters"].get(name), name
            assert _untimed(with_dir) == _untimed(without)
