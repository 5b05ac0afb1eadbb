"""The ``repro.api`` facade: RunConfig resolution, precedence, wrappers.

The resolver's contract is one documented precedence — explicit overrides
> environment gates > defaults — applied in exactly one place.  The tests
pin that order, the normalizations (spec canonicalization, abspath,
non-positive timeouts), the historic precedence bug it
fixes (``REPRO_CACHE=off`` used to be clobbered by the CLI flag default),
the facade wrappers the CLI/service build on, and that applying a config
never touches the environment.
"""

import json
import os
from dataclasses import fields

import pytest

from repro import api
from repro.api import ConfigError, RunConfig, resolve_config
from repro.obs.report import ReportSchemaError, validate_report


class TestResolverPrecedence:
    def test_defaults_without_env_or_flags(self):
        config = resolve_config(env={})
        assert config == RunConfig()
        assert config.cache == "on" and config.backend is None
        assert not config.trace

    def test_env_gates_fill_unspecified_fields(self, tmp_path):
        env = {
            "REPRO_CACHE": "off",
            "REPRO_CACHE_DIR": str(tmp_path / "store"),
            "REPRO_BACKEND": "pool:2",
            "REPRO_CHUNK_DEADLINE": "30",
            "REPRO_TRACE": "on",
            "REPRO_PROGRESS": "on",
        }
        config = resolve_config(env=env)
        assert config.cache == "off"
        assert config.cache_dir == os.path.abspath(str(tmp_path / "store"))
        assert config.backend == "pool:2"
        assert config.trace
        assert config.progress
        assert config.chunk_deadline == 30.0

    def test_explicit_overrides_beat_env(self, tmp_path):
        env = {"REPRO_CACHE": "off", "REPRO_BACKEND": "pool:2"}
        config = resolve_config(env=env, cache="on", backend="serial")
        assert config.cache == "on"
        assert config.backend == "serial"

    def test_switch_false_falls_through_to_env(self):
        # A store_true flag the user did not pass must not force-disable
        # a feature the environment asked for.
        config = resolve_config(env={"REPRO_TRACE": "on"}, trace=False)
        assert config.trace

    def test_backend_spec_is_canonicalized(self):
        config = resolve_config(env={}, backend=" Pool:2;deadline=30 ")
        assert config.backend == "pool:2;deadline=30"

    def test_invalid_backend_spec_is_config_error(self):
        with pytest.raises(ConfigError, match="backend"):
            resolve_config(env={}, backend="warp:9")

    def test_removed_fork_backend_from_env_is_config_error(self):
        with pytest.raises(ConfigError, match="known: pool, serial, socket"):
            resolve_config(env={"REPRO_BACKEND": "fork:2"})

    def test_zero_timeout_means_unbounded(self):
        assert resolve_config(env={}, timeout=0).timeout is None
        assert resolve_config(env={}, timeout=12.5).timeout == 12.5

    def test_parallel_without_isolation_rejected(self):
        with pytest.raises(ConfigError, match="isolation"):
            resolve_config(env={}, parallel=2, isolated=False)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            resolve_config(env={}, warp_factor=9)

    def test_env_chunk_deadline_must_be_numeric(self):
        with pytest.raises(ConfigError, match="REPRO_CHUNK_DEADLINE"):
            resolve_config(env={"REPRO_CHUNK_DEADLINE": "soon"})


class TestRunConfigShape:
    def test_describe_round_trips_through_from_dict(self):
        config = resolve_config(env={}, parallel=2, cache="stats", seed=7)
        assert RunConfig.from_dict(config.describe()) == config

    def test_describe_is_json_safe(self):
        payload = json.dumps(resolve_config(env={}).describe())
        assert "parallel" in json.loads(payload)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            RunConfig.from_dict({"cache": "on", "bogus": 1})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(cache="sideways")
        with pytest.raises(ConfigError):
            RunConfig(parallel=0)
        with pytest.raises(ConfigError):
            RunConfig(retries=-1)
        with pytest.raises(ConfigError):
            RunConfig(seed="lucky")

    def test_apply_configures_subsystems_without_exporting(self, tmp_path):
        from repro.obs import trace
        from repro.perf import backends, cache, store, supervise

        before = dict(os.environ)
        store_dir = str(tmp_path / "store")
        resolve_config(
            env={}, cache="off", cache_dir=store_dir, backend="pool:2",
            seed=11, chunk_deadline=45.0, trace=True,
        ).apply()
        assert dict(os.environ) == before
        assert not cache.cache_enabled()
        assert store.active_store().base == os.path.abspath(store_dir)
        assert backends.current_spec() == "pool:2"
        policy = supervise.base_policy()
        assert policy.seed == 11
        assert policy.chunk_deadline_s == 45.0
        assert trace.is_enabled()
        # A default config resets every switch it does not ask for, so
        # nothing from a previous apply survives.
        resolve_config(env={}).apply()
        assert cache.cache_enabled() and store.active_store() is None
        assert backends.current_spec() == "serial"
        assert supervise.base_policy() == supervise.SupervisionPolicy()
        assert not trace.is_enabled()

    def test_run_suite_leaves_environment_untouched(self, tmp_path):
        before = dict(os.environ)
        settings = dict(
            full=True, timeout=120.0, retries=1, seed=5, isolated=True,
            keep_going=False, parallel=2, cache="stats",
            cache_dir=str(tmp_path / "store"), backend="pool:2",
            chunk_deadline=30.0, trace=True, trace_dir=str(tmp_path / "traces"),
            progress=True,
        )
        assert set(settings) == {f.name for f in fields(RunConfig)}
        result = api.run_suite(["E9"], config=RunConfig(**settings))
        assert result.ok
        assert dict(os.environ) == before


class TestCacheEnvPrecedenceFix:
    """``REPRO_CACHE=off`` with no ``--cache`` flag must actually turn the
    cache off — historically the flag's default silently clobbered it."""

    def test_env_off_reaches_the_report(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setenv("REPRO_CACHE", "off")
        out = tmp_path / "report.json"
        assert runner.main(["E1", "--metrics-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["cache"]["enabled"] is False
        assert payload["summary"]["config"]["cache"] == "off"

    def test_explicit_flag_still_wins_over_env(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setenv("REPRO_CACHE", "off")
        out = tmp_path / "report.json"
        assert runner.main(["E1", "--cache", "on", "--metrics-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["cache"]["enabled"] is True
        assert payload["summary"]["config"]["cache"] == "on"


class TestFacade:
    def test_run_experiment_returns_outcome(self):
        outcome = api.run_experiment("E1")
        assert outcome.ok and outcome.experiment == "E1"

    def test_run_experiment_unknown_id(self):
        with pytest.raises(api.UnknownExperimentError):
            api.run_experiment("E99")

    def test_run_sweep_returns_validated_report(self, tmp_path):
        out = tmp_path / "report.json"
        payload = api.run_sweep(["E1"], metrics_out=str(out))
        validate_report(payload)
        # One experiment: the auto worker count resolves to 1.
        assert payload["summary"]["config"]["parallel"] == 1
        assert json.loads(out.read_text())["summary"] == payload["summary"]

    def test_run_suite_reports_failures_in_exit_code(self, monkeypatch):
        from repro.experiments import common

        monkeypatch.setitem(
            common.ALL_EXPERIMENTS, "EX-CRASH",
            ("tests.faultyexp.crashing", "always raises"),
        )
        result = api.run_suite(["EX-CRASH", "E1"])
        assert result.exit_code == 1 and not result.ok
        assert [r["status"] for r in result.records] == ["error", "pass"]
        validate_report(result.report)

    def test_unknown_experiments_raise_before_running(self):
        with pytest.raises(api.UnknownExperimentError) as excinfo:
            api.run_suite(["E1", "E98", "E99"])
        assert excinfo.value.unknown == ["E98", "E99"]

    def test_load_report_round_trip(self, tmp_path):
        out = tmp_path / "report.json"
        payload = api.run_sweep(["E1"], metrics_out=str(out))
        assert api.load_report(str(out)) == json.loads(json.dumps(payload))

    def test_load_report_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        with pytest.raises(ReportSchemaError):
            api.load_report(str(bad))

    def test_inline_run_leaves_no_cache_tables_behind(self):
        # The transition memo lives on its automaton, and each inline
        # attempt empties the bit-encoding memos (which hold configurations,
        # and through them automata) when it ends, so the caller keeps none
        # of the run's memos alive (nor copies them into every process it
        # forks later); the hit/miss counters stay.
        import gc

        from repro.core.psioa import PSIOA
        from repro.perf import cache as perf_cache

        def memoizing_automata():
            return [o for o in gc.get_objects() if isinstance(o, PSIOA) and o._tmemo]

        gc.collect()
        before = {id(o) for o in memoizing_automata()}
        result = api.run_suite(config=RunConfig(isolated=False))
        assert result.ok
        stats = perf_cache.stats()["transition"]
        assert stats["hits"] > 0 and stats["misses"] > 0
        gc.collect()
        assert [o for o in memoizing_automata() if id(o) not in before] == []

    def test_list_experiments_matches_registry(self):
        from repro.experiments.common import ALL_EXPERIMENTS

        listed = api.list_experiments()
        assert list(listed) == list(ALL_EXPERIMENTS)
        assert listed["E1"] == ALL_EXPERIMENTS["E1"][1]



class TestAutoParallelism:
    """``parallel=None`` (the default) resolves once per run: the usable
    CPUs, at most one per selected experiment, and 1 for inline runs."""

    PAIR = ["E4", "E9"]

    @staticmethod
    def track(monkeypatch, barrier=None):
        """Count experiments in flight; with ``barrier``, each waits there
        until enough others run at the same time."""
        import threading

        from repro.api import suite

        real = suite.run_experiment_guarded
        lock = threading.Lock()
        seen = {"now": 0, "max": 0}

        def tracked(*args, **kwargs):
            with lock:
                seen["now"] += 1
                seen["max"] = max(seen["max"], seen["now"])
            try:
                if barrier is not None:
                    barrier.wait()
                return real(*args, **kwargs)
            finally:
                with lock:
                    seen["now"] -= 1

        monkeypatch.setattr(suite, "run_experiment_guarded", tracked)
        return seen

    @staticmethod
    def cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    def test_default_is_auto(self):
        assert RunConfig().parallel is None
        assert resolve_config(env={}).parallel is None

    def test_inline_resolves_to_one(self, monkeypatch):
        self.cpus(monkeypatch, 4)
        seen = self.track(monkeypatch)
        result = api.run_suite(self.PAIR, config=RunConfig(isolated=False))
        assert result.ok and result.report["summary"]["config"]["parallel"] == 1
        assert seen["max"] == 1

    def test_single_experiment_resolves_to_one(self, monkeypatch):
        self.cpus(monkeypatch, 4)
        result = api.run_suite(["E9"])
        assert result.report["summary"]["config"]["parallel"] == 1

    def test_one_usable_cpu_resolves_to_one(self, monkeypatch):
        self.cpus(monkeypatch, 1)
        seen = self.track(monkeypatch)
        result = api.run_suite(self.PAIR)
        assert result.ok and result.report["summary"]["config"]["parallel"] == 1
        assert seen["max"] == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        result = api.run_suite(self.PAIR)
        assert result.report["summary"]["config"]["parallel"] == 1

    def test_capped_by_experiments(self, monkeypatch):
        import threading

        self.cpus(monkeypatch, 8)
        # Both children must be in flight at once to get past the barrier.
        seen = self.track(monkeypatch, threading.Barrier(2, timeout=60))
        result = api.run_suite(self.PAIR)
        assert result.ok and result.report["summary"]["config"]["parallel"] == 2
        assert seen["max"] == 2

    def test_capped_by_cpus(self, monkeypatch):
        self.cpus(monkeypatch, 2)
        seen = self.track(monkeypatch)
        result = api.run_suite(["E4", "E9", "E5"])
        assert result.ok and result.report["summary"]["config"]["parallel"] == 2
        assert seen["max"] <= 2

    def test_explicit_one_stays_serial(self, monkeypatch):
        self.cpus(monkeypatch, 4)
        seen = self.track(monkeypatch)
        result = api.run_suite(self.PAIR, config=RunConfig(parallel=1))
        assert result.ok and result.report["summary"]["config"]["parallel"] == 1
        assert seen["max"] == 1

    def test_recorded_count_round_trips(self, monkeypatch):
        self.cpus(monkeypatch, 2)
        config = RunConfig(seed=3)
        recorded = api.run_suite(self.PAIR, config=config).report["summary"]["config"]
        assert isinstance(recorded["parallel"], int) and recorded["parallel"] == 2
        assert RunConfig.from_dict(recorded) == RunConfig(seed=3, parallel=2)

    def test_explicit_values_keep_their_checks(self):
        with pytest.raises(ConfigError, match=">= 1"):
            RunConfig(parallel=0)
        with pytest.raises(ConfigError, match="isolation"):
            RunConfig(parallel=2, isolated=False)
        with pytest.raises(ConfigError, match="integer"):
            RunConfig(parallel=True)
        assert RunConfig(parallel=1, isolated=False).parallel == 1


class TestPreImport:
    """Isolated runs import the experiment modules in the parent before any
    child forks, so children inherit them compiled."""

    MODULE = "tests.faultyexp.failing"

    @pytest.fixture
    def unloaded(self, monkeypatch):
        import sys

        from repro.experiments import common

        monkeypatch.setitem(
            common.ALL_EXPERIMENTS, "EX-FAIL", (self.MODULE, "a claim that does not hold")
        )
        monkeypatch.delitem(sys.modules, self.MODULE, raising=False)
        return sys.modules

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_suite_imports_in_the_parent(self, unloaded, workers):
        result = api.run_suite(["EX-FAIL", "E9"], config=RunConfig(parallel=workers))
        assert [r["status"] for r in result.records] == ["fail", "pass"]
        assert self.MODULE in unloaded

    def test_run_experiment_imports_in_the_parent(self, unloaded):
        assert api.run_experiment("EX-FAIL").status == "fail"
        assert self.MODULE in unloaded

    def test_a_module_that_fails_to_import_is_reported_by_its_child(self, monkeypatch):
        from repro.experiments import common

        monkeypatch.setitem(common.ALL_EXPERIMENTS, "EX-GONE", ("tests.faultyexp.absent", "?"))
        result = api.run_suite(["EX-GONE", "E9"])
        assert [r["status"] for r in result.records] == ["error", "pass"]
        assert "ModuleNotFoundError" in result.records[0]["error"]


class TestDeprecationShims:
    def test_unknown_runner_attribute_still_raises(self):
        # The deep-import re-exports are gone: the runner module is the CLI.
        from repro.experiments import runner

        for name in ("definitely_not_a_thing", "build_report", "SupervisionPolicy"):
            with pytest.raises(AttributeError):
                getattr(runner, name)
