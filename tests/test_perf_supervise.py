"""The self-healing supervision layer: policy, backoff, breakers, pool.

Unit-tests the pure mechanisms (policy resolution, seeded backoff, the
circuit-breaker state machine) and then the ``pool:N`` backend end to end
against real worker subprocesses: lazy spawn (no leaked processes from
spec validation), respawn of a killed worker, poison-chunk quarantine,
heartbeat keep-alive of slow chunks, and the determinism bar — every
backoff delay the supervisor logged must be recomputable from the policy
seed alone.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import resolve_config
from repro.obs import metrics
from repro.perf.backends import BackendSpecError, make_backend, normalize_spec
from repro.perf.parallel import parallel_map
from repro.perf.supervise import (
    CircuitBreaker,
    LocalPoolBackend,
    SupervisionLog,
    SupervisionPolicy,
    backoff_delay,
    base_policy,
)


# -- policy resolution ----------------------------------------------------------


class TestSupervisionPolicy:
    def test_defaults_are_safe(self):
        policy = SupervisionPolicy()
        assert policy.chunk_deadline_s == 600.0  # the settimeout(None) fix
        assert policy.connect_timeout_s == 10.0

    def test_environment_resolution(self):
        # The gates reach the policy through the config, and the seed is
        # the config's seed.
        env = {"REPRO_CHUNK_DEADLINE": "12.5"}
        resolve_config(env=env, seed=42).apply()
        policy = base_policy()
        assert policy.seed == 42
        assert policy.chunk_deadline_s == 12.5
        assert policy.connect_timeout_s == 10.0
        resolve_config(env={}).apply()
        assert base_policy() == SupervisionPolicy()

    def test_deadline_env_off_means_unbounded(self):
        resolve_config(env={"REPRO_CHUNK_DEADLINE": "0"}).apply()
        assert base_policy().chunk_deadline_s is None
        assert SupervisionPolicy().with_options({"deadline": "off"}).chunk_deadline_s is None

    def test_spec_options_win_over_environment(self):
        resolve_config(env={"REPRO_CHUNK_DEADLINE": "600"}).apply()
        policy = base_policy().with_options(
            {"deadline": "7", "timeout": "2", "heartbeat": "0.5"}
        )
        assert policy.chunk_deadline_s == 7.0
        assert policy.connect_timeout_s == 2.0
        assert policy.heartbeat_s == 0.5

    def test_any_policy_field_is_an_option(self):
        policy = SupervisionPolicy().with_options(
            {"breaker_threshold": "5", "backoff_max_s": "1.25"}
        )
        assert policy.breaker_threshold == 5
        assert policy.backoff_max_s == 1.25

    def test_unknown_option_raises(self):
        with pytest.raises(BackendSpecError, match="unknown supervision option"):
            SupervisionPolicy().with_options({"warp_factor": "9"})

    def test_non_numeric_option_raises(self):
        with pytest.raises(BackendSpecError):
            SupervisionPolicy().with_options({"breaker_threshold": "many"})

    def test_frame_timeout_heartbeats_only_when_supervised_v3(self):
        policy = SupervisionPolicy(heartbeat_s=1.0, heartbeat_grace=5.0)
        assert policy.frame_timeout_s() == 5.0


# -- seeded backoff -------------------------------------------------------------


class TestBackoffDelay:
    def test_pure_function_of_seed_worker_attempt(self):
        policy = SupervisionPolicy(seed=7)
        schedule = [backoff_delay(policy, "worker0", a) for a in range(5)]
        assert schedule == [backoff_delay(policy, "worker0", a) for a in range(5)]

    def test_bounded_and_roughly_exponential(self):
        policy = SupervisionPolicy(seed=1)
        for attempt in range(10):
            delay = backoff_delay(policy, "w", attempt)
            cap = policy.backoff_max_s * (1 + policy.backoff_jitter)
            assert 0.0 <= delay <= cap
        # Without jitter the sequence is exactly base * factor**attempt, capped.
        plain = SupervisionPolicy(backoff_jitter=0.0)
        assert [backoff_delay(plain, "w", a) for a in range(4)] == [
            0.05, 0.1, 0.2, 0.4
        ]
        assert backoff_delay(plain, "w", 30) == plain.backoff_max_s

    def test_seed_and_worker_shape_the_jitter(self):
        a = [backoff_delay(SupervisionPolicy(seed=1), "w", n) for n in range(4)]
        b = [backoff_delay(SupervisionPolicy(seed=2), "w", n) for n in range(4)]
        c = [backoff_delay(SupervisionPolicy(seed=1), "x", n) for n in range(4)]
        assert a != b and a != c


# -- the breaker state machine --------------------------------------------------


class TestCircuitBreaker:
    def test_opens_at_threshold_exactly_once(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=60)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.state == "closed" and breaker.allow()
        assert breaker.record_failure() is True  # this one opened it
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.record_failure() is False  # already open: no re-announcement

    def test_half_open_after_cooldown_then_close_on_success(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=0.05)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.08)
        assert breaker.state == "half-open" and breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.failures == 0

    def test_failed_half_open_trial_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=0.05)
        breaker.record_failure()
        time.sleep(0.08)
        assert breaker.state == "half-open"
        breaker.record_failure()
        assert breaker.state == "open"


class TestSupervisionLog:
    def test_ordered_and_copy_safe(self):
        log = SupervisionLog()
        log.record("retry", worker="w0")
        log.record("backoff", worker="w0", delay_s=0.1)
        events = log.events
        assert [e["event"] for e in events] == ["retry", "backoff"]
        events.clear()  # mutating the copy must not touch the log
        assert len(log) == 2


# -- the pool backend, end to end -----------------------------------------------


def _square(x):
    return x * x


def _poison(x):
    # Kills its hosting *worker* process (the chunk runs in a fork child,
    # so the worker is our parent); harmless in the caller, where the
    # quarantine fallback recomputes it safely.
    if x == 3 and os.environ.get("REPRO_PERF_WORKER"):
        os.kill(os.getppid(), signal.SIGKILL)
        time.sleep(5)  # the orphaned child must not answer either
    return x * 2


def _slow_identity(seconds):
    time.sleep(seconds)
    return seconds


class TestLocalPoolBackend:
    def test_spec_normalizes_with_supervision_on(self):
        assert normalize_spec("pool:2") == "pool:2"
        with pytest.raises(BackendSpecError, match="unknown supervision option"):
            normalize_spec("pool:2;supervise=off")

    def test_bad_specs_raise(self):
        for bad in ("pool", "pool:", "pool:x", "pool:0"):
            with pytest.raises(BackendSpecError):
                normalize_spec(bad)

    def test_validation_and_describe_spawn_nothing(self):
        normalize_spec("pool:2")
        backend = make_backend("pool:2")
        try:
            info = backend.describe()
            assert "supervised" not in info
            # No worker was spawned, so no port was ever bound to report.
            assert "addresses" not in info
            assert all(p.process is None for p in backend.worker_processes)
        finally:
            backend.close()

    def test_sweep_matches_serial(self):
        backend = make_backend("pool:2")
        try:
            items = list(range(11))
            assert parallel_map(_square, items, backend=backend) == [
                x * x for x in items
            ]
            assert all(p.alive for p in backend.worker_processes)
        finally:
            backend.close()

    def test_killed_worker_is_respawned(self):
        respawns = metrics.counter("perf.supervise.respawns")
        fallbacks = metrics.counter("perf.parallel.chunk_fallbacks")
        respawns_before, fallbacks_before = respawns.value, fallbacks.value
        backend = make_backend("pool:1;backoff_base_s=0.01;backoff_max_s=0.05")
        try:
            assert parallel_map(_square, [1, 2], backend=backend) == [1, 4]
            victim = backend.worker_processes[0]
            victim.process.send_signal(signal.SIGKILL)
            victim.process.wait()
            assert parallel_map(_square, [3, 4], backend=backend) == [9, 16]
            replacement = backend.worker_processes[0]
            assert replacement is not victim and replacement.alive
        finally:
            backend.close()
        assert respawns.value == respawns_before + 1
        assert fallbacks.value == fallbacks_before  # healed, not fallen back

    def test_respawn_budget_exhausted_falls_back_to_caller(self):
        fallbacks = metrics.counter("perf.parallel.chunk_fallbacks")
        before = fallbacks.value
        backend = make_backend(
            "pool:1;max_respawns=0;max_reconnect_attempts=1;"
            "backoff_base_s=0.01;backoff_max_s=0.05;breaker_cooldown_s=0.05"
        )
        try:
            assert parallel_map(_square, [1, 2], backend=backend) == [1, 4]
            victim = backend.worker_processes[0]
            victim.process.send_signal(signal.SIGKILL)
            victim.process.wait()
            assert parallel_map(_square, [3, 4], backend=backend) == [9, 16]
        finally:
            backend.close()
        assert fallbacks.value > before

    def test_poison_chunk_quarantined_not_retried_forever(self):
        quarantined = metrics.counter("perf.supervise.quarantined_chunks")
        before = quarantined.value
        backend = make_backend(
            "pool:2;poison_threshold=1;backoff_base_s=0.01;backoff_max_s=0.05"
        )
        try:
            items = list(range(6))  # item 3 kills whichever worker runs it
            assert parallel_map(_poison, items, backend=backend) == [
                x * 2 for x in items
            ]
        finally:
            backend.close()
        assert quarantined.value == before + 1
        events = [e["event"] for e in backend.supervision_log.events]
        assert "quarantine" in events

    @pytest.mark.parametrize("kind", ["pool", "socket"])
    def test_heartbeats_keep_slow_chunks_alive(self, kind, spawn_worker):
        heartbeats = metrics.counter("perf.supervise.heartbeats")
        before = heartbeats.value
        if kind == "pool":
            # Frame timeout = heartbeat_s * grace = 0.3s, far below the
            # 0.6s the chunk takes: without heartbeats this sweep would be
            # declared dead and fall back; with them it completes remotely.
            backend = make_backend("pool:1;heartbeat=0.1;heartbeat_grace=3")
            seconds = 0.6
        else:
            # A socket spec with no options heartbeats too (every second by
            # default), so a chunk longer than one period sends some.
            _, port = spawn_worker()
            backend = make_backend(f"socket:127.0.0.1:{port}")
            seconds = 1.5
        fallbacks = metrics.counter("perf.parallel.chunk_fallbacks")
        fallbacks_before = fallbacks.value
        try:
            assert parallel_map(_slow_identity, [seconds], backend=backend) == [seconds]
        finally:
            backend.close()
        assert heartbeats.value > before
        assert fallbacks.value == fallbacks_before

    def test_supervision_log_is_replayable_from_the_seed(self):
        backend = make_backend(
            "pool:1;seed=11;backoff_base_s=0.01;backoff_max_s=0.05"
        )
        try:
            parallel_map(_square, [1], backend=backend)
            victim = backend.worker_processes[0]
            victim.process.send_signal(signal.SIGKILL)
            victim.process.wait()
            parallel_map(_square, [2], backend=backend)
            policy = backend.policy
            backoffs = [
                e for e in backend.supervision_log.events if e["event"] == "backoff"
            ]
            assert backoffs, "the killed worker must have logged backoff decisions"
            for event in backoffs:
                expected = backoff_delay(policy, event["worker"], event["attempt"])
                assert event["delay_s"] == round(expected, 9)
        finally:
            backend.close()


_WORKER_SURVIVORS = """
import ctypes, os
prctl = ctypes.CDLL(None, use_errno=True).prctl
prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
prctl.restype = ctypes.c_int
if prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
    raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
from repro import api
result = api.run_suite(["E12"], config=api.RunConfig(backend="pool:2"))
survivors = 0
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            parent = int(handle.read().rsplit(b")", 1)[1].split()[1])
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            command = handle.read()
    except OSError:
        continue
    survivors += parent == os.getpid() and b"repro.perf.worker" in command
print(result.exit_code, survivors)
"""


class TestPoolLifetime:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux subreaper")
    def test_experiment_child_stops_its_pool_workers(self):
        # The script adopts every orphan, so a pool worker its experiment
        # child left behind would show up as its own child.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _WORKER_SURVIVORS],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert out.stdout.split() == ["0", "0"], out.stderr
