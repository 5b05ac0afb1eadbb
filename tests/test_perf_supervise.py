"""The self-healing supervision layer: policy, backoff, breakers, pool.

Unit-tests the pure mechanisms (policy resolution, seeded backoff, the
circuit-breaker state machine) and then the ``pool:N`` backend end to end
against real forked workers: lazy spawn (no leaked processes from spec
validation), a fresh slate and a start that survives the caller's held
locks and foreign stdio, respawn of a killed worker, poison-chunk quarantine,
heartbeat keep-alive of slow chunks, and the determinism bar — every
backoff delay the supervisor logged must be recomputable from the policy
seed alone.  The lifetime tests run whole suites under a child subreaper:
one pool per ``run_suite`` call, adopted by every experiment child, healed
by the parent between experiments, and no worker left behind.
"""

import io
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repro.api import RunConfig, resolve_config
from repro.obs import log as obs_log
from repro.obs import metrics
from repro.perf.backends import BackendSpecError, make_backend, normalize_spec
from repro.perf.parallel import parallel_map
from repro.perf.supervise import (
    CircuitBreaker,
    LocalPoolBackend,
    SupervisionLog,
    SupervisionPolicy,
    WorkerProcess,
    _pid_alive,
    backoff_delay,
    base_policy,
)
from repro.semantics.measure import execution_measure
from repro.semantics.scheduler import DeterministicScheduler, bound_scheduler

from tests.conftest import subprocess_env
from tests.helpers import coin_automaton


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

    def test_only_the_owner_stops_a_worker_and_others_see_it_live(self):
        # Popen.poll in a forked child fails with ECHILD, which CPython
        # reports as an exit: the child must read liveness elsewhere.
        def in_child(check):
            pid = os.fork()
            if pid == 0:
                os._exit(0 if check() else 1)
            _pid, status = os.waitpid(pid, 0)
            return os.waitstatus_to_exitcode(status) == 0

        worker = WorkerProcess(0)
        worker.start()
        try:
            assert in_child(lambda: worker.alive and (worker.terminate() or worker.alive))
            assert worker.alive
            worker.process.send_signal(signal.SIGKILL)
            deadline = time.monotonic() + 10
            while in_child(lambda: worker.alive) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not in_child(lambda: worker.alive)  # a zombie counts as dead
        finally:
            worker.terminate()

    def test_concurrent_heals_respawn_each_dead_slot_once(self):
        # run_suite heals from every --parallel thread; a slot two threads
        # both found dead must still be respawned once.
        backend = make_backend("pool:2")
        interval = sys.getswitchinterval()
        try:
            backend.start()
            for proc in backend.worker_processes:
                proc.process.kill()
                proc.process.wait()
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=backend.start) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            backend.close()
        assert backend.workers_started == 4
        respawns = [e for e in backend.supervision_log.events if e["event"] == "respawn"]
        assert sorted(e["slot"] for e in respawns) == [0, 1]

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


def _square(x):
    return x * x


def _unfold_and_probe(p):
    """Unfold a coin in a pool chunk; report the state the chunk started from.

    The chunk child is forked from its worker, so what it finds is what the
    worker kept from the process that forked it."""
    started_from = (
        signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
        obs_log.correlation(),
        os.environ.get("REPRO_PERF_WORKER"),
    )
    scheduler = bound_scheduler(DeterministicScheduler.greedy(), 3)
    measure = execution_measure(coin_automaton("slate", p), scheduler)
    return started_from, sorted((repr(f), w) for f, w in measure.items())


#: Items of the fresh-slate sweep.
PROBES = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)]


class TestForkedWorkers:
    """Pool workers are forked from the caller, whatever state it is in."""

    def test_worker_announces_despite_foreign_stdio_and_held_locks(
        self, tmp_path, monkeypatch
    ):
        # sys.stdout is in memory (as under pytest) and sys.stderr is stuck
        # in another thread's write to a full pipe, holding the stream's
        # lock.  The worker must still announce itself within 10 s, serve a
        # sweep and log it to the structured sink.
        log_path = tmp_path / "log.jsonl"
        obs_log.configure(str(log_path))
        read_fd, write_fd = os.pipe()
        stuck = open(write_fd, "w")
        saved = sys.stdout, sys.stderr

        def flood():
            stuck.write("x" * (1 << 20))  # nobody reads yet: blocks holding the lock
            stuck.flush()

        flooder = threading.Thread(target=flood)
        backend = make_backend("pool:1")
        box = []
        sweeper = threading.Thread(  # a daemon: a hung start fails the test, not the run
            target=lambda: box.append(
                parallel_map(_square, range(6), backend=backend)
            ),
            daemon=True,
        )
        sockets = metrics.counter("perf.parallel.socket.chunks")
        before = sockets.value
        sys.stdout, sys.stderr = io.StringIO(), stuck
        try:
            flooder.start()
            time.sleep(0.1)
            sweeper.start()
            sweeper.join(10)
            assert not sweeper.is_alive(), "the forked worker never answered"
            worker_pid = backend.worker_processes[0].process.pid
            logged = False
            deadline = time.monotonic() + 10
            while not logged and time.monotonic() < deadline:
                time.sleep(0.01)  # the worker logs the chunk after replying
                logged = any(
                    record["event"] == "worker.chunk" and record["pid"] == worker_pid
                    for record in map(json.loads, log_path.read_text().splitlines())
                )
        finally:
            sys.stdout, sys.stderr = saved
            for proc in backend.worker_processes:
                if proc.process is not None:  # a hung start reads EOF once killed
                    proc.process.kill()
            sweeper.join(10)
            drained_by = time.monotonic() + 10
            while flooder.is_alive() and time.monotonic() < drained_by:
                if select.select([read_fd], [], [], 0.1)[0]:
                    os.read(read_fd, 1 << 16)
            assert not flooder.is_alive()
            stuck.close()
            os.close(read_fd)
            backend.close()
        assert box == [[x * x for x in range(6)]]
        assert sockets.value > before  # served remotely, not by the fallback
        assert logged, "the worker wrote no record to the structured log"

    def test_worker_starts_from_a_fresh_slate(self):
        RunConfig(cache="on").apply()

        def sweep(backend):
            metrics.reset()
            outcome = parallel_map(_unfold_and_probe, PROBES, backend=backend)
            return outcome, metrics.snapshot()["counters"]

        def start_pool():
            backend = make_backend("pool:1")
            backend.start()
            return backend

        cold = start_pool()
        try:
            cold_outcome = sweep(cold)
        finally:
            cold.close()

        # Warm the caller: counters, a job correlation id and a SIGTERM
        # handler that would keep a worker up.
        metrics.counter("test.fresh_slate").inc(7)
        obs_log.set_correlation("job-warm")
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            warm = start_pool()
        finally:
            signal.signal(signal.SIGTERM, previous)
            obs_log.set_correlation(None)
        try:
            warm_outcome = sweep(warm)
        finally:
            started = time.monotonic()
            warm.close()
            closed_in = time.monotonic() - started
        assert warm_outcome == cold_outcome
        results, counters = warm_outcome
        assert [state for state, _ in results] == [(True, None, "1")] * len(PROBES)
        assert counters.get("perf.parallel.socket.chunks", 0) > 0
        assert "perf.parallel.chunk_fallbacks" not in counters
        # close() stopped every worker with SIGTERM, not the kill fallback.
        assert closed_in < 4
        for backend in (cold, warm):
            for proc in backend.worker_processes:
                assert proc.process.poll() is not None
                assert not _pid_alive(proc.process.pid)


#: Prologue of the lifetime scripts: the script becomes a child subreaper,
#: so it adopts every orphan, and a pool worker some process left behind
#: shows up as one of its own running children.  Workers are forks of the
#: script, so they are told apart by parentage, not by command line.
_SUBREAPER = """
import ctypes, json, os
prctl = ctypes.CDLL(None, use_errno=True).prctl
prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
prctl.restype = ctypes.c_int
if prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
    raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
from repro import api
from repro.experiments import common
from repro.perf import backends

def running(pid):
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except OSError:
        return False

def survivors():
    count = 0
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                parent = int(handle.read().rsplit(b")", 1)[1].split()[1])
        except OSError:
            continue
        count += parent == os.getpid() and running(pid)
    return count
"""

_WORKER_SURVIVORS = _SUBREAPER + """
result = api.run_suite(SELECTION, config=api.RunConfig(backend="pool:2", CONFIG))
backend = result.report["summary"]["backend"]
print(result.exit_code, backend["workers_started"], survivors())
"""

#: Kill one of the run's workers between a pool sweep and E15: the parent
#: must heal the pool before E15's child forks, so the two run one after the
#: other.
_HEAL_BETWEEN_EXPERIMENTS = _SUBREAPER + """
common.ALL_EXPERIMENTS["EX-A"] = ("tests.faultyexp.pool_sweep", "sweep")

def kill_after_sweep(experiment_id, record, done, total):
    if experiment_id == "EX-A":
        victim = backends.get_backend().worker_processes[0]
        victim.process.kill()
        victim.process.wait()

result = api.run_suite(
    ["EX-A", "E15"],
    config=api.RunConfig(backend="pool:2", parallel=1),
    on_record=kill_after_sweep,
)
reference = api.run_suite(["E15"], config=api.RunConfig(cache="off", isolated=False))
print(json.dumps({
    "exit_code": result.exit_code,
    "tables_match": result.records[1]["table"] == reference.records[0]["table"],
    "e15_counters": result.records[1]["counters"],
    "workers_started": result.report["summary"]["backend"]["workers_started"],
    "survivors": survivors(),
}))
"""

#: Three experiments on one pool:1.  The first sweeps over the parent's
#: worker; the second kills it mid-chunk and respawns its own; the third
#: sweeps over the worker the parent respawned in between, so the three run
#: one after the other.
_CHILD_RESPAWN = _SUBREAPER + """
import tempfile
from tests.faultyexp import pool_kill
scratch = tempfile.TemporaryDirectory()
pool_kill.MARKER = os.path.join(scratch.name, "killed")
common.ALL_EXPERIMENTS["EX-A"] = ("tests.faultyexp.pool_sweep", "sweep")
common.ALL_EXPERIMENTS["EX-KILL"] = ("tests.faultyexp.pool_kill", "kill")
common.ALL_EXPERIMENTS["EX-B"] = ("tests.faultyexp.pool_sweep", "sweep")
seen = {}

def pids(line):
    return [int(pid) for pid in line.split()[1:]]

def check(experiment_id, record, done, total):
    found, left = record["table"].splitlines()
    worker = backends.get_backend().worker_processes[0]
    seen[experiment_id] = {
        "parent_worker": worker.process.pid,
        "parent_worker_alive": worker.alive,
        "found": pids(found),
        "left": pids(left),
        "left_alive": [running(pid) for pid in pids(left)],
        "respawns": record["counters"].get("perf.supervise.respawns", 0),
        "fallbacks": record["counters"].get("perf.parallel.chunk_fallbacks", 0),
    }

result = api.run_suite(
    ["EX-A", "EX-KILL", "EX-B"],
    config=api.RunConfig(
        backend="pool:1;backoff_base_s=0.01;backoff_max_s=0.05", parallel=1
    ),
    on_record=check,
)
print(json.dumps({
    "exit_code": result.exit_code,
    "seen": seen,
    "workers_started": result.report["summary"]["backend"]["workers_started"],
    "survivors": survivors(),
}))
"""


def _run_script(script):
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux subreaper")
class TestPoolLifetime:
    @staticmethod
    def run_sweep(selection, config):
        script = _WORKER_SURVIVORS.replace("SELECTION", repr(selection))
        return _run_script(script.replace("CONFIG", config)).split()

    def test_experiment_child_stops_its_pool_workers(self):
        assert self.run_sweep(["E15"], "isolated=True") == ["0", "2", "0"]

    def test_inline_run_stops_its_pool_workers(self):
        assert self.run_sweep(["E15"], "isolated=False") == ["0", "2", "0"]

    def test_parallel_children_share_one_pool(self):
        assert self.run_sweep(["E15", "E15"], "parallel=2") == ["0", "2", "0"]

    def test_no_process_of_the_runs_session_outlives_the_runner(self):
        # Forked workers carry the runner's command line, so this looks for
        # any process left in the runner's own session instead of a name.
        root = Path(__file__).resolve().parents[1]
        runner = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "E15", "--backend", "pool:2"],
            stdout=subprocess.DEVNULL,
            env=subprocess_env(),
            cwd=root,
            start_new_session=True,
        )
        try:
            assert runner.wait(timeout=120) == 0
        finally:
            runner.kill()
        left = []
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{pid}/stat", "rb") as handle:
                    fields = handle.read().rsplit(b")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == runner.pid and fields[0] not in (b"Z", b"X"):
                left.append(int(pid))
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux subreaper")
class TestSharedPool:
    def test_parent_heals_the_pool_between_experiments(self):
        outcome = json.loads(_run_script(_HEAL_BETWEEN_EXPERIMENTS))
        assert outcome["exit_code"] == 0
        assert outcome["tables_match"]
        counters = outcome["e15_counters"]
        # E15 swept remotely over a healed pool: no dead worker, no
        # respawn of its own, no chunk recomputed in the caller.
        assert counters.get("perf.parallel.socket.chunks", 0) > 0
        for name in (
            "perf.parallel.chunk_fallbacks",
            "perf.parallel.socket.dead_workers",
            "perf.supervise.respawns",
        ):
            assert name not in counters, name
        assert outcome["workers_started"] == 3
        assert outcome["survivors"] == 0

    def test_child_respawns_its_own_worker_and_stops_it(self):
        outcome = json.loads(_run_script(_CHILD_RESPAWN))
        assert outcome["exit_code"] == 0
        seen = outcome["seen"]
        first, killer, last = seen["EX-A"], seen["EX-KILL"], seen["EX-B"]
        # The first child swept over the parent's worker and left it running.
        assert first["found"] == first["left"] == [first["parent_worker"]]
        assert first["parent_worker_alive"] and first["respawns"] == 0
        # The second found the same worker, lost it mid-sweep, respawned
        # one of its own, and stopped that one before it exited.
        assert killer["found"] == [first["parent_worker"]]
        assert killer["respawns"] == 1 and killer["fallbacks"] == 0
        assert killer["left"] != killer["found"]
        assert killer["left_alive"] == [False]
        # The parent respawned the killed worker before the third child.
        assert last["found"] == [last["parent_worker"]]
        assert last["parent_worker"] != first["parent_worker"]
        assert last["respawns"] == 0 and last["parent_worker_alive"]
        assert outcome["workers_started"] == 3
        assert outcome["survivors"] == 0
