"""The chaos harness, and the acceptance bar it exists for.

Unit-tests the seeded fault decisions (pure functions of their
coordinates), then drives real worker subprocesses through
:class:`~repro.perf.chaos.ChaosProxy` one fault type at a time — the sweep
must survive every one with results identical to serial.  The final test
is the issue's acceptance scenario: an E15 runner sweep on a three-worker
supervised pool where one worker is killed mid-chunk, one hangs after its
handshake, and one sits behind a seeded delay+truncate proxy — the run
must complete within its deadline with a report byte-identical to the
serial reference, and ``summary.resilience`` must show the recoveries.
"""

import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repro.obs import metrics
from repro.perf import cache as perf_cache
from repro.perf.backends import make_backend
from repro.perf.backends.sockets import recv_frame, send_frame, worker_info
from repro.perf.chaos import ChaosProxy, fork_fault_plan, parse_fork_spec
from repro.perf.parallel import parallel_map
from repro.semantics.measure import execution_measure
from repro.semantics.scheduler import ActionSequenceScheduler
from tests.helpers import coin_automaton, scrub_report

_SRC = str(Path(__file__).resolve().parents[1] / "src")


# -- seeded decisions are pure functions ----------------------------------------


class TestChaosDecisions:
    def test_decide_is_deterministic_and_seed_sensitive(self):
        upstream = ("127.0.0.1", 1)
        a = ChaosProxy(upstream, seed=7, kill=0.2, delay=0.3)
        b = ChaosProxy(upstream, seed=7, kill=0.2, delay=0.3)
        c = ChaosProxy(upstream, seed=8, kill=0.2, delay=0.3)
        coords = [(conn, d, f) for conn in range(3) for d in ("to-worker", "to-client") for f in range(20)]
        plan_a = [a.decide(*coord) for coord in coords]
        assert plan_a == [b.decide(*coord) for coord in coords]
        assert plan_a != [c.decide(*coord) for coord in coords]

    def test_handshake_frames_are_protected(self):
        proxy = ChaosProxy(("127.0.0.1", 1), seed=0, kill=1.0, protect_frames=2)
        assert proxy.decide(0, "to-worker", 0) == "pass"
        assert proxy.decide(0, "to-worker", 1) == "pass"
        assert proxy.decide(0, "to-worker", 2) == "kill"

    def test_parse_fork_spec(self):
        assert parse_fork_spec("seed=7,kill=0.1,delay_s=0.5") == {
            "seed": 7.0,
            "kill": 0.1,
            "delay_s": 0.5,
        }
        with pytest.raises(ValueError):
            parse_fork_spec("warp=1")
        with pytest.raises(ValueError):
            parse_fork_spec("kill")

    def test_fork_fault_plan_keys_on_first_item_index(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_FORK", "seed=3,kill=0.5")
        chunk = [(8, "a"), (11, "b")]
        first = fork_fault_plan(chunk)
        assert first == fork_fault_plan(chunk)
        # The same leading item in a differently-shaped chunk faults the
        # same way: the plan ignores chunk geometry beyond its length.
        other = fork_fault_plan([(8, "a")])
        assert (first is None) == (other is None)
        monkeypatch.delenv("REPRO_CHAOS_FORK")
        assert fork_fault_plan(chunk) is None


# -- real workers behind the proxy ----------------------------------------------


@pytest.fixture
def spawn_worker():
    procs = []

    def spawn(**env_overrides):
        env = dict(os.environ, **env_overrides)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.perf.worker", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        banner = proc.stdout.readline()
        assert "listening on" in banner, banner
        port = int(banner.strip().rsplit(":", 1)[1])
        procs.append(proc)
        return proc, port

    yield spawn
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


@pytest.fixture
def proxy_factory():
    proxies = []

    def start(port, **kwargs):
        proxy = ChaosProxy(("127.0.0.1", port), **kwargs)
        proxies.append(proxy)
        _host, proxy_port = proxy.start()
        return proxy, proxy_port

    yield start
    for proxy in proxies:
        proxy.stop()


def _triple(x):
    return x * 3


class TestChaosProxySurvival:
    def test_quiet_proxy_is_transparent(self, spawn_worker, proxy_factory):
        _, port = spawn_worker()
        proxy, proxy_port = proxy_factory(port)
        items = list(range(9))
        assert parallel_map(
            _triple, items, backend=f"socket:127.0.0.1:{proxy_port}"
        ) == [x * 3 for x in items]
        assert proxy.injected == []

    @pytest.mark.parametrize("fault", ["kill", "truncate", "garbage", "hang"])
    def test_sweep_survives_each_fault_type(self, spawn_worker, proxy_factory, fault):
        _, port = spawn_worker()
        # protect only the ping/pong: the very next frame (the chunk
        # request or its reply) is hit with probability 1.
        proxy, proxy_port = proxy_factory(
            port, seed=5, protect_frames=1, **{fault: 1.0}
        )
        fallbacks = metrics.counter("perf.parallel.chunk_fallbacks")
        before = fallbacks.value
        items = list(range(5))
        spec = f"socket:127.0.0.1:{proxy_port}"
        if fault == "hang":
            spec += ";deadline=1"  # a withheld frame must not block forever
        assert parallel_map(_triple, items, backend=spec) == [x * 3 for x in items]
        assert any(entry[3] == fault for entry in proxy.injected)
        assert fallbacks.value > before  # the worker was unusable: caller healed

    def test_delay_only_slows_nothing_breaks(self, spawn_worker, proxy_factory):
        _, port = spawn_worker()
        proxy, proxy_port = proxy_factory(
            port, seed=5, protect_frames=1, delay=1.0, delay_s=0.05
        )
        fallbacks = metrics.counter("perf.parallel.chunk_fallbacks")
        before = fallbacks.value
        items = list(range(6))
        assert parallel_map(
            _triple, items, backend=f"socket:127.0.0.1:{proxy_port}"
        ) == [x * 3 for x in items]
        assert any(entry[3] == "delay" for entry in proxy.injected)
        assert fallbacks.value == before  # delayed frames still arrive intact


class TestChaosProxyCLI:
    def test_bad_hostport_exits_2(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.perf.chaos", "--upstream", "nonsense"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert "HOST:PORT" in proc.stderr

    def test_cli_proxy_forwards_a_real_sweep(self, spawn_worker):
        _, port = spawn_worker()
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.perf.chaos",
                "--listen", "127.0.0.1:0",
                "--upstream", f"127.0.0.1:{port}",
                "--seed", "7", "--delay", "0.5", "--delay-s", "0.01",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("repro-chaos-proxy listening on "), banner
            proxy_port = int(banner.strip().rsplit(":", 1)[1])
            items = list(range(7))
            assert parallel_map(
                _triple, items, backend=f"socket:127.0.0.1:{proxy_port}"
            ) == [x * 3 for x in items]
        finally:
            proc.terminate()
            proc.wait()


# -- fork-side fault hooks -------------------------------------------------------
#
# REPRO_CHAOS_FORK is set before the pool forks its workers, whose chunk
# children read it from the environment they inherited.


class TestForkFaultHooks:
    def test_mid_chunk_kill_heals_in_caller(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_FORK", "seed=1,kill=1.0")
        fallbacks = metrics.counter("perf.parallel.chunk_fallbacks")
        before = fallbacks.value
        items = list(range(8))
        assert parallel_map(_triple, items, backend="pool:2") == [x * 3 for x in items]
        assert fallbacks.value == before + 2  # every chunk child was killed

    def test_delay_fault_changes_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_FORK", "seed=1,delay=1.0,delay_s=0.01")
        fallbacks = metrics.counter("perf.parallel.chunk_fallbacks")
        before = fallbacks.value
        items = list(range(8))
        assert parallel_map(_triple, items, backend="pool:2") == [x * 3 for x in items]
        assert fallbacks.value == before

    def test_malformed_spec_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_FORK", "not a spec at all")
        fallbacks = metrics.counter("perf.parallel.chunk_fallbacks")
        before = fallbacks.value
        items = list(range(4))
        assert parallel_map(_triple, items, backend="pool:2") == [x * 3 for x in items]
        assert fallbacks.value == before


def _unfold(item):
    automaton, scheduler = item
    return execution_measure(automaton, scheduler)


def _seed_killing_only_item_0(monkeypatch):
    """A ``REPRO_CHAOS_FORK`` seed that kills the chunk led by item 0 and
    spares the chunk led by item 1 (plans are keyed by the leading item)."""
    try:
        for seed in range(100):
            monkeypatch.setenv("REPRO_CHAOS_FORK", f"seed={seed},kill=0.5")
            if fork_fault_plan([(0, None)]) and not fork_fault_plan([(1, None)]):
                return seed
    finally:
        monkeypatch.delenv("REPRO_CHAOS_FORK")
    raise AssertionError("no seed in range(100) kills only the chunk led by item 0")


class TestLostChunkCacheCounters:
    """A chunk recomputed in the caller after its worker was lost counts
    the same cache and intern hits and misses as the worker would have:
    cold, however warm the caller's own tables are."""

    @pytest.mark.parametrize("transport", ["pool", "socket"])
    def test_one_lost_chunk_reports_the_fault_free_counters(
        self, transport, monkeypatch, spawn_worker
    ):
        chaos = f"seed={_seed_killing_only_item_0(monkeypatch)},kill=0.5"
        perf_cache.configure(enabled=True)
        coin = coin_automaton("c", Fraction(1, 3))
        items = [
            (coin, ActionSequenceScheduler(actions))
            for actions in (["toss"], ["toss", "head"], ["toss", "tail"], ["toss", "head", "tail"])
        ]
        fallbacks = metrics.counter("perf.parallel.chunk_fallbacks")

        def sweep(faulty):
            if transport == "pool":
                if faulty:  # before the pool forks its workers
                    monkeypatch.setenv("REPRO_CHAOS_FORK", chaos)
                backend = make_backend("pool:2")
            else:
                _, port = spawn_worker(**({"REPRO_CHAOS_FORK": chaos} if faulty else {}))
                backend = make_backend(f"socket:127.0.0.1:{port},127.0.0.1:{port}")
            for item in items:
                _unfold(item)  # the caller's own tables are warm
            metrics.reset()
            try:
                results = parallel_map(_unfold, items, backend=backend)
            finally:
                backend.close()
                monkeypatch.delenv("REPRO_CHAOS_FORK", raising=False)
            counts = {
                table: {k: v for k, v in row.items() if k != "size"}
                for table, row in perf_cache.stats().items()
            }
            return results, fallbacks.value, counts

        healthy, faulty = sweep(False), sweep(True)
        assert healthy[1] == 0 and faulty[1] == 1
        assert healthy[0] == faulty[0]
        assert any(row["hits"] + row["misses"] for row in healthy[2].values())
        assert faulty[2] == healthy[2]


# -- the acceptance scenario -----------------------------------------------------

def _scrub(payload):
    # Beyond timing: the backend description and the counters, which count
    # the faults the transport survived.
    return scrub_report(
        payload,
        summary=("cache", "backend", "resilience", "config"),
        record=("counters",),
    )


@pytest.fixture
def hung_worker():
    """Handshakes like a real worker, then never answers anything —
    the heartbeat-silence detector must eject it, not wait forever."""
    server = socket_module.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]
    stop = threading.Event()

    def handle(conn):
        try:
            message = recv_frame(conn)
            if message == ("ping",):
                send_frame(conn, ("pong", worker_info()))
            recv_frame(conn)  # the chunk request...
            stop.wait(60)  # ...into the void
        except (OSError, EOFError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def serve():
        while not stop.is_set():
            try:
                conn, _peer = server.accept()
            except OSError:
                return
            threading.Thread(target=handle, args=(conn,), daemon=True).start()

    threading.Thread(target=serve, daemon=True).start()
    yield port
    stop.set()
    server.close()


class TestE15ChaosAcceptance:
    def test_report_byte_identical_to_serial_under_chaos(
        self, tmp_path, monkeypatch, capsys, spawn_worker, proxy_factory, hung_worker
    ):
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        monkeypatch.delenv("REPRO_CHUNK_DEADLINE", raising=False)
        from repro.experiments import runner

        serial_out = tmp_path / "serial.json"
        assert runner.main(
            ["E15", "--seed", "7", "--backend", "serial",
             "--metrics-out", str(serial_out)]
        ) == 0
        serial = _scrub(json.loads(serial_out.read_text()))

        # Worker 1: real, killed mid-sweep.  Worker 2: real, behind a
        # seeded delay+truncate proxy.  Worker 3: hangs after handshake.
        victim, victim_port = spawn_worker()
        _, proxied_port = spawn_worker()
        _proxy, proxy_port = proxy_factory(
            proxied_port, seed=7, protect_frames=2, truncate=0.25, delay=0.5,
            delay_s=0.02,
        )
        spec = (
            f"socket:127.0.0.1:{victim_port},127.0.0.1:{proxy_port},"
            f"127.0.0.1:{hung_worker}"
            ";heartbeat=0.2;heartbeat_grace=3;timeout=5"
            ";backoff_base_s=0.01;backoff_max_s=0.1;breaker_cooldown_s=0.2"
        )
        killer = threading.Timer(
            0.3, lambda: (victim.send_signal(signal.SIGKILL), victim.wait())
        )
        killer.start()
        chaos_out = tmp_path / "chaos.json"
        started = time.monotonic()
        try:
            code = runner.main(
                ["E15", "--seed", "7", "--chunk-deadline", "30",
                 "--backend", spec, "--metrics-out", str(chaos_out)]
            )
        finally:
            killer.cancel()
        assert code == 0
        assert time.monotonic() - started < 60  # completed, not wedged

        payload = json.loads(chaos_out.read_text())
        assert _scrub(payload) == serial

        resilience = payload["summary"]["resilience"]
        assert resilience["chunk_deadline_s"] == 30.0
        counters = resilience["counters"]
        # The kill and the hang both force chunk retries; the hung worker
        # additionally misses heartbeats.
        assert counters.get("perf.parallel.socket.retries", 0) > 0
        assert counters.get("perf.supervise.deadline_misses", 0) > 0
