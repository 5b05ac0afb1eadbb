"""The execution-backend registry, the socket transport, and the runner glue.

Covers spec parsing and normalization, default-backend resolution order,
the ``repro.perf`` public surface, per-backend ``submit_chunks`` semantics,
and — against two real loopback workers — the socket backend end to end:
result equality with serial, boundary metrics merging, remote error
propagation, retry on a dead worker, caller fallback when the whole pool is
gone, and the acceptance bar itself: E12/E15 runner reports byte-identical
across ``serial``, ``pool:2`` and ``socket:`` (modulo wall-clock fields and
cache-warmth-dependent counters), including with a worker killed mid-sweep.
"""

import json
import os
import random
import signal
import socket as socket_module
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from repro import perf
from repro.obs import metrics
from repro.perf import backends as backends_registry
from repro.perf.backends import (
    BackendSpecError,
    ChunkOutcome,
    ExecutionBackend,
    SerialBackend,
    SocketBackend,
    configure_backend,
    current_spec,
    get_backend,
    make_backend,
    normalize_spec,
)
from repro.perf.backends.sockets import (
    PROTOCOL_VERSION,
    BackendProtocolError,
    parse_addresses,
    recv_frame,
    send_frame,
    worker_info,
)
from repro.perf.parallel import ParallelWorkerError, parallel_map
from repro.perf.worker import run_chunk_in_fork
from tests.helpers import scrub_report

_SRC = str(Path(__file__).resolve().parents[1] / "src")


# -- spec parsing and the registry ---------------------------------------------


class TestSpecs:
    def test_normalization(self):
        assert normalize_spec("serial") == "serial"
        assert normalize_spec("pool:3") == "pool:3"
        assert normalize_spec(" Pool:3 ") == "pool:3"
        assert (
            normalize_spec("socket:127.0.0.1:9001,10.0.0.2:9001")
            == "socket:127.0.0.1:9001,10.0.0.2:9001"
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "bogus", "serial:2", "fork:x", "fork:0x4", "socket:", "socket:hostonly", "socket:h:12x"],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(BackendSpecError):
            normalize_spec(bad)

    @pytest.mark.parametrize("spec", ["fork", "fork:2"])
    def test_removed_fork_backend_is_unknown(self, spec):
        for build in (make_backend, normalize_spec):
            with pytest.raises(BackendSpecError, match="known: pool, serial, socket"):
                build(spec)

    def test_parse_addresses(self):
        assert parse_addresses("h1:1, h2:2") == [("h1", 1), ("h2", 2)]
        with pytest.raises(BackendSpecError):
            parse_addresses(None)

    def test_custom_backend_registration(self, monkeypatch):
        class EchoBackend(ExecutionBackend):
            name = "test-echo"

            @property
            def spec(self):
                return "test-echo"

            @property
            def parallelism(self):
                return 1

            def submit_chunks(self, fn, chunks):
                return [
                    ChunkOutcome(results=[(i, None, fn(x)) for i, x in chunk])
                    for chunk in chunks
                ]

        # Through monkeypatch, so teardown takes the entry out of the
        # process-wide registry again.
        monkeypatch.setitem(backends_registry._FACTORIES, "test-echo", lambda rest: EchoBackend())
        assert isinstance(make_backend("test-echo"), EchoBackend)

    def test_unknown_backend_names_exactly_the_builtin_ones(self):
        with pytest.raises(BackendSpecError) as excinfo:
            make_backend("nope")
        assert str(excinfo.value) == "unknown backend 'nope' (known: pool, serial, socket)"


class TestResolution:
    def test_configure_spec_wins_over_environment(self, monkeypatch):
        # The environment is read only by resolve_config at entry points.
        monkeypatch.setenv("REPRO_BACKEND", "pool:7")
        configure_backend("pool:3")
        assert current_spec() == "pool:3"
        assert get_backend().parallelism == 3  # built lazily: no worker starts
        configure_backend(None)
        assert current_spec() == "serial"

    def test_configure_instance_used_directly(self):
        instance = SerialBackend()
        configure_backend(instance)
        assert get_backend() is instance

    def test_invalid_spec_rejected_at_configure_time(self):
        with pytest.raises(BackendSpecError):
            configure_backend("warp:9")

    def test_default_is_serial(self):
        configure_backend(None)
        assert current_spec() == "serial"

    def test_describe_shape(self):
        info = make_backend("serial").describe()
        assert info == {"name": "serial", "spec": "serial", "parallelism": 1}
        info = make_backend("socket:127.0.0.1:9001").describe()
        assert info["addresses"] == ["127.0.0.1:9001"]


class TestPublicSurface:
    def test_stable_api_reexported_from_repro_perf(self):
        for name in (
            "parallel_map",
            "configure_backend",
            "get_backend",
            "make_backend",
            "register_backend",
            "current_spec",
            "ExecutionBackend",
            "SerialBackend",
            "SocketBackend",
            "LocalPoolBackend",
            "ParallelWorkerError",
            "BackendSpecError",
            "fingerprint",
            "try_fingerprint",
            "active_store",
        ):
            assert hasattr(perf, name), name


# -- per-backend submit_chunks semantics ---------------------------------------


class TestSerialBackend:
    def test_runs_in_process_with_caller_metrics(self):
        backend = SerialBackend()
        c = metrics.counter("test.backends.serial")

        def bump(x):
            c.inc()
            return x * 2

        outcomes = backend.submit_chunks(bump, [[(0, 1), (2, 3)], [(1, 2)]])
        assert [o.results for o in outcomes] == [[(0, None, 2), (2, None, 6)], [(1, None, 4)]]
        # Work already ran in the caller's registry: no snapshot to merge.
        assert all(o.metrics is None for o in outcomes)
        assert c.value == 3

    def test_item_error_carries_traceback(self):
        def boom(x):
            raise ValueError("serial boom")

        (outcome,) = SerialBackend().submit_chunks(boom, [[(0, 1)]])
        index, error, _value = outcome.results[0]
        assert index == 0 and "serial boom" in error


class TestChunkExecutor:
    """The worker's per-chunk executor, driven directly and through a pool."""

    def test_chunks_run_in_children(self):
        parent = os.getpid()
        outcomes = [
            run_chunk_in_fork(lambda x: (x, os.getpid()), chunk, {})
            for chunk in ([(0, "a")], [(1, "b")])
        ]
        pids = {outcome.results[0][2][1] for outcome in outcomes}
        assert parent not in pids and len(pids) == 2
        assert all(outcome.metrics is not None for outcome in outcomes)
        assert all(outcome.trace is None for outcome in outcomes)  # untraced

    def test_hard_death_reports_lost_chunk(self):
        assert run_chunk_in_fork(lambda x: os._exit(3), [(0, None)], {}) is None
        # Through a pool worker: the worker survives its chunk child and
        # reports the chunk lost, without retrying it elsewhere.
        backend = make_backend("pool:1")
        try:
            (outcome,) = backend.submit_chunks(lambda x: os._exit(3), [[(0, None)]])
            assert outcome.lost and not outcome.quarantined
            assert outcome.detail == "worker's chunk subprocess died without reporting"
            assert backend.submit_chunks(lambda x: x + 1, [[(0, 1)]])[0].results == [
                (0, None, 2)
            ]
        finally:
            backend.close()


# -- the socket transport, against real loopback workers -----------------------


@pytest.fixture
def spawn_worker():
    procs = []

    def spawn():
        env = dict(os.environ)
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


class TestSocketBackend:
    def test_sweep_matches_serial_exactly(self, spawn_worker):
        _, p1 = spawn_worker()
        _, p2 = spawn_worker()
        backend = f"socket:127.0.0.1:{p1},127.0.0.1:{p2}"

        def draw(seed):
            return (random.Random(seed).random(), Fraction(seed, 7))

        items = list(range(19))
        assert parallel_map(draw, items, backend=backend) == [draw(i) for i in items]

    def test_worker_counters_merge_back(self, spawn_worker):
        _, port = spawn_worker()
        c = metrics.counter("test.backends.socket_increments")
        before = c.value

        def bump(x):
            c.inc()
            return x

        parallel_map(bump, list(range(9)), backend=f"socket:127.0.0.1:{port}")
        assert c.value == before + 9

    def test_remote_error_propagates_with_traceback(self, spawn_worker):
        _, port = spawn_worker()

        def maybe_boom(x):
            if x == 3:
                raise ValueError("socket boom")
            return x

        with pytest.raises(ParallelWorkerError) as excinfo:
            parallel_map(maybe_boom, list(range(6)), backend=f"socket:127.0.0.1:{port}")
        assert excinfo.value.index == 3
        assert "socket boom" in str(excinfo.value)

    def test_dead_worker_chunk_retries_on_survivor(self, spawn_worker):
        _, p1 = spawn_worker()
        victim, p2 = spawn_worker()
        backend = make_backend(f"socket:127.0.0.1:{p1},127.0.0.1:{p2}")
        backend._ensure_connected()
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        retries = metrics.counter("perf.parallel.socket.retries")
        fallbacks = metrics.counter("perf.parallel.chunk_fallbacks")
        retries_before, fallbacks_before = retries.value, fallbacks.value
        try:
            items = list(range(8))
            assert parallel_map(lambda x: x * x, items, backend=backend) == [
                x * x for x in items
            ]
        finally:
            backend.close()
        assert retries.value > retries_before
        assert fallbacks.value == fallbacks_before

    def test_whole_pool_dead_falls_back_to_caller(self, spawn_worker):
        w1, p1 = spawn_worker()
        w2, p2 = spawn_worker()
        backend = make_backend(f"socket:127.0.0.1:{p1},127.0.0.1:{p2}")
        backend._ensure_connected()
        for worker in (w1, w2):
            worker.send_signal(signal.SIGKILL)
            worker.wait()
        fallbacks = metrics.counter("perf.parallel.chunk_fallbacks")
        before = fallbacks.value
        try:
            items = list(range(8))
            assert parallel_map(lambda x: x + 1, items, backend=backend) == [
                x + 1 for x in items
            ]
        finally:
            backend.close()
        assert fallbacks.value == before + 2  # both chunks recomputed here

    def test_incompatible_worker_fails_loudly(self):
        server = socket_module.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def impostor():
            conn, _peer = server.accept()
            recv_frame(conn)  # the ping
            send_frame(conn, ("pong", {"protocol": 999, "python": "0.0"}))
            conn.close()

        threading.Thread(target=impostor, daemon=True).start()
        backend = make_backend(f"socket:127.0.0.1:{port}")
        try:
            with pytest.raises(BackendProtocolError, match="protocol 999"):
                backend.submit_chunks(lambda x: x, [[(0, 1)]])
        finally:
            backend.close()
            server.close()

    @pytest.mark.parametrize("protocol", [2, 3])
    def test_protocol_v2_worker_refused(self, fake_worker, protocol):
        port = fake_worker(lambda conn: _handshake(conn, protocol=protocol))
        backend = make_backend(f"socket:127.0.0.1:{port}")
        try:
            with pytest.raises(BackendProtocolError, match=f"protocol {protocol}"):
                backend.submit_chunks(lambda x: x, [[(0, 1)]])
        finally:
            backend.close()

    def test_shutdown_request_stops_worker(self, spawn_worker):
        proc, port = spawn_worker()
        sock = socket_module.create_connection(("127.0.0.1", port), timeout=10)
        send_frame(sock, ("shutdown",))
        assert recv_frame(sock)[0] == "bye"
        sock.close()
        assert proc.wait(timeout=10) == 0


@pytest.fixture
def fake_worker():
    """A loopback server driven by a per-connection handler — lets tests
    play a hung or byzantine worker without subclassing the real one.
    Connections are served one at a time unless ``concurrent`` is set.
    Teardown closes the servers and joins every thread the fixture started,
    so none outlives its test."""
    servers = []
    threads = []

    def spawn(target, *args):
        thread = threading.Thread(target=target, args=args, daemon=True)
        threads.append(thread)
        thread.start()

    def start(handler, concurrent=False):
        server = socket_module.create_server(("127.0.0.1", 0))
        server.settimeout(30)
        servers.append(server)
        port = server.getsockname()[1]

        def handle(conn):
            try:
                handler(conn)
            except (OSError, EOFError):
                pass  # the client hung up mid-frame
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

        def serve():
            while True:
                try:
                    conn, _peer = server.accept()
                except OSError:
                    return  # server closed by teardown
                if concurrent:
                    spawn(handle, conn)
                else:
                    handle(conn)

        spawn(serve)
        return port

    yield start
    for server in servers:
        try:
            server.shutdown(socket_module.SHUT_RDWR)  # wakes a blocked accept()
        except OSError:
            pass
        server.close()
    # Each serve thread is joined before the handlers it spawned, which
    # it appended after itself, so iterating the live list misses none.
    for thread in threads:
        thread.join(10)


def _handshake(conn, protocol=PROTOCOL_VERSION):
    message = recv_frame(conn)
    assert message == ("ping",)
    send_frame(conn, ("pong", {"protocol": protocol, "python": worker_info()["python"]}))


class TestMisbehavingWorkers:
    """Hung and byzantine peers: the caller must survive, with exact results
    and every item's metrics counted exactly once (satellite: issue task 4)."""

    @pytest.mark.parametrize("accept", ["sequential", "concurrent"])
    def test_hung_after_handshake_bounded_by_deadline(self, fake_worker, accept):
        hung = threading.Event()

        def stall(conn):
            _handshake(conn)
            recv_frame(conn)  # the run request...
            hung.wait(30)  # ...then dead silence, never a reply

        # A concurrent server completes every redial's handshake, so the
        # supervisor can reconnect to the one hung endpoint again and
        # again; the chunk's failed attempts must still quarantine it.
        port = fake_worker(stall, concurrent=accept == "concurrent")
        misses = metrics.counter("perf.supervise.deadline_misses")
        fallbacks = metrics.counter("perf.parallel.chunk_fallbacks")
        misses_before, fallbacks_before = misses.value, fallbacks.value
        c = metrics.counter("test.backends.hung_worker_items")
        count_before = c.value

        def bump(x):
            c.inc()
            return x * 3

        items = list(range(5))
        results = []
        sweep = threading.Thread(
            target=lambda: results.append(
                parallel_map(bump, items, backend=f"socket:127.0.0.1:{port};deadline=1")
            ),
            daemon=True,
        )
        try:
            sweep.start()
            sweep.join(10)
            assert not sweep.is_alive(), "a hung worker held the sweep past 10s"
        finally:
            hung.set()
        assert results == [[x * 3 for x in items]]
        assert misses.value > misses_before
        assert fallbacks.value > fallbacks_before
        # The worker never replied, so its chunk contributed no metrics:
        # only the caller's recomputation counted, exactly once per item.
        assert c.value == count_before + len(items)

    @pytest.mark.parametrize("corruption", ["garbage", "truncated", "wrong-payload"])
    def test_byzantine_frames_survive_without_double_counting(
        self, fake_worker, corruption
    ):
        def corrupt(conn):
            _handshake(conn)
            recv_frame(conn)
            if corruption == "garbage":
                # A length header promising an absurd frame: FrameError.
                conn.sendall((1 << 40).to_bytes(8, "big") + b"\xde\xad\xbe\xef")
            elif corruption == "wrong-payload":
                # A well-formed frame whose ok payload is not a ChunkOutcome.
                send_frame(conn, ("ok", "junk", None, None, None))
            else:
                # A frame cut off mid-payload: EOFError at the receiver.
                conn.sendall((1000).to_bytes(8, "big") + b"x" * 17)

        port = fake_worker(corrupt)
        c = metrics.counter(f"test.backends.byzantine_{corruption}_items")
        count_before = c.value

        def bump(x):
            c.inc()
            return x + 10

        items = list(range(4))
        assert parallel_map(bump, items, backend=f"socket:127.0.0.1:{port}") == [
            x + 10 for x in items
        ]
        assert c.value == count_before + len(items)


class TestWorkerCLI:
    @pytest.mark.parametrize("listen", ["nonsense", ":9001", "127.0.0.1:"])
    def test_bad_listen_exits_2(self, listen):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.perf.worker", "--listen", listen],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert "HOST:PORT" in proc.stderr


# -- the acceptance bar: runner reports identical across backends --------------

def _scrub_cross_backend(payload):
    # Beyond timing: the backend/cache description itself and the counters
    # (per-chunk-process cache warmth changes hit/miss tallies, and
    # transport counters differ across backends by construction).
    return scrub_report(
        payload,
        summary=("cache", "backend", "resilience", "config"),
        record=("counters",),
    )


class TestRunnerAcceptance:
    def _run(self, runner, tmp_path, label, backend_spec):
        out = tmp_path / f"report-{label}.json"
        code = runner.main(
            ["E12", "E15", "--backend", backend_spec, "--metrics-out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["backend"]["spec"] == backend_spec
        return _scrub_cross_backend(payload)

    def test_reports_identical_across_backends(
        self, tmp_path, monkeypatch, spawn_worker
    ):
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        from repro.experiments import runner

        _, p1 = spawn_worker()
        _, p2 = spawn_worker()
        socket_spec = f"socket:127.0.0.1:{p1},127.0.0.1:{p2}"
        reports = {
            label: self._run(runner, tmp_path, label, spec)
            for label, spec in (
                ("serial", "serial"),
                ("pool", "pool:2"),
                ("socket", socket_spec),
            )
        }
        assert reports["serial"] == reports["pool"] == reports["socket"]

    def test_report_identical_with_worker_killed_mid_sweep(
        self, tmp_path, monkeypatch, spawn_worker
    ):
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        from repro.experiments import runner

        serial = self._run(runner, tmp_path, "serial-ref", "serial")
        _, p1 = spawn_worker()
        victim, p2 = spawn_worker()
        killer = threading.Timer(
            0.3, lambda: (victim.send_signal(signal.SIGKILL), victim.wait())
        )
        killer.start()
        try:
            survived = self._run(
                runner, tmp_path, "socket-kill", f"socket:127.0.0.1:{p1},127.0.0.1:{p2}"
            )
        finally:
            killer.cancel()
        assert survived == serial
