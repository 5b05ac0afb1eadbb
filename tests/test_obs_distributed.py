"""Distributed tracing (:mod:`repro.obs.distributed`).

Covers the clock-alignment arithmetic (the receive-stamp offset), lane
splicing and process-name metadata, offline merge/summarize/check tooling
and its CLI, the pool and socket transports end to end (worker spans land
clock-aligned in the caller's trace; a killed worker leaves retry/death
instants), the ``REPRO_TRACE`` environment gate, the
runner acceptance bar (a traced E15 sweep on a two-worker ``socket:`` pool
yields one merged Chrome trace with >= 3 process lanes and a validated
``summary.trace`` block), and the disabled-path contracts (tracing off
leaves no artifacts in payloads or reports).
"""

import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import distributed, trace
from repro.obs.distributed import (
    absorb_chunk_trace,
    check_trace,
    chunk_payload,
    merge_trace_files,
    summarize_events,
)
from repro.obs.report import validate_report
from repro.perf.backends import make_backend
from repro.perf.parallel import parallel_map

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def spawn_worker():
    procs = []

    def spawn():
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.perf.worker", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=_subprocess_env(),
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


def _span_event(name, ts, dur, pid=1234, tid=1):
    return {"name": name, "ph": "X", "cat": "repro", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid, "args": {}}


# -- payloads and clock alignment ------------------------------------------------


class TestChunkPayload:
    def test_disabled_tracer_yields_none(self):
        tracer = trace.Tracer()
        assert chunk_payload("lane", tracer) is None

    def test_payload_carries_clock_samples_and_events(self):
        tracer = trace.Tracer()
        tracer.enable()
        with tracer.span("work"):
            pass
        payload = chunk_payload("my-lane", tracer)
        assert payload["lane"] == "my-lane"
        assert payload["pid"] == os.getpid()
        assert payload["epoch_ns"] == tracer.epoch_ns
        assert payload["now_ns"] >= tracer.epoch_ns
        assert [e["name"] for e in payload["events"]] == ["work"]


class TestClockAlignment:
    def test_remote_clock_offsets_by_receive_stamp(self):
        caller = trace.Tracer()
        caller.enable()
        # A remote worker with an unrelated clock: its epoch means nothing
        # to the caller; recv_ns - now_ns maps worker-time onto caller-time.
        worker_epoch = 123_456_789  # arbitrary foreign timebase
        payload = {
            "pid": 4242, "lane": "worker h:1",
            "epoch_ns": worker_epoch,
            "now_ns": worker_epoch + 50_000,   # payload built 50us after epoch
            "recv_ns": caller.epoch_ns + 80_000,  # ...received at caller+80us
            "events": [_span_event("w", ts=10.0, dur=4.0, pid=4242)],
        }
        assert absorb_chunk_trace(payload, caller) == 1
        (span,) = [e for e in caller.events() if e["ph"] == "X"]
        # worker ts=10us is 40us before payload build; build maps to
        # caller+80us, so the event lands at caller-time 80-40 = 40us.
        assert span["ts"] == pytest.approx(40.0)
        assert span["dur"] == pytest.approx(4.0)  # durations never shift
        assert span["pid"] == 4242  # the worker keeps its own lane

    def test_lane_metadata_emitted_once_per_pid(self):
        caller = trace.Tracer()
        caller.enable()
        payload = {
            "pid": 7, "lane": "worker h:7",
            "epoch_ns": caller.epoch_ns, "now_ns": caller.epoch_ns,
            "recv_ns": caller.epoch_ns,
            "events": [_span_event("a", 0.0, 1.0, pid=7)],
        }
        absorb_chunk_trace(payload, caller)
        absorb_chunk_trace(dict(payload), caller)
        metadata = [e for e in caller.events() if e["ph"] == "M"]
        named = {e["pid"]: e["args"]["name"] for e in metadata}
        assert named[7] == "worker h:7 (pid 7)"
        assert os.getpid() in named  # the caller lane is named too
        assert len([e for e in metadata if e["pid"] == 7]) == 1

    def test_absorb_is_noop_when_disabled_or_empty(self):
        caller = trace.Tracer()
        assert absorb_chunk_trace(None, caller) == 0
        caller.enable()
        assert absorb_chunk_trace(None, caller) == 0
        assert absorb_chunk_trace(
            {"pid": 1, "epoch_ns": 0, "now_ns": 0, "events": []}, caller
        ) == 0
        assert caller.events() == []


# -- offline tooling -------------------------------------------------------------


class TestMergeAndCheck:
    def test_merge_remaps_colliding_pids(self, tmp_path):
        for stem in ("one", "two"):
            events = [
                {"name": "process_name", "ph": "M", "pid": 5, "tid": 0, "ts": 0,
                 "args": {"name": "caller (pid 5)"}},
                _span_event("s", 1.0, 2.0, pid=5),
            ]
            (tmp_path / f"{stem}.trace.json").write_text(
                json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
            )
        merged = merge_trace_files(
            [str(tmp_path / "one.trace.json"), str(tmp_path / "two.trace.json")]
        )
        spans = [e for e in merged["traceEvents"] if e["ph"] == "X"]
        assert len({e["pid"] for e in spans}) == 2  # collision remapped
        names = sorted(
            e["args"]["name"] for e in merged["traceEvents"] if e["ph"] == "M"
        )
        assert names == ["one: caller (pid 5)", "two: caller (pid 5)"]

    def test_summarize_busy_idle_and_slowest(self):
        events = [
            _span_event("a", 0.0, 10.0, pid=1),
            _span_event("b", 20.0, 5.0, pid=1),   # 10us gap -> idle
            _span_event("c", 0.0, 30.0, pid=2),
            {"name": "mark", "ph": "i", "s": "t", "ts": 1.0, "pid": 1, "tid": 1,
             "args": {}},
        ]
        summary = summarize_events(events, top_n=2)
        assert summary["events"] == 4
        lanes = {p["pid"]: p for p in summary["processes"]}
        assert lanes[1]["spans"] == 2 and lanes[1]["instants"] == 1
        assert lanes[1]["busy_us"] == pytest.approx(15.0)
        assert lanes[1]["idle_us"] == pytest.approx(10.0)
        assert lanes[1]["wall_us"] == pytest.approx(25.0)
        assert [s["name"] for s in summary["slowest_spans"]] == ["c", "a"]

    def test_check_trace_flags_problems(self):
        clean = [_span_event("a", 0.0, 5.0), _span_event("b", 6.0, 1.0)]
        assert check_trace(clean) == []
        assert check_trace(clean, min_lanes=2)  # only one lane carries spans
        assert check_trace([_span_event("a", -1.0, 5.0)])  # negative ts
        assert check_trace([_span_event("a", 0.0, -5.0)])  # negative dur
        # Span *ends* must be non-decreasing per (pid, tid) in record order.
        backwards = [_span_event("late", 0.0, 50.0), _span_event("early", 1.0, 2.0)]
        assert any("backwards" in p for p in check_trace(backwards))

    # A span as (pid, start, duration) — duration 0 makes zero-width spans.
    _SPAN_TRIPLES = st.tuples(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=500),
    )

    @given(st.lists(_SPAN_TRIPLES, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_summarize_busy_never_exceeds_wall(self, triples):
        # Overlapping and zero-width spans must not inflate busy time past
        # the lane's wall interval, and idle is exactly the complement.
        events = [
            _span_event(f"s{i}", float(ts), float(dur), pid=pid)
            for i, (pid, ts, dur) in enumerate(triples)
        ]
        summary = summarize_events(events)
        for lane in summary["processes"]:
            assert lane["busy_us"] <= lane["wall_us"] + 1e-6
            assert lane["idle_us"] == pytest.approx(
                lane["wall_us"] - lane["busy_us"], abs=1e-6
            )
            assert lane["busy_us"] >= 0.0 and lane["idle_us"] >= 0.0

    @given(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4,
                     unique=True),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_remap_keeps_file_lanes_disjoint(self, pid_lists):
        # However the input files' pids collide, the merged trace gives
        # every (file, pid) lane its own distinct pid.
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for index, pids in enumerate(pid_lists):
                events = []
                for pid in pids:
                    events.append(
                        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                         "ts": 0, "args": {"name": f"lane (pid {pid})"}}
                    )
                    events.append(_span_event("s", 1.0, 2.0, pid=pid))
                path = os.path.join(tmp, f"t{index}.trace.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump({"traceEvents": events}, handle)
                paths.append(path)
            merged = merge_trace_files(paths)
        spans = [e for e in merged["traceEvents"] if e["ph"] == "X"]
        expected_lanes = sum(len(set(pids)) for pids in pid_lists)
        assert len(spans) == expected_lanes
        assert len({e["pid"] for e in spans}) == expected_lanes

    def test_cli_merges_summarizes_and_checks(self, tmp_path, capsys):
        events = [_span_event("s", 0.0, 5.0, pid=1)]
        source = tmp_path / "one.trace.json"
        source.write_text(json.dumps({"traceEvents": events}))
        merged_path = tmp_path / "merged.json"
        code = distributed.main(
            [str(source), "--out", str(merged_path), "--summary", "--check"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace OK" in out and "process lane(s)" in out
        assert json.loads(merged_path.read_text())["traceEvents"]
        assert distributed.main([str(source), "--check", "--min-lanes", "3"]) == 1
        assert "TRACE PROBLEM" in capsys.readouterr().out


# -- transports end to end -------------------------------------------------------


class TestPoolTransport:
    def test_pool_sweep_collects_aligned_worker_lanes(self):
        trace.enable()
        with trace.span("caller.sweep"):
            out = parallel_map(lambda x: x * x, list(range(8)), backend="pool:2")
        assert out == [x * x for x in range(8)]
        events = trace.TRACER.events()
        assert check_trace(events, min_lanes=3) == []  # caller + 2 chunk children
        spans = [e for e in events if e["ph"] == "X"]
        worker_spans = [e for e in spans if e["pid"] != os.getpid()]
        assert {e["name"] for e in worker_spans} == {"backend.chunk", "backend.item"}
        # Clock alignment: the receive-stamp offset moves worker spans late,
        # never early, and never past the receipt, so every worker span lies
        # inside the caller's parallel.map interval.
        (pmap,) = [e for e in spans if e["name"] == "parallel.map"]
        for event in worker_spans:
            assert event["ts"] >= pmap["ts"] - 1.0
            assert event["ts"] + event["dur"] <= pmap["ts"] + pmap["dur"] + 1.0
        assert [e["name"] for e in events if e["ph"] == "i"] == ["parallel.dispatch"]

    def test_untraced_pool_sweep_ships_no_payload(self):
        backend = make_backend("pool:2")
        try:
            outcomes = backend.submit_chunks(lambda x: x, [[(0, 1)], [(1, 2)]])
        finally:
            backend.close()
        assert all(o.trace is None for o in outcomes)
        assert trace.TRACER.events() == []


class TestSocketTransport:
    def test_worker_spans_arrive_on_remote_clock(self, spawn_worker):
        _, p1 = spawn_worker()
        _, p2 = spawn_worker()
        trace.enable()
        out = parallel_map(
            lambda x: x + 1, list(range(10)),
            backend=f"socket:127.0.0.1:{p1},127.0.0.1:{p2}",
        )
        assert out == list(range(1, 11))
        events = trace.TRACER.events()
        assert check_trace(events, min_lanes=3) == []
        lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert any(f"127.0.0.1:{p1}" in lane for lane in lanes)
        assert any(f"127.0.0.1:{p2}" in lane for lane in lanes)

    def test_killed_worker_leaves_retry_and_death_instants(self, spawn_worker):
        _, p1 = spawn_worker()
        victim, p2 = spawn_worker()
        backend = make_backend(f"socket:127.0.0.1:{p1},127.0.0.1:{p2}")
        backend._ensure_connected()
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        trace.enable()
        try:
            items = list(range(8))
            assert parallel_map(lambda x: x * 3, items, backend=backend) == [
                x * 3 for x in items
            ]
        finally:
            backend.close()
        instants = [e["name"] for e in trace.TRACER.events() if e["ph"] == "i"]
        assert "backend.retry" in instants
        assert "backend.worker_dead" in instants


# -- environment gates -----------------------------------------------------------


class TestEnvGates:
    def test_repro_trace_enables_fresh_process(self):
        # Importing never reads the gate; the entry-point resolution does.
        script = (
            "from repro.obs import trace; assert not trace.is_enabled(); "
            "from repro.api import resolve_config; resolve_config().apply(); "
            "print('enabled' if trace.is_enabled() else 'disabled')"
        )
        for value, expected in (("on", "enabled"), ("", "disabled"), ("off", "disabled")):
            env = _subprocess_env()
            env["REPRO_TRACE"] = value
            out = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert out.stdout.strip() == expected, (value, out.stdout)

    def test_env_gated_socket_worker_traces_untraced_caller(self, spawn_worker, monkeypatch):
        # The caller does NOT trace; the pool was started under REPRO_TRACE.
        # The worker's chunks still record spans (shipped payloads are just
        # dropped by the untraced caller) — and nothing leaks into the
        # caller's tracer.
        monkeypatch.setenv("REPRO_TRACE", "on")
        _, port = spawn_worker()
        monkeypatch.delenv("REPRO_TRACE")
        out = parallel_map(lambda x: x, list(range(4)), backend=f"socket:127.0.0.1:{port}")
        assert out == list(range(4))
        assert trace.TRACER.events() == []


# -- disabled-path contracts (tracing off must cost ~nothing) --------------------


class TestDisabledOverhead:
    def test_disabled_sweep_adds_no_trace_artifacts(self):
        # Counter-based: the only per-chunk additions on the disabled path
        # are flag tests — no spans buffered, no payloads built, identical
        # chunk counts.
        from repro.obs.metrics import counter

        chunks = counter("perf.parallel.socket.chunks")
        before = chunks.value
        out = parallel_map(lambda x: x + 7, list(range(6)), backend="pool:2")
        assert out == [x + 7 for x in range(6)]
        assert chunks.value == before + 2  # one round-trip per chunk, nothing extra
        assert trace.TRACER.events() == []
        assert trace.TRACER.named_lanes == set()

    def test_disabled_span_still_shared_noop_through_backends(self):
        # The serial backend's per-chunk span must be the shared null span
        # when tracing is off (no allocation per chunk).
        assert trace.span("backend.chunk") is trace.span("backend.chunk")

    def test_untraced_runner_report_has_no_trace_block(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        from repro.experiments import runner

        out = tmp_path / "report.json"
        assert runner.main(["E9", "--metrics-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "trace" not in payload["summary"]
        assert payload["experiments"][0]["trace_file"] is None


# -- the acceptance bar ----------------------------------------------------------


class TestRunnerAcceptance:
    def test_traced_e15_socket_sweep_merges_three_lanes(
        self, tmp_path, monkeypatch, spawn_worker
    ):
        monkeypatch.setenv("REPRO_CACHE", "on")
        from repro.experiments import runner

        _, p1 = spawn_worker()
        _, p2 = spawn_worker()
        spec = f"socket:127.0.0.1:{p1},127.0.0.1:{p2}"
        trace_dir = tmp_path / "traces"
        report_path = tmp_path / "report.json"
        code = runner.main(
            ["E15", "--backend", spec, "--trace-dir", str(trace_dir),
             "--metrics-out", str(report_path)]
        )
        assert code == 0

        trace_file = trace_dir / "E15.trace.json"
        events = distributed.load_trace(str(trace_file))
        assert check_trace(events, min_lanes=3) == []  # caller + both workers

        # Both workers contributed named chunk lanes, clock-aligned into
        # the experiment child's timebase: every worker chunk span lies
        # within (a small tolerance of) the caller's parallel.map spans.
        lane_names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert any(f"127.0.0.1:{p1}" in n for n in lane_names), lane_names
        assert any(f"127.0.0.1:{p2}" in n for n in lane_names), lane_names
        spans = [e for e in events if e["ph"] == "X"]
        caller_pid = next(
            e["pid"] for e in spans if e["name"] == "experiment"
        )
        maps = [e for e in spans if e["name"] == "parallel.map"]
        assert maps
        sweep_start = min(e["ts"] for e in maps)
        sweep_end = max(e["ts"] + e["dur"] for e in maps)
        worker_chunks = [
            e for e in spans if e["name"] == "backend.chunk" and e["pid"] != caller_pid
        ]
        assert worker_chunks
        slack_us = 250_000.0  # remote offset error is ~one reply latency
        for chunk in worker_chunks:
            assert chunk["ts"] >= sweep_start - slack_us
            assert chunk["ts"] + chunk["dur"] <= sweep_end + slack_us

        # The report's summary.trace block validates and covers the file.
        payload = json.loads(report_path.read_text())
        validate_report(payload)
        trace_block = payload["summary"]["trace"]
        assert trace_block["files"] == [str(trace_file)]
        assert len(trace_block["processes"]) >= 3
        assert trace_block["events"] == len(events)

        # The analysis block (riding the merged trace) found a critical
        # path rooted in a real span.
        analysis = payload["summary"]["analysis"]
        steps = analysis["critical_path"]["steps"]
        assert steps and analysis["critical_path"]["wall_us"] > 0
        assert steps[0]["dur_us"] >= steps[-1]["dur_us"]

        # The CLI agrees: merged output passes the structural check.
        merged_out = tmp_path / "merged.json"
        assert distributed.main(
            [str(trace_file), "--out", str(merged_out), "--check", "--min-lanes", "3"]
        ) == 0

    def test_profiled_e15_socket_sweep_reports_phase_lanes(
        self, tmp_path, monkeypatch, spawn_worker
    ):
        # Phase timers are always on: an untraced socket sweep still
        # reports them, merged over the chunks both workers ran.
        monkeypatch.setenv("REPRO_CACHE", "on")
        from repro.experiments import runner
        from repro.obs.report import format_summary_table

        _, p1 = spawn_worker()
        _, p2 = spawn_worker()
        monkeypatch.setenv("REPRO_BACKEND", f"socket:127.0.0.1:{p1},127.0.0.1:{p2}")
        report_path = tmp_path / "report.json"
        assert runner.main(["E15", "--metrics-out", str(report_path)]) == 0

        payload = json.loads(report_path.read_text())
        validate_report(payload)
        assert "trace" not in payload["summary"]

        # Each phase's calls equal the counter it mirrors, which merges
        # across the chunk transport the same way.
        (record,) = payload["experiments"]
        phases = payload["summary"]["phases"]["E15"]
        counters = record["counters"]
        assert counters.get("perf.parallel.socket.chunks", 0) > 0
        assert phases["measure.unfold"]["calls"] == counters["measure.unfold.calls"]
        assert phases["scheduler.step"]["calls"] == counters["scheduler.steps"]
        assert phases["measure.unfold"]["s"] > 0

        # The summary table ranks them; phase data never lands in records.
        assert "  E15: " in format_summary_table(payload)
        assert "phases" not in record and "profile" not in record
