"""Distributed tracing: cross-process span collection, alignment, merging.

The span tracer (:mod:`repro.obs.trace`) is process-local, but sweeps fan
chunks out to TCP workers (:mod:`repro.perf.backends`)
— exactly the part of an execution a trace of a distributed run most needs
to show.  This module is the glue that turns many per-process span buffers
into **one** Chrome/Perfetto trace on the caller's monotonic timebase:

* :func:`chunk_payload` — what an executor ships back next to its results:
  its buffered events plus the two clock samples alignment needs (its
  tracer epoch and its clock at payload-build time);
* :func:`absorb_chunk_trace` — caller side: clock-align a payload's events
  into the local tracer and splice them in as a named process lane;
* :func:`merge_trace_files` / :func:`summarize_events` /
  :func:`check_trace` — offline tooling over saved trace files, exposed as
  ``python -m repro.obs trace`` and feeding the run report's
  ``summary.trace`` block.

Clock alignment
---------------
Events carry microsecond timestamps relative to the recording tracer's
``perf_counter_ns`` epoch.  Every executor is a worker (a ``pool:N``
fork or a ``socket:`` host), which may run on another host with an
unrelated monotonic clock, so every lane is aligned the same way.  The
executor stamps its clock (``now_ns``) when it builds the payload; the
caller stamps its own clock (``recv_ns``) the moment the reply frame
arrives.  The offset estimate ``recv_ns - now_ns`` maps the worker clock
onto the caller clock with an error of one reply-transport latency —
worker spans can appear *late* by that much, never early relative to
their dispatch.  Reply frames are received by a dedicated per-chunk
thread, so the stamp is prompt.

The merged trace has one process lane per executor (real pid, labelled via
``process_name`` metadata) plus the caller's own lane; dispatch, retry,
fallback and worker-death markers are instant events on the caller lane
(emitted by ``parallel_map`` and the socket backend).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import log as _log
from repro.obs import trace as _trace

__all__ = [
    "chunk_payload",
    "absorb_chunk_trace",
    "merge_trace_files",
    "union_segments",
    "summarize_events",
    "check_trace",
    "load_trace",
    "main",
]


# -- executor side: building the payload ----------------------------------------


def chunk_payload(lane: str, tracer: Optional[_trace.Tracer] = None) -> Optional[Dict[str, Any]]:
    """The trace payload an executor ships back beside its results.

    ``None`` when tracing is off (the disabled path adds nothing to the
    wire).  ``lane`` is the human label of this executor's process lane
    (e.g. ``"worker 10.0.0.2:9001"``); the transport adds its receive
    stamp ``recv_ns`` on receipt.
    """
    tracer = tracer if tracer is not None else _trace.TRACER
    if not tracer.enabled:
        return None
    payload = {
        "pid": os.getpid(),
        "lane": lane,
        "epoch_ns": tracer.epoch_ns,
        "now_ns": time.perf_counter_ns(),
        "events": tracer.events(),
    }
    job = _log.correlation()
    if job is not None:  # untagged runs keep the exact pre-correlation shape
        payload["job"] = job
    return payload


# -- caller side: clock alignment and lane splicing ------------------------------


def _lane_metadata(pid: int, name: str, job: Optional[str] = None) -> Dict[str, Any]:
    args: Dict[str, Any] = {"name": name}
    if job is not None:
        args["job"] = job
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "ts": 0,
        "args": args,
    }


def absorb_chunk_trace(
    payload: Optional[Dict[str, Any]], tracer: Optional[_trace.Tracer] = None
) -> int:
    """Clock-align a :func:`chunk_payload` into ``tracer``; return the event count.

    Shifts every event timestamp into the caller tracer's timebase by the
    ``recv_ns - now_ns`` offset (see the module docstring), keeps the
    executor's real pid as the lane, and emits a ``process_name`` metadata
    event the first time a lane appears.  A no-op when the payload is
    ``None`` or the local tracer is disabled.
    """
    tracer = tracer if tracer is not None else _trace.TRACER
    if payload is None or not tracer.enabled:
        return 0
    events = payload.get("events") or []
    if not events:
        return 0
    delta_ns = payload["recv_ns"] - payload["now_ns"]
    # worker-relative µs -> absolute worker ns -> caller ns -> caller-relative µs
    shift_us = (payload["epoch_ns"] + delta_ns - tracer.epoch_ns) / 1000.0
    pid = payload["pid"]
    # The executor stamps its own correlation id; lanes absorbed by an
    # untagged caller (direct library use) inherit it so the merged trace
    # still answers "which job ran this chunk?".
    job = payload.get("job") or _log.correlation()
    aligned: List[Dict[str, Any]] = []
    if pid not in tracer.named_lanes:
        tracer.named_lanes.add(pid)
        aligned.append(
            _lane_metadata(pid, f"{payload.get('lane', 'worker')} (pid {pid})", job)
        )
        if os.getpid() not in tracer.named_lanes:
            tracer.named_lanes.add(os.getpid())
            aligned.append(_lane_metadata(os.getpid(), f"caller (pid {os.getpid()})", job))
    for event in events:
        moved = dict(event)
        moved["pid"] = pid
        moved["ts"] = event.get("ts", 0.0) + shift_us
        aligned.append(moved)
    tracer.append_events(aligned)
    return len(events)


# -- offline tooling: load / merge / summarize / check ---------------------------


def load_trace(path: str) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list of a saved Chrome-trace JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, list):  # bare event-array form is also valid Chrome trace
        return payload
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError(f"{path} is not a Chrome trace (no traceEvents list)")
    return events


def merge_trace_files(paths: Sequence[str]) -> Dict[str, Any]:
    """Merge saved trace files into one Chrome trace with disjoint lanes.

    Each file's pids are kept when globally unused and remapped to fresh
    synthetic ids on collision (pids are recycled by the OS, so two
    experiment children from different files can share one); lane names are
    prefixed with the file stem so merged lanes stay attributable.
    """
    merged: List[Dict[str, Any]] = []
    taken: Dict[Tuple[str, int], int] = {}
    used: set = set()
    next_synthetic = 1 << 22  # far above real pid ranges

    for path in paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem.endswith(".trace"):
            stem = stem[: -len(".trace")]
        events = load_trace(path)
        for event in events:
            pid = event.get("pid", 0)
            key = (path, pid)
            if key not in taken:
                if pid in used:
                    taken[key] = next_synthetic
                    next_synthetic += 1
                else:
                    taken[key] = pid
                    used.add(pid)
            moved = dict(event)
            moved["pid"] = taken[key]
            if moved.get("ph") == "M" and moved.get("name") == "process_name":
                args = dict(moved.get("args") or {})
                args["name"] = f"{stem}: {args.get('name', 'process')}"
                moved["args"] = args
            merged.append(moved)
    return {"traceEvents": merged, "displayTimeUnit": "ms"}


def union_segments(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """The union of ``(start, end)`` intervals as sorted disjoint segments.

    The primitive under both busy-time accounting here and idle-gap
    analysis in :mod:`repro.obs.analyze`: a lane's busy time is the total
    length of these segments, its idle gaps are the spaces between them.
    """
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _interval_union_us(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` microsecond intervals."""
    return sum(end - start for start, end in union_segments(intervals))


def summarize_events(
    events: Iterable[Dict[str, Any]], *, top_n: int = 5
) -> Dict[str, Any]:
    """Per-process span statistics over a (merged) event list.

    Returns the shape of the run report's ``summary.trace`` block: total
    event count, one entry per process lane (span count, busy wall time as
    the union of its span intervals, idle = wall - busy), and the global
    top-N slowest spans.
    """
    names: Dict[int, str] = {}
    spans: Dict[int, List[Dict[str, Any]]] = {}
    instants: Dict[int, int] = {}
    total = 0
    for event in events:
        total += 1
        pid = event.get("pid", 0)
        phase = event.get("ph")
        if phase == "M":
            if event.get("name") == "process_name":
                names[pid] = (event.get("args") or {}).get("name", "")
            continue
        if phase == "X":
            spans.setdefault(pid, []).append(event)
        elif phase == "i":
            instants[pid] = instants.get(pid, 0) + 1

    processes: List[Dict[str, Any]] = []
    slowest: List[Dict[str, Any]] = []
    for pid in sorted(set(spans) | set(instants) | set(names)):
        lane_spans = spans.get(pid, [])
        intervals = [
            (float(e.get("ts", 0.0)), float(e.get("ts", 0.0)) + float(e.get("dur", 0.0)))
            for e in lane_spans
        ]
        busy = _interval_union_us(list(intervals))
        wall = (max(end for _s, end in intervals) - min(s for s, _e in intervals)) if intervals else 0.0
        processes.append(
            {
                "pid": pid,
                "name": names.get(pid),
                "spans": len(lane_spans),
                "instants": instants.get(pid, 0),
                "busy_us": busy,
                "idle_us": max(0.0, wall - busy),
                "wall_us": wall,
            }
        )
        slowest.extend(lane_spans)
    slowest.sort(key=lambda e: float(e.get("dur", 0.0)), reverse=True)
    return {
        "events": total,
        "processes": processes,
        "slowest_spans": [
            {
                "name": str(event.get("name", "?")),
                "pid": event.get("pid", 0),
                "dur_us": float(event.get("dur", 0.0)),
            }
            for event in slowest[:top_n]
        ],
    }


def check_trace(events: Iterable[Dict[str, Any]], *, min_lanes: int = 1) -> List[str]:
    """Structural sanity problems of a trace (empty list = clean).

    Checks: at least ``min_lanes`` process lanes carry spans, every lane is
    non-empty, timestamps and durations are non-negative, and per
    ``(pid, tid)`` lane the span *end* times are monotonic in record order
    (spans are recorded at close, so ends can only move forward — a
    violation means clock alignment went backwards).
    """
    problems: List[str] = []
    lanes_with_spans: set = set()
    last_end: Dict[Tuple[int, Any], float] = {}
    for index, event in enumerate(events):
        phase = event.get("ph")
        if phase == "M":
            continue
        ts = float(event.get("ts", 0.0))
        dur = float(event.get("dur", 0.0))
        pid = event.get("pid", 0)
        if ts < 0:
            problems.append(f"event {index} ({event.get('name')!r}): negative ts {ts}")
        if dur < 0:
            problems.append(f"event {index} ({event.get('name')!r}): negative dur {dur}")
        if phase == "X":
            lanes_with_spans.add(pid)
            key = (pid, event.get("tid"))
            end = ts + dur
            if end + 1e-6 < last_end.get(key, float("-inf")):
                problems.append(
                    f"event {index} ({event.get('name')!r}): span end {end} goes "
                    f"backwards on lane pid={pid} (previous end {last_end[key]})"
                )
            last_end[key] = max(last_end.get(key, float("-inf")), end)
    if len(lanes_with_spans) < min_lanes:
        problems.append(
            f"only {len(lanes_with_spans)} process lane(s) carry spans, "
            f"expected at least {min_lanes}"
        )
    return problems


def format_summary(summary: Dict[str, Any]) -> str:
    """A human rendering of :func:`summarize_events` output."""
    lines = [f"{summary['events']} events, {len(summary['processes'])} process lane(s)"]
    for proc in summary["processes"]:
        name = proc.get("name") or f"pid {proc['pid']}"
        lines.append(
            f"  {name}: {proc['spans']} spans, {proc.get('instants', 0)} instants, "
            f"busy {proc['busy_us'] / 1000.0:.1f}ms / "
            f"idle {proc['idle_us'] / 1000.0:.1f}ms "
            f"(wall {proc['wall_us'] / 1000.0:.1f}ms)"
        )
    if summary["slowest_spans"]:
        lines.append("  slowest spans:")
        for span in summary["slowest_spans"]:
            lines.append(
                f"    {span['name']} ({span['dur_us'] / 1000.0:.1f}ms, pid {span['pid']})"
            )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.obs trace FILE... [--out X] [--summary] [--check]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs trace",
        description="Merge, summarize and sanity-check saved Chrome-trace files.",
    )
    parser.add_argument("traces", nargs="+", help="trace JSON files (--trace-dir output)")
    parser.add_argument("--out", default=None, help="write the merged trace here")
    parser.add_argument("--summary", action="store_true", help="print per-lane statistics")
    parser.add_argument(
        "--check", action="store_true", help="fail on structural problems (exit 1)"
    )
    parser.add_argument(
        "--min-lanes",
        type=int,
        default=1,
        metavar="N",
        help="with --check: require at least N process lanes carrying spans",
    )
    args = parser.parse_args(argv)

    try:
        merged = merge_trace_files(args.traces)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"cannot load traces: {exc}")
        return 1
    events = merged["traceEvents"]

    if args.out:
        parent = os.path.dirname(args.out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, default=repr)
        print(f"merged trace ({len(events)} events) written to {args.out}")

    if args.summary or not (args.out or args.check):
        print(format_summary(summarize_events(events)))

    if args.check:
        problems = check_trace(events, min_lanes=args.min_lanes)
        if problems:
            for problem in problems:
                print(f"TRACE PROBLEM: {problem}")
            return 1
        print(f"trace OK: {len(events)} events, lanes >= {args.min_lanes}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
