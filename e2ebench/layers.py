"""Per-layer spans, recorded from outside the program.

The benchmark never edits ``src/``.  It measures each layer by wrapping
the layer's public functions (and the methods the hot paths call) with a
timing wrapper, then derives per-layer numbers from the recorded spans
and from the counters the program already exports in its run-report
records.

Spans are kept in memory as aggregates keyed by ``(unit, name, parent,
on_main)`` -> ``[calls, total_ns, self_ns]``.  A span's self time is its
duration minus the time its child spans cover.  Aggregating instead of
keeping every span bounds memory: the unfold kernel makes hundreds of
thousands of calls per suite run.

Experiment children are forked, so they inherit the wrappers.  Each child
starts from an empty table and writes its aggregates to
``<spool>/<pid>-<ns>.json`` before it exits; :meth:`Recorder.rows` merges
them with the caller's own table.  Pool workers are fresh interpreters
and carry no wrappers: their side is read from the counters they ship
back in the records.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Wrapped callables: (layer, import path of the owner, attribute).  Owners
#: are modules or classes; module-level functions are also rebound in every
#: ``repro`` module that imported them by name.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("semantics.measure.unfold", "repro.semantics.measure", "execution_measure"),
    ("semantics.scheduler.decide", "repro.semantics.scheduler:Scheduler", "decide_checked"),
    (
        "semantics.scheduler.compute",
        "repro.semantics.scheduler:Scheduler",
        "_decide_checked_uncached",
    ),
    ("core.executions.extend", "repro.core.executions:Fragment", "extend"),
    ("core.psioa.transition", "repro.core.psioa:PSIOA", "transition"),
    ("perf.cache.lookup", "repro.perf.cache", "cached_transition"),
    ("perf.cache.lookup", "repro.perf.cache", "cached_decision"),
    ("perf.cache.lookup", "repro.perf.cache", "cached_derived"),
    ("perf.cache.lookup", "repro.perf.cache", "measure_cache_get"),
    ("perf.cache.lookup", "repro.perf.cache", "measure_cache_put"),
    ("perf.cache.lookup", "repro.perf.cache", "intern_fragment"),
    ("perf.cache.lookup", "repro.perf.cache", "intern_measure"),
    ("perf.fingerprint", "repro.perf.fingerprint", "fingerprint"),
    ("perf.store.get", "repro.perf.store:PersistentStore", "get"),
    ("perf.store.put", "repro.perf.store:PersistentStore", "put"),
    ("perf.parallel.map", "repro.perf.parallel", "parallel_map"),
    ("perf.pickling.dumps", "repro.perf.pickling", "dumps"),
    ("perf.backends.submit_chunks", "repro.perf.backends.sockets:SocketBackend", "submit_chunks"),
    ("perf.supervise.worker_start", "repro.perf.supervise:WorkerProcess", "start"),
    ("experiments.common.attempt", "repro.experiments.common", "_attempt_isolated"),
    ("experiments.common.run_experiment", "repro.experiments.common", "run_experiment"),
    ("api.suite", "repro.api.suite", "run_suite"),
)

#: Spans whose self time is not a layer's: the attempt wraps a whole
#: experiment child, the experiment body is the experiment's own code, and
#: on a serial backend ``parallel_map`` runs the sweep body inline (its
#: dispatch cost is in the submit and pickling layers).
_NOT_LAYERS = (
    "experiments.common.attempt",
    "experiments.common.run_experiment",
    "perf.parallel.map",
)


def _resolve(path: str) -> Any:
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class _TimedPickle:
    """Stand-in for the ``pickle`` module inside the socket transport, whose
    frame decoder calls ``pickle.loads`` directly."""

    def __init__(self, loads: Callable[..., Any]) -> None:
        self.loads = loads

    def __getattr__(self, name: str) -> Any:
        return getattr(pickle, name)


class Recorder:
    """Span aggregates for one benchmark process and its forked children."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.unit: Optional[str] = None
        self._local = threading.local()
        self._tables: List[Dict[Tuple[Any, ...], List[int]]] = []
        self._values: List[Dict[Tuple[str, str], float]] = []
        self._registry_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, Any]] = []

    # -- recording -------------------------------------------------------------

    def _thread_state(self) -> Tuple[list, dict, dict]:
        """``(span stack, span table, value table)`` of the calling thread."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], {}, {})
            # Chunk threads of the socket transport record too; each thread
            # owns its tables, so the hot path takes no lock.
            with self._registry_lock:
                self._tables.append(state[1])
                self._values.append(state[2])
            return state

    def add(self, name: str, amount: float) -> None:
        """Accumulate a non-time quantity (e.g. bytes) for the current unit."""
        values = self._thread_state()[2]
        key = (self.unit, name)
        values[key] = values.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable[..., Any], measure_bytes: bool = False):
        """``fn`` timed as one span of layer ``name``.

        The body is inlined rather than split into enter/exit helpers: it
        runs hundreds of thousands of times per unit, and its cost is
        what ``trace.overhead_ratio`` reports."""
        recorder = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack, table, _values = recorder._local.state
            except AttributeError:
                stack, table, _values = recorder._thread_state()
            if stack:
                on_main = stack[-1][2]
            else:
                on_main = threading.current_thread() is threading.main_thread()
            frame = [name, 0, on_main]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    caller = stack[-1]
                    caller[1] += elapsed
                    parent = caller[0]
                else:
                    parent = None
                key = (recorder.unit, name, parent, on_main)
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = [0, 0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if measure_bytes:
                recorder.add(name + ".bytes", len(result))
            return result

        return wrapper

    # -- forked children -------------------------------------------------------

    def reset(self) -> None:
        """Forget everything inherited through a fork."""
        self._local = threading.local()
        self._tables = []
        self._values = []
        self._registry_lock = threading.Lock()

    def flush(self) -> None:
        path = os.path.join(self.spool_dir, f"{os.getpid()}-{time.monotonic_ns()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self._own_rows(), handle)

    def _guarded_child(self, original: Callable[..., Any]):
        recorder = self

        @functools.wraps(original)
        def child(*args, **kwargs):
            recorder.reset()
            try:
                return original(*args, **kwargs)
            finally:
                recorder.flush()

        return child

    # -- installing ------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, replacement))

    def install(self) -> None:
        """Wrap every target; rebind module-level names wherever imported."""
        rebind: Dict[int, Any] = {}
        for layer, owner_path, attr in TARGETS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            wrapper = self.wrap(layer, original, measure_bytes=layer == "perf.pickling.dumps")
            self._patch(owner, attr, wrapper)
            if not isinstance(owner, type):
                rebind[id(original)] = (original, wrapper)
        common = _resolve("repro.experiments.common")
        self._patch(common, "_guarded_child", self._guarded_child(common._guarded_child))
        sockets = _resolve("repro.perf.backends.sockets")
        self._patch(
            sockets, "pickle", _TimedPickle(self.wrap("perf.pickling.loads", pickle.loads))
        )
        self._rebind_imported(rebind)

    def uninstall(self) -> None:
        rebind = {}
        for owner, attr, original, replacement in reversed(self._patches):
            setattr(owner, attr, original)
            rebind[id(replacement)] = (replacement, original)
        self._patches = []
        self._rebind_imported(rebind)

    def _rebind_imported(self, rebind: Dict[int, Tuple[Any, Any]]) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = rebind.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]

    # -- reading ---------------------------------------------------------------

    def _own_rows(self) -> List[Dict[str, Any]]:
        rows: List[Dict[str, Any]] = []
        pid = os.getpid()
        for table in list(self._tables):
            for (unit, name, parent, on_main), (calls, total, own) in list(table.items()):
                rows.append(
                    {
                        "pid": pid,
                        "unit": unit,
                        "name": name,
                        "parent": parent,
                        "main": on_main,
                        "calls": calls,
                        "total_s": total / 1e9,
                        "self_s": own / 1e9,
                    }
                )
        for values in list(self._values):
            for (unit, name), amount in list(values.items()):
                rows.append({"pid": pid, "unit": unit, "name": name, "value": amount})
        return rows

    def rows(self) -> List[Dict[str, Any]]:
        """This process's rows plus every flushed child's."""
        rows = self._own_rows()
        for entry in sorted(os.listdir(self.spool_dir)):
            if entry.endswith(".json"):
                with open(os.path.join(self.spool_dir, entry), encoding="utf-8") as handle:
                    rows.extend(json.load(handle))
        return rows


# -- per-layer metrics ------------------------------------------------------------

_CACHE_STORES = ("transition", "decision", "measure", "derived")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median0(values: Iterable[float]) -> float:
    """The median, or 0 when there is nothing to take it of."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(
    rows: List[Dict[str, Any]],
    counters: Dict[str, int],
    *,
    traced_walls: List[float],
    untraced_walls: List[float],
    cache_off_walls: List[float],
    store_bytes: int = 0,
    service: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-traced-unit layer numbers plus the reconciliation.

    ``rows`` are the span rows of the traced units only, ``counters`` the
    summed record counters of the same units.  Calls and times are per
    traced unit; ratios carry their base as a separate count.
    """
    units = len(traced_walls)
    per_unit = 1.0 / units
    calls: Dict[str, float] = {}
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    own_main: Dict[str, float] = {}
    values: Dict[str, float] = {}
    for row in rows:
        name = row["name"]
        if "value" in row:
            values[name] = values.get(name, 0) + row["value"]
            continue
        calls[name] = calls.get(name, 0) + row["calls"]
        total[name] = total.get(name, 0.0) + row["total_s"]
        own[name] = own.get(name, 0.0) + row["self_s"]
        if row["main"]:
            own_main[name] = own_main.get(name, 0.0) + row["self_s"]

    def c(name: str) -> int:
        return int(counters.get(name, 0))

    m: Dict[str, float] = {}
    for layer in (
        "semantics.measure.unfold",
        "semantics.scheduler.decide",
        "semantics.scheduler.compute",
        "core.executions.extend",
        "core.psioa.transition",
        "perf.cache.lookup",
        "perf.fingerprint",
        "perf.store.get",
        "perf.store.put",
        "perf.supervise.worker_start",
    ):
        m[f"{layer}.calls"] = calls.get(layer, 0) * per_unit
        m[f"{layer}.self_s"] = own.get(layer, 0.0) * per_unit
    m["semantics.measure.fragments_per_s"] = _ratio(
        c("measure.unfold.fragments"), total.get("semantics.measure.unfold", 0.0)
    )
    for store in _CACHE_STORES:
        hits = c(f"perf.cache.{store}.hits")
        lookups = hits + c(f"perf.cache.{store}.misses")
        m[f"perf.cache.{store}.hit_ratio"] = _ratio(hits, lookups)
        m[f"perf.cache.{store}.lookups"] = lookups * per_unit
    m["perf.cache.evictions"] = (
        sum(c(f"perf.cache.{store}.evictions") for store in _CACHE_STORES) * per_unit
    )
    m["perf.cache.on_off_ratio"] = _ratio(median0(untraced_walls), median0(cache_off_walls))
    m["perf.fingerprint.us_per_call"] = 1e6 * _ratio(
        own.get("perf.fingerprint", 0.0), calls.get("perf.fingerprint", 0)
    )
    store_hits = c("perf.cache.persistent.hits")
    store_lookups = store_hits + c("perf.cache.persistent.misses")
    m["perf.store.hit_ratio"] = _ratio(store_hits, store_lookups)
    m["perf.store.lookups"] = store_lookups * per_unit
    m["perf.store.bytes"] = float(store_bytes)
    m["perf.parallel.map.calls"] = calls.get("perf.parallel.map", 0) * per_unit
    m["perf.parallel.map.s"] = total.get("perf.parallel.map", 0.0) * per_unit
    sweep_hits = c("perf.cache.sweep.hits")
    sweep_lookups = sweep_hits + c("perf.cache.sweep.misses")
    m["perf.parallel.sweep_memo.hit_ratio"] = _ratio(sweep_hits, sweep_lookups)
    m["perf.parallel.sweep_memo.lookups"] = sweep_lookups * per_unit
    m["perf.pickling.dumps.self_s"] = own.get("perf.pickling.dumps", 0.0) * per_unit
    m["perf.pickling.loads.self_s"] = own.get("perf.pickling.loads", 0.0) * per_unit
    m["perf.pickling.dumps.bytes"] = values.get("perf.pickling.dumps.bytes", 0) * per_unit
    m["perf.backends.submit_chunks.calls"] = calls.get("perf.backends.submit_chunks", 0) * per_unit
    m["perf.backends.submit_chunks.s"] = total.get("perf.backends.submit_chunks", 0.0) * per_unit
    m["perf.parallel.chunks"] = c("perf.parallel.socket.chunks") * per_unit
    m["perf.supervise.retries"] = c("perf.parallel.socket.retries") * per_unit

    isolation = total.get("experiments.common.attempt", 0.0) - total.get(
        "experiments.common.run_experiment", 0.0
    )
    m["experiments.common.isolation_s"] = isolation * per_unit
    m["api.suite.overhead_s"] = own.get("api.suite", 0.0) * per_unit

    service = service or {}
    for name in ("service.http.rtt_ms", "service.jobs.queue_wait_s", "service.jobs.overhead_s"):
        m[name] = float(service.get(name, 0.0))

    # Reconciliation against the timed unit walls.  Layers account for
    # their self time on the blocking (main) thread; the isolation boundary
    # for the attempt wall its child did not spend in the experiment body.
    # The remainder is experiment code outside every wrapped layer.
    wall = sum(traced_walls)
    explained = isolation + sum(
        seconds for name, seconds in own_main.items() if name not in _NOT_LAYERS
    )
    m["trace.unit_wall_s"] = wall * per_unit
    m["trace.unexplained_s"] = (wall - explained) * per_unit
    m["trace.overhead_ratio"] = _ratio(median0(traced_walls), median0(untraced_walls))
    m["trace.units"] = float(units)
    return m


def negative_self_times(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rows whose self time is negative (a broken clock or stack)."""
    return [row for row in rows if "self_s" in row and row["self_s"] < 0]
