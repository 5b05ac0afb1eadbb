"""Deterministic phase profiling: where does the wall time actually go?

The span tracer (:mod:`repro.obs.trace`) shows *structure* — which
experiment, which sweep, which chunk — but attributing time to the
reproduction's **semantic phases** (unfolding, measure composition,
scheduler decisions, PCA transitions, cache lookups, pickling transport)
would need a span around every hot call, which the hot paths cannot
afford.  This module is the missing layer: a ``sys.setprofile`` /
``threading.setprofile`` deterministic profiler that watches every call
and return, but only *accounts* the ones anchored to a small **phase
registry** — everything else costs one negative-cache dictionary lookup.

Like the tracer, profiling is **off by default** and the disabled path is
free in the strictest sense: no profile hook is installed at all
(``sys.getprofile()`` stays ``None``), so hot paths run at exactly their
unprofiled speed.  The run config's ``profile`` switch (``RunConfig.apply``;
the ``REPRO_PROFILE`` gate at entry points) turns the process profiler on;
forked chunk children inherit it and socket workers receive it per chunk
in the run frame.

Phase registry
--------------
A *phase* is a semantic bucket named like a counter.  Anchors are
``(module, function)`` pairs: entering an anchored function pushes its
phase, leaving pops it.  Time inside a phase is **inclusive** (recursion
counted once — re-entering a phase already on the stack adds calls but not
inclusive time) and **exclusive** (self time net of anchored callees, so
exclusive times are disjoint and sum to at most the profiled wall time).
The built-in registry (:data:`BUILTIN_ANCHORS`) covers:

====================  =========================================================
phase                 anchors
====================  =========================================================
``measure.unfold``    ``repro.semantics.measure.execution_measure``
``measure.compose``   ``DiscreteMeasure.product`` / ``repro.probability.measures.product``
``fragment.decide``   every ``Scheduler.decide`` implementation
``scheduler.step``    ``Scheduler.decide_checked`` (the checked step wrapper)
``pca.transition``    ``preserving_transition`` / ``intrinsic_transition``
``cache.lookup``      ``repro.perf.cache`` lookups (``cached_*``, ``get``/``put``)
``transport.pickle``  ``repro.perf.pickling`` and the stdlib (C) pickler
====================  =========================================================

Register more with :func:`register_phase` (e.g. a new subsystem's hot
entry point) — the registry is data, not code.

Collapsed stacks
----------------
Per thread, the profiler also accumulates exclusive time per *phase
stack* (``measure.unfold;fragment.decide``), which exports directly to
Brendan Gregg's collapsed/folded format (:func:`save_folded`) — load the
``*.folded`` file in ``flamegraph.pl`` or https://www.speedscope.app.

Distribution
------------
Profile payloads ride the execution backends exactly like span payloads
do (:mod:`repro.obs.distributed`): a chunk executor ships
:func:`chunk_profile_payload` back beside its results and metrics, and the
caller splices it in as a per-pid lane (:func:`absorb_chunk_profile`).
Unlike spans, phase totals need no clock alignment — they are durations,
not timestamps — so merging is pure addition keyed by ``(pid, lane)``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "BUILTIN_ANCHORS",
    "Profiler",
    "PROFILER",
    "register_phase",
    "registered_phases",
    "enable",
    "disable",
    "is_enabled",
    "clear",
    "snapshot",
    "lanes",
    "chunk_profile_payload",
    "absorb_chunk_profile",
    "merge_lane_phases",
    "save_folded",
    "format_lanes",
]


#: The built-in semantic phase registry: (module, function name) -> phase.
BUILTIN_ANCHORS: Dict[Tuple[str, str], str] = {
    ("repro.semantics.measure", "execution_measure"): "measure.unfold",
    ("repro.probability.measures", "product"): "measure.compose",
    ("repro.semantics.scheduler", "decide"): "fragment.decide",
    ("repro.semantics.scheduler", "decide_checked"): "scheduler.step",
    ("repro.config.transitions", "preserving_transition"): "pca.transition",
    ("repro.config.transitions", "intrinsic_transition"): "pca.transition",
    ("repro.perf.cache", "cached_transition"): "cache.lookup",
    ("repro.perf.cache", "cached_decision"): "cache.lookup",
    ("repro.perf.cache", "cached_unfolding"): "cache.lookup",
    ("repro.perf.cache", "get"): "cache.lookup",
    ("repro.perf.cache", "put"): "cache.lookup",
    ("repro.perf.pickling", "dumps"): "transport.pickle",
    ("repro.perf.pickling", "loads"): "transport.pickle",
    # The stdlib pickler's C entry points (seen as c_call events).
    ("_pickle", "dumps"): "transport.pickle",
    ("_pickle", "loads"): "transport.pickle",
    ("pickle", "dumps"): "transport.pickle",
    ("pickle", "loads"): "transport.pickle",
}

#: ``decide`` is an anchor by *name across scheduler modules*: subclasses
#: of ``Scheduler`` live in several modules (faults, tests, experiments)
#: and all of their ``decide`` implementations belong to the same phase.
_NAME_ANCHORS: Dict[str, Tuple[str, str]] = {
    # function name -> (module prefix, phase)
    "decide": ("repro.", "fragment.decide"),
    "decide_checked": ("repro.", "scheduler.step"),
}


class _ThreadState:
    """Per-thread accounting: the anchor stack and the phase totals."""

    __slots__ = ("stack", "phases", "stacks", "active")

    def __init__(self) -> None:
        #: [phase, anchor key (code object / builtin), start_ns, child_ns]
        self.stack: List[list] = []
        #: phase -> [calls, inclusive_ns, exclusive_ns]
        self.phases: Dict[str, List[Any]] = {}
        #: tuple of phases (outermost first) -> exclusive_ns
        self.stacks: Dict[Tuple[str, ...], int] = {}
        #: phase -> live occurrences on the stack (recursion awareness)
        self.active: Dict[str, int] = {}


class Profiler:
    """A process-local deterministic phase profiler.

    Thread-safe: each thread accounts into its own :class:`_ThreadState`
    (no locking on the hot path); :meth:`snapshot` merges the states.
    """

    def __init__(self, anchors: Optional[Dict[Tuple[str, str], str]] = None) -> None:
        self.enabled = False
        self.anchors: Dict[Tuple[str, str], str] = dict(
            BUILTIN_ANCHORS if anchors is None else anchors
        )
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        #: classification cache: code object / builtin -> phase or None
        self._classified: Dict[Any, Optional[str]] = {}
        #: remote lanes spliced in by :meth:`absorb`, keyed by (pid, lane)
        self._absorbed: Dict[Tuple[int, str], Dict[str, Any]] = {}

    # -- registry --------------------------------------------------------------

    def register(self, phase: str, module: str, function: str) -> None:
        """Anchor ``module.function`` to ``phase`` (resets the class cache)."""
        with self._lock:
            self.anchors[(module, function)] = phase
            self._classified = {}

    # -- classification --------------------------------------------------------

    def _classify_code(self, code, module: Optional[str]) -> Optional[str]:
        name = code.co_name
        phase = self.anchors.get((module, name))
        if phase is None:
            name_anchor = _NAME_ANCHORS.get(name)
            if name_anchor is not None and module and module.startswith(name_anchor[0]):
                phase = name_anchor[1]
        self._classified[code] = phase
        return phase

    def _classify_builtin(self, func) -> Optional[str]:
        try:
            cached = self._classified.get(func, False)
        except TypeError:  # unhashable callable: never an anchor
            return None
        if cached is not False:
            return cached
        module = getattr(func, "__module__", None)
        name = getattr(func, "__name__", None)
        phase = self.anchors.get((module, name)) if name else None
        self._classified[func] = phase
        return phase

    # -- the profile hook ------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _push(self, state: _ThreadState, phase: str, key: Any) -> None:
        state.stack.append([phase, key, time.perf_counter_ns(), 0])
        state.active[phase] = state.active.get(phase, 0) + 1

    def _pop(self, state: _ThreadState, key: Any) -> None:
        stack = state.stack
        if not stack or stack[-1][1] is not key:
            # A return whose call predates enable(), or an unwound frame:
            # ignore rather than corrupt the stack.
            return
        phase, _key, start_ns, child_ns = stack.pop()
        now = time.perf_counter_ns()
        raw_inclusive = now - start_ns
        exclusive = raw_inclusive - child_ns
        totals = state.phases.get(phase)
        if totals is None:
            totals = state.phases[phase] = [0, 0, 0]
        totals[0] += 1
        totals[2] += exclusive
        remaining = state.active.get(phase, 1) - 1
        state.active[phase] = remaining
        if remaining == 0:
            # Outermost occurrence: recursion adds calls, not inclusive time.
            totals[1] += raw_inclusive
        if stack:
            stack[-1][3] += raw_inclusive
            stack_key = tuple(entry[0] for entry in stack) + (phase,)
        else:
            stack_key = (phase,)
        state.stacks[stack_key] = state.stacks.get(stack_key, 0) + exclusive

    def _hook(self, frame, event: str, arg) -> None:
        try:
            if event == "call":
                code = frame.f_code
                phase = self._classified.get(code, False)
                if phase is False:
                    phase = self._classify_code(code, frame.f_globals.get("__name__"))
                if phase is not None:
                    self._push(self._state(), phase, code)
            elif event == "return":
                code = frame.f_code
                phase = self._classified.get(code, False)
                if phase is False:
                    phase = self._classify_code(code, frame.f_globals.get("__name__"))
                if phase is not None:
                    self._pop(self._state(), code)
            elif event == "c_call":
                phase = self._classify_builtin(arg)
                if phase is not None:
                    self._push(self._state(), phase, arg)
            elif event in ("c_return", "c_exception"):
                phase = self._classify_builtin(arg)
                if phase is not None:
                    self._pop(self._state(), arg)
        except Exception:  # noqa: BLE001 - a profiler must never break the program
            pass

    # -- lifecycle -------------------------------------------------------------

    def enable(self) -> None:
        """Install the profile hook (current thread + threads started later)."""
        self.enabled = True
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def disable(self) -> None:
        """Remove the profile hook; accumulated totals stay readable."""
        if self.enabled:  # never uninstall a hook this profiler did not set
            sys.setprofile(None)
            threading.setprofile(None)
        self.enabled = False

    def clear(self) -> None:
        """Drop all accumulated totals and absorbed lanes (local and remote)."""
        with self._lock:
            self._states = []
            self._absorbed = {}
        self._local = threading.local()

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """This process's own phase totals: ``{"phases": ..., "stacks": ...}``.

        ``phases`` maps phase -> ``{"calls", "inclusive_us", "exclusive_us"}``;
        ``stacks`` maps ``";"``-joined phase stacks -> exclusive microseconds.
        Thread states are merged by addition.
        """
        with self._lock:
            states = list(self._states)
        phases: Dict[str, Dict[str, Any]] = {}
        stacks: Dict[str, float] = {}
        for state in states:
            for phase, (calls, inclusive, exclusive) in state.phases.items():
                bucket = phases.setdefault(
                    phase, {"calls": 0, "inclusive_us": 0.0, "exclusive_us": 0.0}
                )
                bucket["calls"] += calls
                bucket["inclusive_us"] += inclusive / 1000.0
                bucket["exclusive_us"] += exclusive / 1000.0
            for stack_key, exclusive in state.stacks.items():
                label = ";".join(stack_key)
                stacks[label] = stacks.get(label, 0.0) + exclusive / 1000.0
        return {
            "phases": {name: phases[name] for name in sorted(phases)},
            "stacks": {name: stacks[name] for name in sorted(stacks)},
        }

    def lanes(self, lane: str = "caller") -> List[Dict[str, Any]]:
        """All known profile lanes: this process first, then absorbed ones.

        Each lane is ``{"pid", "lane", "phases", "stacks"}`` — the shape of
        :func:`chunk_profile_payload`.  The local lane appears even when it
        accounted nothing (so a profiled run always has >= 1 lane).
        """
        local = self.snapshot()
        out = [{"pid": os.getpid(), "lane": lane, **local}]
        with self._lock:
            absorbed = sorted(self._absorbed.items())
        for (_pid, _label), payload in absorbed:
            out.append(payload)
        return out

    def absorb(self, payload: Optional[Dict[str, Any]]) -> bool:
        """Splice an executor's :func:`chunk_profile_payload` in as a lane.

        Lanes merge by ``(pid, lane)`` — a worker that served several
        chunks contributes one lane with summed totals.  A no-op (returns
        False) when the payload is ``None`` or local profiling is off.
        """
        if payload is None or not self.enabled:
            return False
        key = (int(payload.get("pid", 0)), str(payload.get("lane", "worker")))
        with self._lock:
            existing = self._absorbed.get(key)
            if existing is None:
                self._absorbed[key] = {
                    "pid": key[0],
                    "lane": key[1],
                    "phases": {k: dict(v) for k, v in (payload.get("phases") or {}).items()},
                    "stacks": dict(payload.get("stacks") or {}),
                }
            else:
                merge_lane_phases(existing["phases"], payload.get("phases") or {})
                stacks = existing["stacks"]
                for label, value in (payload.get("stacks") or {}).items():
                    stacks[label] = stacks.get(label, 0.0) + value
        return True


def merge_lane_phases(
    into: Dict[str, Dict[str, Any]], other: Dict[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Fold phase totals ``other`` into ``into`` (addition per field)."""
    for phase, totals in other.items():
        bucket = into.setdefault(
            phase, {"calls": 0, "inclusive_us": 0.0, "exclusive_us": 0.0}
        )
        bucket["calls"] += totals.get("calls", 0)
        bucket["inclusive_us"] += totals.get("inclusive_us", 0.0)
        bucket["exclusive_us"] += totals.get("exclusive_us", 0.0)
    return into


#: The process-global profiler all instrumentation rides on.
PROFILER = Profiler()
# A fork copies the lock as another thread may hold it; the child's is free.
os.register_at_fork(after_in_child=lambda: setattr(PROFILER, "_lock", threading.Lock()))


def register_phase(phase: str, module: str, function: str) -> None:
    """Anchor ``module.function`` to ``phase`` on the global profiler."""
    PROFILER.register(phase, module, function)


def registered_phases() -> Dict[str, List[str]]:
    """The phase registry inverted: phase -> sorted anchor labels."""
    out: Dict[str, List[str]] = {}
    for (module, function), phase in PROFILER.anchors.items():
        out.setdefault(phase, []).append(f"{module}.{function}")
    return {phase: sorted(anchors) for phase, anchors in sorted(out.items())}


def enable() -> None:
    """Turn phase profiling on for the process (module-level switch)."""
    PROFILER.enable()


def disable() -> None:
    PROFILER.disable()


def is_enabled() -> bool:
    return PROFILER.enabled


def clear() -> None:
    """Drop the global profiler's accumulated totals."""
    PROFILER.clear()


def snapshot() -> Dict[str, Any]:
    """Snapshot of the global profiler (see :meth:`Profiler.snapshot`)."""
    return PROFILER.snapshot()


def lanes(lane: str = "caller") -> List[Dict[str, Any]]:
    """All known lanes of the global profiler (local + absorbed)."""
    return PROFILER.lanes(lane)


def chunk_profile_payload(lane: str) -> Optional[Dict[str, Any]]:
    """The profile payload an executor ships back beside its results.

    ``None`` when profiling is off (the disabled path adds nothing to the
    wire) — the exact contract of
    :func:`repro.obs.distributed.chunk_payload` for spans.
    """
    if not PROFILER.enabled:
        return None
    return {"pid": os.getpid(), "lane": lane, **PROFILER.snapshot()}


def absorb_chunk_profile(payload: Optional[Dict[str, Any]]) -> bool:
    """Caller side: splice a chunk's profile payload in as a per-pid lane."""
    return PROFILER.absorb(payload)


def save_folded(path, profile_lanes: Iterable[Dict[str, Any]]) -> None:
    """Write lanes in collapsed-stack (``.folded``) format.

    One line per ``lane;phase;phase... value`` with integer microsecond
    weights — loadable by ``flamegraph.pl`` and speedscope.  Zero-weight
    stacks are dropped; parent directories are created.
    """
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    lines: List[str] = []
    for lane_payload in profile_lanes:
        prefix = f"{lane_payload.get('lane', 'lane')} (pid {lane_payload.get('pid', 0)})"
        for label, value in sorted((lane_payload.get("stacks") or {}).items()):
            weight = int(round(value))
            if weight > 0:
                lines.append(f"{prefix};{label} {weight}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + ("\n" if lines else ""))


def format_lanes(profile_lanes: Iterable[Dict[str, Any]]) -> str:
    """A human rendering of profile lanes (phases ranked by inclusive time)."""
    out: List[str] = []
    for lane_payload in profile_lanes:
        phases = lane_payload.get("phases") or {}
        out.append(
            f"{lane_payload.get('lane', 'lane')} (pid {lane_payload.get('pid', 0)}): "
            f"{len(phases)} phase(s)"
        )
        ranked = sorted(
            phases.items(), key=lambda kv: kv[1].get("inclusive_us", 0.0), reverse=True
        )
        for phase, totals in ranked:
            out.append(
                f"  {phase}: {totals.get('calls', 0)} calls, "
                f"incl {totals.get('inclusive_us', 0.0) / 1000.0:.1f}ms, "
                f"excl {totals.get('exclusive_us', 0.0) / 1000.0:.1f}ms"
            )
    return "\n".join(out)
