"""Process-local metrics: counters, gauges, histograms, timers, one global registry.

Counters are the hot-path primitive: instrumented modules bind the counter
object once at import time and each event costs one attribute increment —

::

    from repro.obs.metrics import counter

    _STEPS = counter("scheduler.steps")   # bound once, module level

    def decide_checked(...):
        _STEPS.inc()

:func:`reset` zeroes every instrument **in place** (object identity is
preserved), so module-level bindings survive registry resets — this is what
lets the experiment runner's forked children and the test suite each start
from a clean slate without re-importing anything.

Timers are the phase clocks: a :class:`Timer` holds the calls and inclusive
nanoseconds of one phase entry point, fed by one ``perf_counter_ns`` pair
per call::

    _UNFOLD_TIME = timer("measure.unfold")

    start = perf_counter_ns()
    try:
        ...
    finally:
        _UNFOLD_TIME.record(perf_counter_ns() - start)

They export under their own ``"timers"`` key, apart from ``"counters"``,
so counters stay deterministic.

:func:`snapshot` exports the registry as plain JSON-serializable dicts; the
run-report layer (:mod:`repro.obs.report`) ships these across the fork
boundary of the guarded experiment runner.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "timer",
    "snapshot",
    "reset",
    "subtract_counters",
    "subtract_timers",
    "merge_snapshot",
]

#: Histograms keep at most this many raw observations (the first ones seen
#: since the last reset) — enough to recover e.g. every sampled fault-plan
#: seed of an experiment without unbounded growth.
HISTOGRAM_SAMPLE_CAP = 64


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __reduce__(self):
        # Instruments are named handles to the *process-local* registry:
        # unpickling binds to (get-or-create) the receiving process's
        # instrument, so a counter captured in a shipped closure counts
        # into the executing worker's registry — whose snapshot then merges
        # back across the boundary.  The local value is deliberately not
        # transferred.
        return (counter, (self.name,))


class Gauge:
    """A last-value-wins instrument (``None`` until first set)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Any = None

    def set(self, value: Any) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = None

    def __reduce__(self):
        # See Counter.__reduce__: a named handle to the local registry.
        return (gauge, (self.name,))


class Timer:
    """Calls and inclusive nanoseconds spent in one phase entry point."""

    __slots__ = ("name", "calls", "ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.ns = 0

    def record(self, elapsed_ns: int, calls: int = 1) -> None:
        self.calls += calls
        self.ns += elapsed_ns

    def reset(self) -> None:
        self.calls = 0
        self.ns = 0

    def as_dict(self) -> Dict[str, int]:
        return {"calls": self.calls, "ns": self.ns}

    def __reduce__(self):
        # See Counter.__reduce__: a named handle to the local registry.
        return (timer, (self.name,))


def _percentile(ordered: List[Any], q: float) -> Any:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Histogram:
    """Streaming count/sum/min/max plus a capped raw-sample prefix.

    :meth:`as_dict` also exports nearest-rank ``p50``/``p90``/``p99``
    percentiles computed over the captured sample prefix (the first
    ``HISTOGRAM_SAMPLE_CAP`` observations since the last reset), so they are
    exact for small populations and approximate beyond the cap, plus the
    ``mean`` over *all* observations (streaming sum over count — exact
    beyond the cap); ``max`` is always exact."""

    __slots__ = ("name", "count", "sum", "min", "max", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum: Any = 0
        self.min: Optional[Any] = None
        self.max: Optional[Any] = None
        self.samples: List[Any] = []

    def observe(self, value: Any) -> None:
        self.count += 1
        self.sum = self.sum + value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < HISTOGRAM_SAMPLE_CAP:
            self.samples.append(value)

    def reset(self) -> None:
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None
        self.samples = []

    def merge(self, other: Dict[str, Any]) -> None:
        """Fold another histogram's exported dict into this instrument."""
        self.count += other.get("count", 0)
        self.sum = self.sum + other.get("sum", 0)
        for bound in ("min", "max"):
            value = other.get(bound)
            if value is None:
                continue
            current = getattr(self, bound)
            if current is None or (value < current if bound == "min" else value > current):
                setattr(self, bound, value)
        for sample in other.get("samples", []):
            if len(self.samples) >= HISTOGRAM_SAMPLE_CAP:
                break
            self.samples.append(sample)

    def as_dict(self) -> Dict[str, Any]:
        if self.samples:
            try:
                ordered = sorted(self.samples)
                p50, p90, p99 = (
                    _percentile(ordered, 0.5),
                    _percentile(ordered, 0.9),
                    _percentile(ordered, 0.99),
                )
            except TypeError:  # mutually unorderable sample types
                p50 = p90 = p99 = None
        else:
            p50 = p90 = p99 = None
        try:
            mean = self.sum / self.count if self.count else None
        except TypeError:  # non-numeric sum (e.g. concatenated values)
            mean = None
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": p50,
            "p90": p90,
            "p99": p99,
            "mean": mean,
            "samples": list(self.samples),
        }

    def __reduce__(self):
        # See Counter.__reduce__: a named handle to the local registry.
        return (histogram, (self.name,))


class MetricsRegistry:
    """Name-indexed instruments with in-place reset and dict export."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def timer(self, name: str) -> Timer:
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = self._timers[name] = Timer(name)
        return instrument

    def snapshot(self, *, include_zero: bool = False) -> Dict[str, Any]:
        """Plain-dict export: ``{"counters", "gauges", "histograms", "timers"}``.

        Zero counters, unset gauges, empty histograms and unused timers
        are omitted unless
        ``include_zero`` is true (registration is an import-time side
        effect, so untouched instruments carry no information).
        """
        return {
            "counters": {
                name: c.value
                for name, c in sorted(self._counters.items())
                if include_zero or c.value
            },
            "gauges": {
                name: g.value
                for name, g in sorted(self._gauges.items())
                if include_zero or g.value is not None
            },
            "histograms": {
                name: h.as_dict()
                for name, h in sorted(self._histograms.items())
                if include_zero or h.count
            },
            "timers": {
                name: t.as_dict()
                for name, t in sorted(self._timers.items())
                if include_zero or t.calls
            },
        }

    def reset(self) -> None:
        """Zero every instrument in place (bindings stay valid)."""
        for instrument in self._counters.values():
            instrument.reset()
        for instrument in self._gauges.values():
            instrument.reset()
        for instrument in self._histograms.values():
            instrument.reset()
        for instrument in self._timers.values():
            instrument.reset()


#: The process-global registry every instrumentation point binds against.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """Get-or-create a counter on the global registry."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge on the global registry."""
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """Get-or-create a histogram on the global registry."""
    return REGISTRY.histogram(name)


def timer(name: str) -> Timer:
    """Get-or-create a timer on the global registry."""
    return REGISTRY.timer(name)


def snapshot(*, include_zero: bool = False) -> Dict[str, Any]:
    """Snapshot of the global registry (see :meth:`MetricsRegistry.snapshot`)."""
    return REGISTRY.snapshot(include_zero=include_zero)


def reset() -> None:
    """Reset the global registry in place."""
    REGISTRY.reset()


def subtract_counters(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    """Counter delta ``after - before`` (non-positive entries dropped).

    Used by the runner's *inline* (non-isolated) mode, where one process
    accumulates metrics across experiments and per-experiment attribution
    needs a before/after diff instead of a registry reset.
    """
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value - before.get(name, 0) > 0
    }


def subtract_timers(
    after: Dict[str, Dict[str, int]], before: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Timer delta ``after - before`` (timers without new calls dropped);
    the inline runner's counterpart of :func:`subtract_counters`."""
    out: Dict[str, Dict[str, int]] = {}
    for name, totals in after.items():
        prior = before.get(name, {})
        calls = totals["calls"] - prior.get("calls", 0)
        if calls > 0:
            out[name] = {"calls": calls, "ns": totals["ns"] - prior.get("ns", 0)}
    return out


def merge_snapshot(snap: Dict[str, Any]) -> None:
    """Fold a :func:`snapshot` export into the global registry.

    The fork-boundary merge used by :func:`repro.perf.parallel.parallel_map`:
    worker processes snapshot their (freshly reset) registries and the
    parent adds the deltas here, so counters accumulated inside workers
    appear in the parent's per-experiment totals.  Counters and timers
    add, histograms fold (sample prefixes concatenate up to the cap),
    gauges are last-writer-wins in worker order.
    """
    for name, value in snap.get("counters", {}).items():
        REGISTRY.counter(name).inc(value)
    for name, value in snap.get("gauges", {}).items():
        if value is not None:
            REGISTRY.gauge(name).set(value)
    for name, exported in snap.get("histograms", {}).items():
        REGISTRY.histogram(name).merge(exported)
    for name, totals in snap.get("timers", {}).items():
        REGISTRY.timer(name).record(totals["ns"], totals["calls"])
