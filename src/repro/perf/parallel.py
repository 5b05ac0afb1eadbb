"""``parallel_map`` — one sweep contract over pluggable execution backends.

Fans a list of independent work items across an execution backend
(:mod:`repro.perf.backends`) and reassembles results **in input order**, so
callers observe exactly the semantics of ``[fn(x) for x in items]``
regardless of whether chunks ran in-process or on a TCP worker pool:

* **Deterministic partitioning** — chunk ``w`` of ``n`` gets items
  ``w, w+n, w+2n, ...`` (round-robin by index).  The partition is a pure
  function of ``(len(items), n)``, never of timing, and each item's result
  depends only on the item itself, so any seeds baked into the items are
  honoured identically at every parallelism (*seed-stable*).
* **Exactness** — results cross process boundaries by pickling;
  ``Fraction`` weights round-trip losslessly, so fanned sweeps are
  bit-identical to serial ones on every backend.
* **Boundary metrics merging** — remote executors start from a zeroed
  :mod:`repro.obs.metrics` registry and ship per-chunk snapshots back with
  the results; the parent folds them in, in chunk order, so per-experiment
  counters survive the fan-out.
* **Span collection and heartbeats** — with tracing on, executors buffer
  their spans and ship them in the same atomic payload; the caller
  clock-aligns them into its own tracer as named per-worker process lanes
  (:mod:`repro.obs.distributed`) and marks dispatch/retry/fallback/death
  with instant events.  Each completed chunk also advances the live
  progress line (:mod:`repro.obs.progress`); both facilities are off by
  default with near-free disabled paths.
* **Degradation, not failure** — a resolved parallelism of 1 on a local
  backend (the serial spec) runs the plain comprehension in the caller.  A
  chunk whose executor died without reporting (hard crash, dead
  worker pool) is re-run serially in the caller — counted in
  ``perf.parallel.chunk_fallbacks`` — and because result payloads are
  atomic, the lost executor contributed neither results nor metrics, so
  nothing is ever double-counted.  An exception raised by ``fn`` remotely
  is re-raised here as :class:`ParallelWorkerError` carrying the executor's
  traceback; when several items fail, the **lowest item index** wins.

Backend resolution, in order: the ``backend`` argument (an
:class:`~repro.perf.backends.ExecutionBackend` instance or a spec string),
then the process-wide default
(:func:`repro.perf.backends.configure_backend`, else serial).  The
experiment runner's ``--parallel`` flag deliberately does *not* configure
a backend: runner parallelism fans whole experiments, and nesting both
layers oversubscribes the host (see ``docs/performance.md``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Tuple, Union

from repro.obs import distributed as _distributed
from repro.obs import metrics as _metrics
from repro.obs import progress as _progress
from repro.obs import trace as _trace
from repro.obs.metrics import counter as _counter
from repro.perf import pickling
from repro.perf.backends import (
    ExecutionBackend,
    get_backend,
    make_backend,
)

__all__ = [
    "ParallelWorkerError",
    "parallel_map",
]

_MAPS = _counter("perf.parallel.maps")
_ITEMS = _counter("perf.parallel.items")
_FALLBACKS = _counter("perf.parallel.chunk_fallbacks")


class ParallelWorkerError(RuntimeError):
    """``fn`` raised inside an executor; carries the remote traceback text."""

    def __init__(self, index: int, child_traceback: str) -> None:
        super().__init__(
            f"parallel_map item {index} raised in worker:\n{child_traceback.rstrip()}"
        )
        self.index = index
        self.child_traceback = child_traceback


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    backend: Union[None, str, ExecutionBackend] = None,
) -> List[Any]:
    """``[fn(x) for x in items]`` fanned across an execution backend (see
    module docstring for the determinism contract)."""
    work = list(items)
    if not work:
        return []
    if backend is None:
        resolved, owned = get_backend(), False
    elif isinstance(backend, ExecutionBackend):
        resolved, owned = backend, False
    else:
        resolved, owned = make_backend(backend), True

    try:
        count = min(resolved.parallelism, len(work))
        if count <= 1 and not resolved.remote:
            # A single local chunk gains nothing from the transport; a
            # single *remote* chunk still offloads (that's the point of
            # pointing a weak host at a one-worker pool).
            return [fn(item) for item in work]
        count = max(1, count)

        _MAPS.inc()
        _ITEMS.inc(len(work))
        indexed = list(enumerate(work))
        chunks = [indexed[w::count] for w in range(count)]
        _trace.instant(
            "parallel.dispatch", backend=resolved.spec, chunks=len(chunks), items=len(work)
        )
        _progress.begin(f"parallel map [{resolved.spec}]", len(chunks), "chunks")
        try:
            with _trace.span(
                "parallel.map", backend=resolved.spec, chunks=len(chunks), items=len(work)
            ):
                outcomes = resolved.submit_chunks(fn, chunks)
        finally:
            _progress.finish()
    finally:
        if owned:
            resolved.close()

    results: List[Any] = [None] * len(work)
    failures: List[Tuple[int, str]] = []
    for chunk_index, (chunk, outcome) in enumerate(zip(chunks, outcomes)):
        if outcome.lost:
            # The executor died without reporting (or supervision
            # quarantined a poison chunk): recompute the chunk here.  Its
            # payload (results + metrics + spans) is atomic and never
            # arrived, so merging nothing and recomputing counts each
            # item's work exactly once.  The recompute runs on pickled
            # copies of the function and of the items, shipped apart as the
            # executor ships them, so their automata start with empty
            # transition memos and even the hit/miss split is the one the
            # executor would have reported.
            _FALLBACKS.inc()
            _trace.instant(
                "parallel.chunk_quarantined" if outcome.quarantined else "parallel.chunk_fallback",
                chunk=chunk_index,
                detail=outcome.detail,
            )
            cold_fn = pickling.loads(pickling.dumps(fn))
            cold_chunk = pickling.loads(pickling.dumps(list(chunk)))
            for index, item in cold_chunk:
                results[index] = cold_fn(item)
            continue
        # The one merge of a chunk outcome: metrics (phase timers included),
        # then spans.
        if outcome.metrics is not None:
            _metrics.merge_snapshot(outcome.metrics)
        _distributed.absorb_chunk_trace(outcome.trace)
        for index, error, value in outcome.results:
            if error is not None:
                failures.append((index, error))
            else:
                results[index] = value
    if failures:
        index, error = min(failures)
        raise ParallelWorkerError(index, error)
    return results
