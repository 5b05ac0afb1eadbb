"""Tests of the ``parallel_map`` determinism contract over backends.

Order preservation, exactness across the pickle boundary, seed-stable
partitioning, boundary metrics merging, lost-chunk fallback without
double-counting, and error propagation with the remote traceback attached.
The contract is backend-independent; these tests exercise it through the
fork transport (the serial and socket transports are covered in
``test_perf_backends.py``, against the same assertions).
"""

import os
import random
from fractions import Fraction

import pytest

from repro.obs import metrics
from repro.perf.parallel import ParallelWorkerError, parallel_map


class TestOrderAndExactness:
    def test_results_in_input_order(self):
        items = list(range(23))
        assert parallel_map(lambda x: x * x, items, backend="fork:4") == [x * x for x in items]

    def test_fractions_cross_the_boundary_exactly(self):
        items = [Fraction(1, n) for n in range(1, 17)]
        result = parallel_map(lambda f: f / 3, items, backend="fork:3")
        assert result == [f / 3 for f in items]
        assert all(isinstance(r, Fraction) for r in result)

    def test_single_item_runs_serially(self):
        forks_before = metrics.counter("perf.parallel.forks").value
        assert parallel_map(lambda x: x + 1, [41], backend="fork:8") == [42]
        assert metrics.counter("perf.parallel.forks").value == forks_before

    def test_empty_input(self):
        assert parallel_map(lambda x: x, [], backend="fork:4") == []


class TestSeedStability:
    def test_same_results_at_every_worker_count(self):
        # Each item carries its own seed; the round-robin partition must
        # never change which seed computes which item.
        def draw(seed):
            return random.Random(seed).random()

        items = list(range(31))
        serial = [draw(i) for i in items]
        for workers in (1, 2, 4, 7):
            assert parallel_map(draw, items, backend=f"fork:{workers}") == serial


class TestMetricsMerging:
    def test_worker_counters_fold_into_parent(self):
        c = metrics.counter("test.parallel.increments")
        before = c.value

        def bump(x):
            c.inc()
            return x

        parallel_map(bump, list(range(12)), backend="fork:4")
        assert c.value == before + 12


class TestLostChunkFallback:
    def test_dead_chunk_is_recomputed_without_double_counting(self):
        # One forked chunk dies hard (os._exit — no results, no snapshot).
        # The fallback recomputes exactly that chunk in the parent; because
        # chunk payloads are atomic the dead child's partial counter
        # increments never merge, so every item is counted exactly once.
        c = metrics.counter("test.parallel.fallback_work")
        before = c.value
        fallbacks = metrics.counter("perf.parallel.chunk_fallbacks")
        fallbacks_before = fallbacks.value
        parent_pid = os.getpid()

        def work(x):
            c.inc()
            if x == 1 and os.getpid() != parent_pid:
                os._exit(1)  # dies *after* counting: a real double-count risk
            return x * 10

        items = list(range(9))
        # fork:3 puts items {1, 4, 7} alone in chunk 1 (round-robin).
        assert parallel_map(work, items, backend="fork:3") == [x * 10 for x in items]
        assert fallbacks.value == fallbacks_before + 1
        assert c.value == before + len(items)


class TestErrors:
    def test_worker_exception_propagates_with_traceback(self):
        def maybe_boom(x):
            if x == 7:
                raise ValueError("boom at seven")
            return x

        with pytest.raises(ParallelWorkerError) as excinfo:
            parallel_map(maybe_boom, list(range(12)), backend="fork:3")
        assert excinfo.value.index == 7
        assert "boom at seven" in str(excinfo.value)

    def test_lowest_failing_index_wins(self):
        def boom_high(x):
            if x >= 5:
                raise RuntimeError(f"fail {x}")
            return x

        with pytest.raises(ParallelWorkerError) as excinfo:
            parallel_map(boom_high, list(range(12)), backend="fork:4")
        assert excinfo.value.index == 5
