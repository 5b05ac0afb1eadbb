"""Performance: sweep dispatch overhead per execution backend.

A sweep's useful work is `fn`; everything else — partitioning, worker
start-up, framing, pickling, snapshot merging — is transport overhead.
This bench runs the same real unfolding sweep through each backend and
records items/s trajectory points (``parallel.dispatch.{serial,pool,socket}``,
not gated — absolute dispatch cost is host- and loopback-dependent), so
a transport that gets disproportionately slower shows up in the
``BENCH_perf.json`` history.  Result equality with the in-caller
comprehension is asserted on every backend while we're here.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from repro.perf import cache as perf_cache
from repro.perf.parallel import parallel_map
from repro.semantics.measure import execution_measure
from repro.semantics.scheduler import PriorityScheduler

from bench_perf_measure import _branching_chain

_ITEMS = 24


def _sweep_item(depth):
    measure = execution_measure(
        _branching_chain(depth), PriorityScheduler([lambda a: True], depth * 2)
    )
    return measure.total_mass


def _time_sweep(backend_spec):
    items = [3] * _ITEMS
    start = time.perf_counter()
    results = parallel_map(_sweep_item, items, backend=backend_spec)
    elapsed = time.perf_counter() - start
    assert results == [Fraction(1)] * _ITEMS
    return _ITEMS / elapsed


def test_dispatch_serial_vs_pool(perf_point):
    perf_cache.configure(enabled=False)  # measure dispatch, not memo lookups
    perf_point("parallel.dispatch.serial", ops_s=_time_sweep("serial"), items=_ITEMS)
    # The pool forks its two workers inside the timed sweep: a one-sweep
    # pool pays its start-up, as a fresh run does.
    perf_point("parallel.dispatch.pool", ops_s=_time_sweep("pool:2"), items=_ITEMS)


def test_dispatch_socket_loopback(perf_point):
    if not hasattr(os, "fork"):
        pytest.skip("socket workers need a POSIX host")
    perf_cache.configure(enabled=False)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    workers = []
    try:
        addresses = []
        for _ in range(2):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.perf.worker", "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                env=env,
            )
            port = int(proc.stdout.readline().strip().rsplit(":", 1)[1])
            workers.append(proc)
            addresses.append(f"127.0.0.1:{port}")
        perf_point(
            "parallel.dispatch.socket",
            ops_s=_time_sweep("socket:" + ",".join(addresses)),
            items=_ITEMS,
            workers=len(addresses),
        )
    finally:
        for proc in workers:
            proc.kill()
            proc.wait()
