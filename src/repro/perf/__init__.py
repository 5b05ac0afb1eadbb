"""``repro.perf`` — the performance layer: memoization + parallel sweeps.

Two orthogonal tools, both contract-bound to change *nothing* about
results (the differential suite ``tests/test_perf_differential.py`` is the
enforcement arm):

* :mod:`repro.perf.cache` — transparent memoization of transitions,
  scheduler decisions and whole unfoldings, plus hash-consing (interning)
  of :class:`~repro.core.executions.Fragment` and exact
  :class:`~repro.probability.measures.DiscreteMeasure` objects.  Switched
  by the run config's ``cache`` (default on).  Entries are keyed by object
  identity.  ``cache_dir`` / ``--cache-dir`` names the directory of the
  disk-backed :mod:`repro.perf.store`, which no run reads or writes yet.
* :func:`parallel_map` over pluggable **execution backends**
  (:mod:`repro.perf.backends`): ``serial`` (in-process), ``fork:N``
  (forked children on this host) and ``socket:host:port,...`` (a TCP
  worker pool started with ``python -m repro.perf.worker``) and ``pool:N``
  (a supervised loopback pool that launches and respawns its own
  workers).  The sweep contract — seed-stable partitioning, in-order
  reassembly, boundary metrics merging, lowest-index error propagation —
  is identical on every backend, so results are byte-for-byte
  backend-independent.  The remote transports run under a supervision
  policy (:mod:`repro.perf.supervise`): per-chunk deadlines, heartbeats,
  seeded backoff, circuit breakers and poison-chunk quarantine; the chaos
  harness (:mod:`repro.perf.chaos`) proves those paths differentially
  (see ``docs/resilience.md``).

The supported public surface of the parallel half is

    ``parallel_map``, ``configure_backend``, ``get_backend``,
    ``ExecutionBackend``, ``ParallelWorkerError``

(see ``docs/performance.md``).
"""

from repro.perf.backends import (
    BackendSpecError,
    ChunkOutcome,
    ExecutionBackend,
    ForkBackend,
    SerialBackend,
    SocketBackend,
    configure_backend,
    current_spec,
    get_backend,
    make_backend,
    register_backend,
)
from repro.perf.cache import (
    CACHE,
    cache_enabled,
    cached_derived,
    clear as clear_caches,
    configure as configure_cache,
    intern_fragment,
    intern_measure,
    invalidate,
    owner_key,
    stats as cache_stats,
)
# Importing the submodule binds ``repro.perf.fingerprint`` (the module) as a
# package attribute; the ``fingerprint`` *function* deliberately stays inside
# it (``repro.perf.fingerprint.fingerprint``) so the submodule is never
# shadowed for ``from repro.perf import fingerprint`` importers.
from repro.perf.fingerprint import (
    Unfingerprintable,
    try_fingerprint,
)
from repro.perf.parallel import (
    ParallelWorkerError,
    parallel_map,
)
from repro.perf.store import PersistentStore, active_store
from repro.perf.supervise import (
    LocalPoolBackend,
    SupervisionLog,
    SupervisionPolicy,
    backoff_delay,
)

__all__ = [
    "CACHE",
    "cache_enabled",
    "cached_derived",
    "clear_caches",
    "configure_cache",
    "intern_fragment",
    "intern_measure",
    "invalidate",
    "cache_stats",
    "ParallelWorkerError",
    "parallel_map",
    "configure_backend",
    "get_backend",
    "make_backend",
    "register_backend",
    "current_spec",
    "ExecutionBackend",
    "SerialBackend",
    "ForkBackend",
    "SocketBackend",
    "LocalPoolBackend",
    "SupervisionLog",
    "SupervisionPolicy",
    "backoff_delay",
    "ChunkOutcome",
    "BackendSpecError",
    "fingerprint",
    "try_fingerprint",
    "Unfingerprintable",
    "owner_key",
    "PersistentStore",
    "active_store",
]
