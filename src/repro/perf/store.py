"""Disk-backed pickle store under ``cache_dir``.

``cache_dir`` (``RunConfig.cache_dir``, ``--cache-dir``,
``REPRO_CACHE_DIR``) names the store directory; :func:`configure`
(called by ``RunConfig.apply``) sets it for this process and its forks,
and :func:`active_store` returns a store over it, or ``None`` when unset.
No execution path reads or writes the store yet.  It is reserved for
a per-experiment report memo; ``summary.cache.persistent`` reports its
``stats()``.

On-disk format
--------------

::

    <cache_dir>/
      v<STORE_FORMAT>-py<major>.<minor>/
        <kind>/<key[:2]>/<key>.pkl

The version segment bakes in the entry format and the Python minor
version (pickled values must not cross interpreters), so incompatible
writers land in sibling trees.  Each entry is a pickled dict carrying
``format``, ``kind`` and ``key`` echoes that are validated on read: a
truncated, corrupt or foreign file is a miss, never an error.  Writes go
through a temporary file and :func:`os.replace`, so concurrent writers
race benignly (last write wins, readers always see a complete entry).

Entries are trusted input: only point the store at directories
written by processes you trust, as entries are unpickled on read.
"""

from __future__ import annotations

import os
import pickle
import shutil
import sys
import tempfile
from typing import Any, Dict, Optional

from repro.obs import metrics as _metrics

__all__ = [
    "STORE_FORMAT",
    "PersistentStore",
    "active_store",
    "configure",
    "version_tag",
]

#: Bump when the entry layout below changes shape.
STORE_FORMAT = 1

_HITS = _metrics.counter("perf.cache.persistent.hits")
_MISSES = _metrics.counter("perf.cache.persistent.misses")
_WRITES = _metrics.counter("perf.cache.persistent.writes")


#: The configured store directory (``None``: none configured).
_DIRECTORY: Optional[str] = None


def configure(directory: Optional[str]) -> None:
    """Point this process's store at ``directory`` (``None`` disables it)."""
    global _DIRECTORY
    _DIRECTORY = directory or None


def version_tag() -> str:
    """Directory segment isolating incompatible entry formats."""
    return "v{}-py{}.{}".format(STORE_FORMAT, sys.version_info[0], sys.version_info[1])


def active_store() -> Optional["PersistentStore"]:
    """A store over the configured directory, or ``None`` when unset.
    Construction does no I/O."""
    if _DIRECTORY is None:
        return None
    return PersistentStore(_DIRECTORY)


class PersistentStore:
    """Keyed pickle store under a versioned root.

    All failure modes are soft: unreadable entries are misses, unwritable
    directories make :meth:`put` a no-op.  The store must never be able
    to fail a run that would have succeeded without it.
    """

    __slots__ = ("base", "root")

    def __init__(self, base: str) -> None:
        self.base = base
        self.root = os.path.join(base, version_tag())

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, kind, key[:2], key + ".pkl")

    def get(self, kind: str, key: str) -> Any:
        """The stored value for ``(kind, key)``, or ``None`` on any miss."""
        try:
            with open(self._path(kind, key), "rb") as handle:
                entry = pickle.load(handle)
            if (
                not isinstance(entry, dict)
                or entry.get("format") != STORE_FORMAT
                or entry.get("kind") != kind
                or entry.get("key") != key
            ):
                raise ValueError("entry failed validation")
        except Exception:
            _MISSES.inc()
            return None
        _HITS.inc()
        return entry["value"]

    def put(self, kind: str, key: str, value: Any) -> bool:
        """Atomically persist ``value``; best-effort, False on failure."""
        path = self._path(kind, key)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(
                        {
                            "format": STORE_FORMAT,
                            "kind": kind,
                            "key": key,
                            "value": value,
                        },
                        handle,
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            return False
        _WRITES.inc()
        return True

    def clear(self) -> None:
        """Remove every entry written under the current version tag."""
        shutil.rmtree(self.root, ignore_errors=True)

    def stats(self) -> Dict[str, Any]:
        """Snapshot ``{dir, entries, bytes}`` for ``summary.cache.persistent``."""
        entries = 0
        size = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".pkl"):
                    continue
                entries += 1
                try:
                    size += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
        return {"dir": self.base, "entries": entries, "bytes": size}
