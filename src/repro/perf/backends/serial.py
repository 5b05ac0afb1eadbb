"""The in-process backend (spec ``serial``).

The reference transport: chunks run in the caller's process, one after the
other, metrics land directly in the caller's registry (no snapshot/merge
round-trip).  ``parallel_map`` short-circuits to a plain comprehension when
the resolved parallelism is 1, so this class is mostly exercised when a
caller drives a backend instance directly.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable, List, Sequence

from repro.perf.backends import Chunk, ChunkOutcome, ExecutionBackend, register_backend

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Run every chunk in the calling process."""

    name = "serial"

    @property
    def spec(self) -> str:
        return "serial"

    @property
    def parallelism(self) -> int:
        return 1

    def submit_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Chunk]
    ) -> List[ChunkOutcome]:
        outcomes: List[ChunkOutcome] = []
        for chunk in chunks:
            results = []
            for index, item in chunk:
                try:
                    results.append((index, None, fn(item)))
                except Exception:  # noqa: BLE001 - shipped like a remote traceback
                    results.append((index, traceback.format_exc(), None))
            # metrics=None: the work already counted in the caller's registry.
            outcomes.append(ChunkOutcome(results=results, metrics=None))
        return outcomes


def _factory(rest):
    if rest:
        from repro.perf.backends import BackendSpecError

        raise BackendSpecError(f"serial takes no parameters, got {rest!r}")
    return SerialBackend()


register_backend("serial", _factory)
