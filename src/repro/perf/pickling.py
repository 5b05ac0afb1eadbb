"""Closure-capable pickling for the socket execution backend.

A socket worker is a *separate process on a possibly different machine*
(a ``pool:N`` worker is forked once, before any sweep exists), so the
mapped function must cross the wire, and sweep call sites routinely pass
lambdas and local closures (E15's fault sweeps, the E12 distinguisher
search), which the standard :mod:`pickle` refuses.

:func:`dumps` is ``pickle.dumps`` with one extension, applied recursively
anywhere in the object graph: a function that cannot be imported by
``module:qualname`` (lambdas, comprehension-local ``def``s, anything whose
qualname contains ``<locals>``) is serialized **by value** — its code object
via :mod:`marshal`, its closure cells, defaults, and the module globals its
code actually references.  Importable functions, classes and instances keep
standard pickle-by-reference semantics, so the worker resolves them against
its own installed ``repro`` package.

:func:`loads` is plain ``pickle.loads``: the by-value reduction rebuilds a
*skeleton* function through :func:`_make_skeleton` (empty closure cells)
and then fills cells, globals and defaults through :func:`_fill_function`
as pickle state — both importable, so no custom unpickler is needed on the
receiving side.  The two-step rebuild is what makes **self-referential
closures** (a recursive local function captured in its own cell) work: the
skeleton lands in the pickle memo before its cell values are serialized,
so the cycle resolves instead of recursing.

Constraints, by construction:

* ``marshal`` code blobs are only portable between identical interpreter
  versions — workers must run the same ``major.minor`` Python as the
  client (the worker handshake reports its version so mismatches fail
  loudly, see :mod:`repro.perf.worker`).
* Captured module globals are snapshotted at dump time; by-value functions
  that *assign* globals get a private globals dict on the worker.
* Like everything pickle: only unpickle data from trusted peers.
"""

from __future__ import annotations

import builtins
import importlib
import io
import marshal
import pickle
import sys
import types
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["dumps", "loads", "PicklingError"]

PicklingError = pickle.PicklingError

class _EmptyCell:
    """Sentinel for closure cells that are still empty (e.g. a recursive
    local function captured before its own definition completed)."""

    def __reduce__(self):
        return (_EmptyCell, ())


def _importable(fn: types.FunctionType) -> bool:
    """True when ``fn`` can be recovered by importing ``module:qualname``."""
    module_name = getattr(fn, "__module__", None) or ""
    if module_name in ("__main__", "__mp_main__"):
        return False  # scripts/REPLs don't exist as importable modules elsewhere
    module = sys.modules.get(module_name)
    if module is None:
        return False
    obj: Any = module
    for part in fn.__qualname__.split("."):
        if part == "<locals>":
            return False
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is fn


def _referenced_globals(code: types.CodeType, globs: Dict[str, Any]) -> Dict[str, Any]:
    """The subset of ``globs`` that ``code`` (or any nested code constant,
    e.g. an inner lambda or comprehension) can actually name."""
    names: set = set()
    stack: List[types.CodeType] = [code]
    while stack:
        current = stack.pop()
        names.update(current.co_names)
        for const in current.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
    return {name: globs[name] for name in sorted(names) if name in globs}


def _cell_contents(fn: types.FunctionType) -> Optional[List[Any]]:
    if fn.__closure__ is None:
        return None
    values: List[Any] = []
    for cell in fn.__closure__:
        try:
            values.append(cell.cell_contents)
        except ValueError:  # still-empty cell
            values.append(_EmptyCell())
    return values


def _make_skeleton(
    code_blob: bytes,
    name: str,
    qualname: str,
    module: str,
    cell_count: int,
) -> types.FunctionType:
    """An empty-celled shell of a by-value function.

    Cells, globals and defaults arrive afterwards through
    :func:`_fill_function` (pickle state): splitting construction this way
    puts the function object in the unpickler's memo *before* its closure
    values deserialize, which is what lets a recursive local function
    reference itself without infinite recursion."""
    code = marshal.loads(code_blob)
    closure = tuple(types.CellType() for _ in range(cell_count)) or None
    fn = types.FunctionType(code, {"__builtins__": builtins}, name, None, closure)
    fn.__qualname__ = qualname
    fn.__module__ = module
    return fn


def _fill_function(fn: types.FunctionType, state: Dict[str, Any]) -> None:
    """Install captured globals, defaults and closure-cell values into a
    :func:`_make_skeleton` shell (the pickle state setter)."""
    fn.__globals__.update(state["globals"])
    fn.__defaults__ = state["defaults"]
    fn.__kwdefaults__ = state["kwdefaults"]
    for cell, value in zip(fn.__closure__ or (), state["cells"] or ()):
        if not isinstance(value, _EmptyCell):
            cell.cell_contents = value


class _ClosurePickler(pickle.Pickler):
    """Standard pickler + by-value reduction for non-importable functions
    and by-name reduction for module objects."""

    def reducer_override(self, obj):  # noqa: D102 - pickle protocol hook
        if isinstance(obj, types.FunctionType) and not _importable(obj):
            state = {
                "globals": _referenced_globals(obj.__code__, obj.__globals__),
                "defaults": obj.__defaults__,
                "kwdefaults": obj.__kwdefaults__,
                "cells": _cell_contents(obj),
            }
            return (
                _make_skeleton,
                (
                    marshal.dumps(obj.__code__),
                    obj.__name__,
                    obj.__qualname__,
                    obj.__module__ or "__repro_dynamic__",
                    len(obj.__closure__ or ()),
                ),
                state,
                None,
                None,
                _fill_function,
            )
        if isinstance(obj, types.ModuleType):
            return (importlib.import_module, (obj.__name__,))
        return NotImplemented


def dumps(obj: Any) -> bytes:
    """Pickle ``obj``; lambdas/closures anywhere in the graph go by value."""
    buffer = io.BytesIO()
    _ClosurePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


def loads(blob: bytes) -> Any:
    """Inverse of :func:`dumps` (plain unpickling; trusted input only)."""
    return pickle.loads(blob)
