"""Canonical, process-stable SHA-256 fingerprints of plain data.

``fingerprint(obj)`` hashes a *canonical byte encoding* of ``obj``, which
must be built from ``None``, ``bool``, ``int``, ``float``, ``Fraction``,
``str``, ``bytes``, ``tuple``, ``list``, ``dict``, ``set`` and
``frozenset``.  Any other type raises :class:`Unfingerprintable`.  The
service keys job coalescing and reuse on it (``service/server.py``).

Canonical means independent of ``id()``, of dict and set iteration order
(mappings and sets encode as their items sorted by encoded bytes) and of
the interpreter's hash salt (no ``hash()`` value is ever encoded), so
equal data fingerprints identically in any process.  Every value carries
a type tag and length framing, so ``1``, ``1.0``, ``True`` and
``Fraction(1)`` never collide.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Any, Callable, Dict, Optional

__all__ = ["Unfingerprintable", "fingerprint", "try_fingerprint"]


class Unfingerprintable(TypeError):
    """The value is not plain data (see the module docstring)."""


def _frame(tag: bytes, *parts: bytes) -> bytes:
    out = [tag, len(parts).to_bytes(4, "big")]
    for part in parts:
        out.append(len(part).to_bytes(8, "big"))
        out.append(part)
    return b"".join(out)


def _encode_dict(mapping: dict) -> bytes:
    pairs = sorted((_encode(key), _encode(value)) for key, value in mapping.items())
    return _frame(b"d", *[part for pair in pairs for part in pair])


_ENCODERS: Dict[type, Callable[[Any], bytes]] = {
    type(None): lambda v: b"N",
    bool: lambda v: b"T1" if v else b"T0",
    int: lambda v: _frame(b"I", b"%d" % v),
    float: lambda v: _frame(b"D", repr(v).encode("ascii")),
    Fraction: lambda v: _frame(b"R", b"%d" % v.numerator, b"%d" % v.denominator),
    str: lambda v: _frame(b"S", v.encode("utf-8", "surrogatepass")),
    bytes: lambda v: _frame(b"B", v),
    tuple: lambda v: _frame(b"t", *map(_encode, v)),
    list: lambda v: _frame(b"l", *map(_encode, v)),
    dict: _encode_dict,
    set: lambda v: _frame(b"s", *sorted(map(_encode, v))),
    frozenset: lambda v: _frame(b"f", *sorted(map(_encode, v))),
}


def _encode(obj: Any) -> bytes:
    encoder = _ENCODERS.get(type(obj))
    if encoder is None:
        cls = type(obj)
        raise Unfingerprintable(
            f"no canonical encoding for {cls.__module__}.{cls.__qualname__}"
        )
    return encoder(obj)


def fingerprint(obj: Any) -> str:
    """Canonical SHA-256 hex digest of the plain data ``obj``."""
    return hashlib.sha256(_encode(obj)).hexdigest()


def try_fingerprint(obj: Any) -> Optional[str]:
    """:func:`fingerprint`, with ``None`` instead of an exception."""
    try:
        return fingerprint(obj)
    except Unfingerprintable:
        return None
