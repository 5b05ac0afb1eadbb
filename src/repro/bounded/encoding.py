"""Canonical bit-string encodings (paper Section 4 preamble).

The paper adopts "a standard bit-representation where we note ``<q>``,
``<a>``, ``<tr>``, ``<C>`` the respective bit-string representations of
state, action, discrete transition and configuration".  We realize this
with a deterministic, prefix-safe encoding:

* atoms are serialized by canonical ``repr`` to UTF-8 bytes, 8 bits each;
* composite objects (transitions, configurations) are framed with
  constant-size separators, mirroring the "reserved special constant-sized
  sequence of bits for concatenation" used in Lemmas B.1–B.3.

Only *lengths* of the encodings enter the bound computations, but the full
bit strings are produced so the reference decoders genuinely operate on
representations rather than on Python objects.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Tuple

from repro.probability.measures import DiscreteMeasure

__all__ = [
    "encode_bits",
    "encoded_length",
    "clear_memos",
    "encode_state",
    "encode_action",
    "encode_transition",
    "encode_configuration",
    "SEPARATOR",
]

#: The reserved constant-sized separator used to frame concatenations
#: (the ``b*`` of Lemma B.2's proof).
SEPARATOR = "11"


def _canonical_repr(obj: Hashable) -> str:
    """A canonical textual form: repr with deterministic ordering for sets."""
    if isinstance(obj, frozenset):
        return "{" + ",".join(sorted(_canonical_repr(x) for x in obj)) + "}"
    if isinstance(obj, tuple):
        return "(" + ",".join(_canonical_repr(x) for x in obj) + ")"
    return repr(obj)


#: Byte -> 16-char bit-stuffed encoding, precomputed once.  Stuffing a ``0``
#: after every data bit guarantees the separator ``11`` never occurs inside
#: an atom (the framing trick of Lemma B.1's proof).
_STUFFED_BYTE = tuple(
    "".join(bit + "0" for bit in f"{value:08b}") for value in range(256)
)


@lru_cache(maxsize=65536)
def encode_bits(obj: Hashable) -> str:
    """The bit string of an atom: UTF-8 bytes of the canonical repr, each
    bit followed by a ``0`` stuffing bit.

    Encodings are referentially transparent (objects are immutable values),
    so results are memoized — the bound-measurement sweeps re-encode the
    same states and actions thousands of times (profiled hotspot).
    """
    raw = _canonical_repr(obj).encode("utf-8")
    return "".join(_STUFFED_BYTE[byte] for byte in raw)


@lru_cache(maxsize=65536)
def encoded_length(obj: Hashable) -> int:
    """``|<obj>|`` without materializing the padded string (2 bits per raw bit)."""
    raw = _canonical_repr(obj).encode("utf-8")
    return 16 * len(raw)


def clear_memos() -> None:
    """Empty the memos of :func:`encode_bits` and :func:`encoded_length`.

    They hold the objects they encoded, and a configuration (the state of
    a PCA) holds its automata with their transition memos, so a caller
    that runs experiments in its own process calls this when each ends.
    """
    encode_bits.cache_clear()
    encoded_length.cache_clear()


def encode_state(state: Hashable) -> str:
    """``<q>``."""
    return encode_bits(state)


def encode_action(action: Hashable) -> str:
    """``<a>``."""
    return encode_bits(action)


def encode_transition(state: Hashable, action: Hashable, eta: DiscreteMeasure) -> str:
    """``<tr>`` for ``tr = (q, a, eta)``: framed source, action and the
    support with weights in canonical order."""
    parts = [encode_state(state), encode_action(action)]
    for target in sorted(eta.support(), key=_canonical_repr):
        parts.append(encode_state(target))
        parts.append(encode_bits(eta(target)))
    return SEPARATOR.join(parts)


def transition_length(state: Hashable, action: Hashable, eta: DiscreteMeasure) -> int:
    """``|<tr>|`` computed without building the string."""
    total = encoded_length(state) + encoded_length(action)
    count = 2
    for target in eta.support():
        total += encoded_length(target) + encoded_length(eta(target))
        count += 2
    return total + len(SEPARATOR) * (count - 1)


def encode_configuration(configuration) -> str:
    """``<C>`` for a configuration: framed (automaton id, state) pairs in
    canonical order."""
    parts = []
    for automaton, state in configuration.items():
        parts.append(encode_bits(automaton.name))
        parts.append(encode_state(state))
    return SEPARATOR.join(parts)


def configuration_length(configuration) -> int:
    total = 0
    count = 0
    for automaton, state in configuration.items():
        total += encoded_length(automaton.name) + encoded_length(state)
        count += 2
    return total + len(SEPARATOR) * max(0, count - 1)


def encode_pair(first: str, second: str) -> Tuple[str, int]:
    """Frame two encodings with the separator; returns (encoding, length).

    This is the composition encoding of Lemma B.1: the bit-stuffed halves
    are concatenated with the reserved ``11`` marker, giving length
    ``|x| + |y| + |SEPARATOR|`` — *linear* in the component lengths, which
    is what makes the composed bound ``c_comp * (b1 + b2)`` achievable.
    """
    joined = first + SEPARATOR + second
    return joined, len(joined)
