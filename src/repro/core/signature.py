"""Signatures and their algebra (paper Definitions 2.3, 2.4 and 2.6).

A *signature* is a triplet of mutually disjoint countable action sets
``(in, out, int)``.  This module realizes per-state signatures as frozen
triples of frozensets together with:

* :func:`signatures_compatible` — Definition 2.3,
* :func:`compose_signatures` — Definition 2.4,
* :func:`hide_signature` — Definition 2.6.

Actions are arbitrary hashable Python objects; the library conventionally
uses strings or tuples ``(verb, *payload)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Hashable, Iterable, Sequence

__all__ = [
    "Action",
    "Signature",
    "EMPTY_SIGNATURE",
    "signatures_compatible",
    "compose_signatures",
    "hide_signature",
    "fresh_action",
]

Action = Hashable


def fresh_action(base: Action, tag: str = "fresh") -> Action:
    """A structurally fresh action name derived from ``base``.

    Used by the dummy-adversary renaming ``g`` (Section 4.9), which maps the
    adversary actions of an automaton to a disjoint set of fresh names.  The
    result wraps the original action so freshness is guaranteed as long as
    the system does not already use the wrapper tag.
    """
    return (tag, base)


@dataclass(frozen=True)
class Signature:
    """A state signature ``sig(A)(q) = (in, out, int)`` (Definition 2.1).

    The three components must be mutually disjoint (checked at
    construction).  ``external`` is ``in | out`` and ``all_actions`` is the
    paper's ``sig-hat`` (the union of the three components).
    """

    inputs: FrozenSet[Action] = field(default_factory=frozenset)
    outputs: FrozenSet[Action] = field(default_factory=frozenset)
    internals: FrozenSet[Action] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", frozenset(self.outputs))
        object.__setattr__(self, "internals", frozenset(self.internals))
        if self.inputs & self.outputs:
            raise ValueError(f"inputs and outputs overlap: {self.inputs & self.outputs!r}")
        if self.inputs & self.internals:
            raise ValueError(f"inputs and internals overlap: {self.inputs & self.internals!r}")
        if self.outputs & self.internals:
            raise ValueError(f"outputs and internals overlap: {self.outputs & self.internals!r}")

    @property
    def external(self) -> FrozenSet[Action]:
        """External actions ``ext = in | out``."""
        return self.inputs | self.outputs

    @property
    def all_actions(self) -> FrozenSet[Action]:
        """The paper's ``sig-hat``: every action of the signature.

        Built on first access and kept in the instance dict, which equality,
        hashing and ``repr`` never read (they use the three components)."""
        memo = self.__dict__.get("_all_actions")
        if memo is None:
            memo = self.inputs | self.outputs | self.internals
            object.__setattr__(self, "_all_actions", memo)
        return memo

    def __getstate__(self):
        # Pickles carry the three components only: a shipped automaton's
        # bytes never depend on which signatures were asked for sig-hat.
        return {k: v for k, v in self.__dict__.items() if k != "_all_actions"}

    @property
    def is_empty(self) -> bool:
        """Empty signature — the 'destroyed automaton' sentinel (Def 2.12)."""
        return not (self.inputs or self.outputs or self.internals)

    def locally_controlled(self) -> FrozenSet[Action]:
        """Actions the automaton itself may initiate (outputs and internals)."""
        return self.outputs | self.internals

    def renamed(self, mapping) -> "Signature":
        """Apply an injective action mapping componentwise (Definition 2.8)."""
        return Signature(
            inputs=frozenset(mapping(a) for a in self.inputs),
            outputs=frozenset(mapping(a) for a in self.outputs),
            internals=frozenset(mapping(a) for a in self.internals),
        )

    def __repr__(self) -> str:
        def fmt(s: FrozenSet[Action]) -> str:
            return "{" + ", ".join(sorted(map(repr, s))) + "}"

        return f"Signature(in={fmt(self.inputs)}, out={fmt(self.outputs)}, int={fmt(self.internals)})"


#: The empty signature; an automaton whose current signature is empty is
#: removed by configuration reduction (Definition 2.12).
EMPTY_SIGNATURE = Signature()


def signatures_compatible(signatures: Sequence[Signature]) -> bool:
    """Definition 2.3: pairwise, (1) nothing meets the other's internals and
    (2) output sets are disjoint."""
    for i, sig in enumerate(signatures):
        for other in signatures[i + 1 :]:
            if sig.all_actions & other.internals:
                return False
            if other.all_actions & sig.internals:
                return False
            if sig.outputs & other.outputs:
                return False
    return True


def incompatibility_reason(signatures: Sequence[Signature]) -> str | None:
    """Human-readable witness of why a signature set is incompatible."""
    for i, sig in enumerate(signatures):
        for j, other in enumerate(signatures[i + 1 :], start=i + 1):
            clash = sig.all_actions & other.internals
            if clash:
                return f"actions {sorted(map(repr, clash))} of #{i} meet internals of #{j}"
            clash = other.all_actions & sig.internals
            if clash:
                return f"actions {sorted(map(repr, clash))} of #{j} meet internals of #{i}"
            clash = sig.outputs & other.outputs
            if clash:
                return f"shared outputs {sorted(map(repr, clash))} between #{i} and #{j}"
    return None


def compose_signatures(signatures: Iterable[Signature]) -> Signature:
    """Definition 2.4: ``in = (U in_i) - (U out_i)``, ``out = U out_i``,
    ``int = U int_i``.  Callers must have checked compatibility."""
    inputs: FrozenSet[Action] = frozenset()
    outputs: FrozenSet[Action] = frozenset()
    internals: FrozenSet[Action] = frozenset()
    for sig in signatures:
        inputs |= sig.inputs
        outputs |= sig.outputs
        internals |= sig.internals
    return Signature(inputs=inputs - outputs, outputs=outputs, internals=internals)


def hide_signature(sig: Signature, actions: Iterable[Action]) -> Signature:
    """Definition 2.6: ``hide(sig, S) = (in, out \\ S, int | (out & S))``."""
    hidden = frozenset(actions) & sig.outputs
    return Signature(
        inputs=sig.inputs,
        outputs=sig.outputs - hidden,
        internals=sig.internals | hidden,
    )
