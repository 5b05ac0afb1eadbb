"""Configurations of dynamic systems (paper Definitions 2.9–2.12).

A configuration ``C = (A, S)`` is a finite set of PSIOA identifiers ``A``
together with a map ``S`` assigning each member its current state.  Unlike
the classical distributed-computing notion, the *set of automata itself*
evolves over time: automata are created by intrinsic transitions and
destroyed by reaching a state with the empty signature (Definition 2.12).

Configurations here are immutable value objects: equality and hashing are
by ``{(automaton id, state)}``, which makes them directly usable as the
states of a :class:`~repro.config.pca.CanonicalPCA`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Mapping, Optional, Tuple

from repro.core.psioa import PSIOA, PsioaError
from repro.core.signature import (
    Signature,
    compose_signatures,
    incompatibility_reason,
    signatures_compatible,
)

__all__ = ["Configuration"]

State = Hashable
AutomatonId = Hashable


class Configuration:
    """A configuration ``(A, S)`` (Definition 2.9).

    Parameters
    ----------
    members:
        Mapping (or iterable of pairs) from :class:`~repro.core.psioa.PSIOA`
        objects to their current states.  Identifiers must be unique.

    The intrinsic attributes of Definition 2.11 are exposed as
    :meth:`auts`, :meth:`state_of` (the map ``S``) and :meth:`signature`.
    """

    __slots__ = ("_automata", "_states", "_key", "_sig_cache", "_repr")

    def __init__(self, members: Mapping[PSIOA, State] | Iterable[Tuple[PSIOA, State]]) -> None:
        pairs = members.items() if isinstance(members, Mapping) else members
        automata: Dict[AutomatonId, PSIOA] = {}
        states: Dict[AutomatonId, State] = {}
        for automaton, state in pairs:
            if automaton.name in automata:
                raise PsioaError(f"duplicate automaton id {automaton.name!r} in configuration")
            automata[automaton.name] = automaton
            states[automaton.name] = state
        self._automata = automata
        self._states = states
        self._key = frozenset((name, state) for name, state in states.items())
        self._sig_cache: Optional[Signature] = None
        self._repr: Optional[str] = None

    # -- intrinsic attributes (Definition 2.11) ---------------------------------

    def auts(self) -> Tuple[PSIOA, ...]:
        """``auts(C)``: the automata of the configuration, in id order."""
        return tuple(self._automata[name] for name in sorted(self._automata, key=repr))

    def ids(self) -> frozenset:
        return frozenset(self._automata)

    def state_of(self, automaton: PSIOA | AutomatonId) -> State:
        """``map(C)(A)``: the current state of a member automaton."""
        name = automaton.name if isinstance(automaton, PSIOA) else automaton
        return self._states[name]

    def automaton(self, name: AutomatonId) -> PSIOA:
        return self._automata[name]

    def items(self) -> Iterator[Tuple[PSIOA, State]]:
        for name in sorted(self._automata, key=repr):
            yield self._automata[name], self._states[name]

    def local_signatures(self) -> Tuple[Signature, ...]:
        return tuple(a.signature(s) for a, s in self.items())

    def is_compatible(self) -> bool:
        """Definition 2.10: the member signatures are pairwise compatible."""
        return signatures_compatible(self.local_signatures())

    def incompatibility_reason(self) -> str | None:
        return incompatibility_reason(self.local_signatures())

    def signature(self) -> Signature:
        """``sig(C)``: the intrinsic signature (Definition 2.11).

        ``out(C)`` / ``int(C)`` are unions of the member outputs/internals;
        ``in(C)`` is the union of member inputs minus ``out(C)`` — which is
        exactly signature composition (Definition 2.4) of the member
        signatures, applicable because the configuration is compatible.
        """
        if self._sig_cache is None:
            signatures = self.local_signatures()
            if not signatures_compatible(signatures):
                raise PsioaError(
                    f"configuration incompatible: {incompatibility_reason(signatures)}"
                )
            self._sig_cache = compose_signatures(signatures)
        return self._sig_cache

    # -- reduction (Definition 2.12) ----------------------------------------------

    def reduce(self) -> "Configuration":
        """``reduce(C)``: drop automata whose current signature is empty.

        Reaching the empty signature is the formal notion of *destruction*
        (Section 2.5 discussion after Definition 2.16).
        """
        return Configuration(
            [(a, s) for a, s in self.items() if not a.signature(s).is_empty]
        )

    def is_reduced(self) -> bool:
        return all(not a.signature(s).is_empty for a, s in self.items())

    # -- algebra --------------------------------------------------------------------

    def union(self, other: "Configuration") -> "Configuration":
        """``C1 (+) C2`` — disjoint union of configurations.

        Used by PCA composition (Definition 2.19):
        ``config(X)(q) = U_i config(X_i)(q |` X_i)``.  Requires disjoint
        automaton id sets.
        """
        overlap = self.ids() & other.ids()
        if overlap:
            raise PsioaError(f"configuration union with shared automata {sorted(map(repr, overlap))}")
        return Configuration(list(self.items()) + list(other.items()))

    def replace_states(self, new_states: Mapping[AutomatonId, State]) -> "Configuration":
        """A configuration with the same automata and updated states."""
        return Configuration(
            [(a, new_states.get(a.name, s)) for a, s in self.items()]
        )

    def with_members(self, extra: Iterable[Tuple[PSIOA, State]]) -> "Configuration":
        return Configuration(list(self.items()) + list(extra))

    def restrict(self, names: Iterable[AutomatonId]) -> "Configuration":
        """``S |` A`` — restriction to a subset of the automata."""
        keep = set(names)
        return Configuration([(a, s) for a, s in self.items() if a.name in keep])

    # -- value semantics --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._automata)

    def __contains__(self, automaton: PSIOA | AutomatonId) -> bool:
        name = automaton.name if isinstance(automaton, PSIOA) else automaton
        return name in self._automata

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        # Memoized: configurations are immutable, and reachable_states sorts
        # every PCA support by ``repr``, so each one is asked many times.
        if self._repr is None:
            body = ", ".join(f"{a.name!r}@{s!r}" for a, s in self.items())
            self._repr = f"Configuration({body})"
        return self._repr

    @staticmethod
    def empty() -> "Configuration":
        return Configuration([])

    @staticmethod
    def initial(automata: Iterable[PSIOA]) -> "Configuration":
        """The configuration placing every automaton at its start state."""
        return Configuration([(a, a.start) for a in automata])
