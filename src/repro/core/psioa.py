"""Probabilistic signature input/output automata (paper Definition 2.1).

A PSIOA ``A = (Q_A, qbar_A, sig(A), D_A)`` has a countable state set, a
unique start state, a per-state signature and a set of probabilistic
discrete transitions satisfying:

* *transition determinism*: for each state ``q`` and action
  ``a in sig-hat(A)(q)`` there is exactly one ``eta`` with
  ``(q, a, eta) in D_A``;
* *action enabling*: every action of the current signature is enabled.

The library represents automata *intensionally*: ``signature(q)`` and
``transition(q, a)`` are functions, so automata with countably infinite
state spaces compose and run without materialization.  Finite automata can
be given extensionally via :class:`TablePSIOA`, and any finite-reachable
automaton can be validated against the definitional constraints with
:func:`validate_psioa`.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.signature import Action, Signature
from repro.perf import cache as _perf_cache
from repro.probability.measures import DiscreteMeasure

__all__ = ["PSIOA", "TablePSIOA", "validate_psioa", "reachable_states", "PsioaError"]

State = Hashable
AutomatonId = Hashable


class PsioaError(ValueError):
    """Raised when an automaton violates the PSIOA constraints."""


class PSIOA:
    """A probabilistic signature I/O automaton (Definition 2.1).

    Parameters
    ----------
    name:
        The automaton identifier (an element of the paper's ``Autids``).
        Identifiers are the unit of identity: configurations and composition
        address automata by name, and two automata participating in the same
        system must have distinct names.
    start:
        The unique start state ``qbar_A``.
    signature:
        Function mapping each state to its :class:`Signature`.
    transition:
        Function mapping ``(q, a)`` with ``a in sig-hat(A)(q)`` to the unique
        target measure ``eta_(A, q, a) in Disc(Q_A)``.  Must raise ``KeyError``
        for actions outside the current signature.
    """

    __slots__ = ("name", "start", "_signature", "_transition", "_tmemo")

    def __init__(
        self,
        name: AutomatonId,
        start: State,
        signature: Callable[[State], Signature],
        transition: Callable[[State, Action], DiscreteMeasure],
    ) -> None:
        self.name = name
        self.start = start
        self._signature = signature
        self._transition = transition
        #: ``(q, a) -> eta``, filled by :meth:`transition` (see repro.perf.cache).
        self._tmemo: Dict[Tuple[State, Action], DiscreteMeasure] = {}

    # -- definitional accessors ------------------------------------------------

    def signature(self, state: State) -> Signature:
        """``sig(A)(q)``."""
        return self._signature(state)

    def transition(self, state: State, action: Action) -> DiscreteMeasure:
        """``eta_(A, q, a)`` — the unique transition measure (Definition 2.1).

        Transition determinism makes this a pure function of ``(q, a)``, so
        with the cache switch on each answer is memoized in this automaton's
        own ``_tmemo`` (see :mod:`repro.perf.cache`); with it off the
        transition function is called every time.
        """
        if _perf_cache.cache_enabled():
            return _perf_cache.cached_transition(self, state, action)
        return self._transition(state, action)

    def enabled(self, state: State) -> frozenset:
        """``sig-hat(A)(q)``: all currently executable actions.

        By the action-enabling assumption (footnote 4), membership in the
        current signature and enabledness coincide.
        """
        return self.signature(state).all_actions

    def try_transition(self, state: State, action: Action) -> Optional[DiscreteMeasure]:
        """``transition`` or ``None`` when the action is not currently enabled."""
        if action not in self.enabled(state):
            return None
        return self.transition(state, action)

    def steps_from(self, state: State, action: Action) -> Set[Tuple[State, Action, State]]:
        """The elements of ``steps(A)`` leaving ``state`` via ``action``."""
        eta = self.try_transition(state, action)
        if eta is None:
            return set()
        return {(state, action, target) for target in eta.support()}

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """Every attribute but the memo: an unpickled automaton starts cold."""
        state = dict(getattr(self, "__dict__", {}))
        for cls in type(self).__mro__:
            for slot in cls.__dict__.get("__slots__", ()):
                if slot != "_tmemo" and hasattr(self, slot):
                    state[slot] = getattr(self, slot)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        self._tmemo = {}

    # -- identity ----------------------------------------------------------------

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PSIOA):
            return NotImplemented
        return self.name == other.name

    def __repr__(self) -> str:
        return f"<PSIOA {self.name!r}>"


class TablePSIOA(PSIOA):
    """A finite PSIOA given extensionally by explicit tables.

    Parameters
    ----------
    name, start:
        As for :class:`PSIOA`.
    signatures:
        Mapping from state to :class:`Signature`.  Every state of the
        automaton must appear (this is the full ``Q_A``).
    transitions:
        Mapping ``(q, a) -> DiscreteMeasure`` covering exactly the pairs
        with ``a in sig-hat(A)(q)``; coverage is validated eagerly.
    """

    __slots__ = ("signatures", "transitions")

    def __init__(
        self,
        name: AutomatonId,
        start: State,
        signatures: Mapping[State, Signature],
        transitions: Mapping[Tuple[State, Action], DiscreteMeasure],
    ) -> None:
        self.signatures: Dict[State, Signature] = dict(signatures)
        self.transitions: Dict[Tuple[State, Action], DiscreteMeasure] = dict(transitions)
        if start not in self.signatures:
            raise PsioaError(f"start state {start!r} missing from the signature table")
        super().__init__(name, start, self._table_signature, self._table_transition)

    def _table_signature(self, state: State) -> Signature:
        try:
            return self.signatures[state]
        except KeyError:
            raise PsioaError(f"state {state!r} not in automaton {self.name!r}") from None

    def _table_transition(self, state: State, action: Action) -> DiscreteMeasure:
        try:
            return self.transitions[(state, action)]
        except KeyError:
            raise PsioaError(
                f"no transition from state {state!r} via action {action!r} in {self.name!r}"
            ) from None

    @property
    def states(self) -> frozenset:
        """The explicit state set ``Q_A``."""
        return frozenset(self.signatures)

    def acts(self) -> frozenset:
        """``acts(A)``: the universal set of actions the automaton may trigger."""
        out: Set[Action] = set()
        for sig in self.signatures.values():
            out |= sig.all_actions
        return frozenset(out)


def reachable_states(
    automaton: PSIOA,
    *,
    max_states: int = 100_000,
) -> List[State]:
    """Breadth-first enumeration of ``reachable(A)`` (Definition 2.2).

    Works for any PSIOA whose reachable fragment is finite; raises
    ``PsioaError`` past ``max_states`` to guard against accidental
    exploration of infinite-state automata.
    """
    seen: Set[State] = {automaton.start}
    order: List[State] = [automaton.start]
    frontier: List[State] = [automaton.start]
    while frontier:
        next_frontier: List[State] = []
        for state in frontier:
            for action in sorted(automaton.enabled(state), key=repr):
                eta = automaton.transition(state, action)
                for target in sorted(eta.support(), key=repr):
                    if target not in seen:
                        seen.add(target)
                        order.append(target)
                        next_frontier.append(target)
                        if len(seen) > max_states:
                            raise PsioaError(
                                f"reachable-state exploration of {automaton.name!r} exceeded "
                                f"{max_states} states"
                            )
        frontier = next_frontier
    return order


def validate_psioa(
    automaton: PSIOA,
    *,
    states: Optional[Iterable[State]] = None,
    max_states: int = 100_000,
) -> None:
    """Check the PSIOA constraints of Definition 2.1 over a finite state set.

    * signature components are mutually disjoint (checked by
      :class:`~repro.core.signature.Signature` on access),
    * for every ``q`` and every ``a in sig-hat(A)(q)`` there is exactly one
      transition measure, it is a probability measure, and its support lies
      in the state set,
    * no transition is offered for actions outside the signature (checked
      for :class:`TablePSIOA` tables).

    Raises :class:`PsioaError` with a witness on the first violation.
    """
    universe = list(states) if states is not None else reachable_states(automaton, max_states=max_states)
    universe_set = set(universe)
    for state in universe:
        sig = automaton.signature(state)  # validates disjointness on construction
        for action in sig.all_actions:
            try:
                eta = automaton.transition(state, action)
            except Exception as exc:  # noqa: BLE001 - reported as constraint failure
                raise PsioaError(
                    f"{automaton.name!r}: action {action!r} enabled at {state!r} but "
                    f"transition lookup failed: {exc}"
                ) from exc
            if not isinstance(eta, DiscreteMeasure):
                raise PsioaError(
                    f"{automaton.name!r}: transition ({state!r}, {action!r}) is not a "
                    f"DiscreteMeasure: {eta!r}"
                )
            if eta.total_mass != 1 and abs(float(eta.total_mass) - 1.0) > 1e-9:
                raise PsioaError(
                    f"{automaton.name!r}: transition ({state!r}, {action!r}) has mass "
                    f"{eta.total_mass!r} != 1"
                )
            stray = eta.support() - universe_set
            if states is not None and stray:
                raise PsioaError(
                    f"{automaton.name!r}: transition ({state!r}, {action!r}) targets states "
                    f"outside the declared set: {sorted(map(repr, stray))}"
                )
    if isinstance(automaton, TablePSIOA):
        for (state, action) in automaton.transitions:
            if state not in automaton.signatures:
                raise PsioaError(f"{automaton.name!r}: transition from unknown state {state!r}")
            if action not in automaton.signatures[state].all_actions:
                raise PsioaError(
                    f"{automaton.name!r}: transition offered for {action!r} at {state!r} "
                    f"although it is outside the signature"
                )
