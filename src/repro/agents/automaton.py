"""Explicit finite-state agents: the abstract state machine of §2.1.

An agent is ``A = (S, π, λ, s0)`` with ``π : S × Z² → S`` and
``λ : S → Z``.  Initially the agent is in state ``s0`` and acts according to
``λ(s0)``; upon each observation ``(i, d)`` it transitions to
``s' = π(s, (i, d))`` and acts according to ``λ(s')`` (``-1`` = null move,
else leave by port ``λ(s') mod d``).

Memory of a ``K``-state automaton is ``⌈log₂ K⌉`` bits (the paper's
measure).  The lower-bound machinery (Thms 3.1, 4.2, 4.3) consumes automata
in this explicit form; :class:`LineAutomaton` is the specialization used on
properly 2-edge-colored lines, where the observation reduces to the degree
(the entry port is implied by the coloring — §4.2).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping, Sequence
from typing import Optional

from ..errors import AgentProtocolError
from .observations import NULL_PORT, STAY

__all__ = ["Automaton", "LineAutomaton", "random_line_automaton"]


class Automaton:
    """A general finite-state agent.

    Parameters
    ----------
    num_states:
        ``K = |S|``; states are ``0 .. K-1``.
    transition:
        Either a mapping ``(state, in_port, degree) -> state`` (exhaustive or
        partial — missing entries keep the state, a convenient default), or a
        callable with that signature.
    output:
        ``λ``: sequence of length ``K``; ``output[s]`` is ``-1`` (null move)
        or a non-negative integer (exit port before the ``mod d``).
    initial_state:
        ``s0``.
    """

    def __init__(
        self,
        num_states: int,
        transition: Mapping[tuple[int, int, int], int] | Callable[[int, int, int], int],
        output: Sequence[int],
        initial_state: int = 0,
    ) -> None:
        if num_states < 1:
            raise AgentProtocolError("an automaton needs at least one state")
        if len(output) != num_states:
            raise AgentProtocolError("output table must cover every state")
        if not (0 <= initial_state < num_states):
            raise AgentProtocolError("initial state out of range")
        self.num_states = num_states
        self.output = tuple(int(a) for a in output)
        self.initial_state = initial_state
        if callable(transition):
            self._fn: Optional[Callable[[int, int, int], int]] = transition
            self._table: Optional[dict[tuple[int, int, int], int]] = None
        else:
            self._fn = None
            self._table = dict(transition)
            for (s, _i, _d), s2 in self._table.items():
                if not (0 <= s < num_states and 0 <= s2 < num_states):
                    raise AgentProtocolError("transition table references bad states")
        self.state = initial_state

    # -- AgentBase protocol -------------------------------------------------
    def start(self, degree: int) -> int:
        self.state = self.initial_state
        return self.output[self.state]

    def step(self, in_port: int, degree: int) -> int:
        self.state = self.transition(self.state, in_port, degree)
        return self.output[self.state]

    def clone(self) -> "Automaton":
        fresh = Automaton.__new__(Automaton)
        fresh.num_states = self.num_states
        fresh.output = self.output
        fresh.initial_state = self.initial_state
        fresh._fn = self._fn
        fresh._table = self._table
        fresh.state = self.initial_state
        return fresh

    # -- introspection ------------------------------------------------------
    def transition(self, state: int, in_port: int, degree: int) -> int:
        if self._fn is not None:
            nxt = self._fn(state, in_port, degree)
        else:
            assert self._table is not None
            nxt = self._table.get((state, in_port, degree), state)
        if not (0 <= nxt < self.num_states):
            raise AgentProtocolError(f"transition produced bad state {nxt}")
        return nxt

    @property
    def memory_bits(self) -> int:
        """⌈log₂ K⌉ — the paper's memory measure for automata."""
        return max(1, (self.num_states - 1).bit_length())

    def __repr__(self) -> str:
        return f"Automaton(K={self.num_states}, bits={self.memory_bits})"


class LineAutomaton(Automaton):
    """An automaton specialized to properly 2-edge-colored lines (§4.2).

    On such lines, the port by which an agent enters a node equals the port
    by which it left the previous one (both ends of an edge carry the same
    number), so the paper reduces the transition function to
    ``π : S × {1, 2} → S`` over the degree only.  ``degree_transition[s]``
    is the pair ``(π(s, 1), π(s, 2))``.

    ``pi_prime`` (the degree-2 restriction, whose functional digraph drives
    the Thm 4.2 construction) is exposed directly.
    """

    def __init__(
        self,
        degree_transition: Sequence[tuple[int, int]],
        output: Sequence[int],
        initial_state: int = 0,
    ) -> None:
        num_states = len(degree_transition)
        self._deg_table = tuple((int(a), int(b)) for a, b in degree_transition)
        for a, b in self._deg_table:
            if not (0 <= a < num_states and 0 <= b < num_states):
                raise AgentProtocolError("degree transition references bad states")

        def fn(state: int, in_port: int, degree: int) -> int:
            if degree == 1:
                return self._deg_table[state][0]
            if degree == 2:
                return self._deg_table[state][1]
            raise AgentProtocolError(
                "LineAutomaton observed a node of degree > 2; it is only "
                "defined on lines"
            )

        super().__init__(num_states, fn, output, initial_state)

    def clone(self) -> "LineAutomaton":
        fresh = LineAutomaton(self._deg_table, self.output, self.initial_state)
        return fresh

    def __reduce__(self):
        # The transition closure defined in __init__ is not picklable, but
        # the automaton is fully determined by its constructor arguments —
        # required for jobs to cross into the process pool in
        # repro.sim.supervise (and for its pickle-based job fingerprints).
        # The runtime state rides along so a pickled mid-run agent
        # round-trips exactly.
        return (
            LineAutomaton,
            (self._deg_table, self.output, self.initial_state),
            {"state": self.state},
        )

    def pi_prime(self) -> tuple[int, ...]:
        """The degree-2 transition function π' as a functional table."""
        return tuple(b for _a, b in self._deg_table)

    def pi_leaf(self) -> tuple[int, ...]:
        """The degree-1 transition function (behavior at line endpoints)."""
        return tuple(a for a, _b in self._deg_table)


def random_line_automaton(
    num_states: int, rng: Optional[random.Random] = None, stay_prob: float = 0.15
) -> LineAutomaton:
    """A random line automaton — a generic 'victim' for the lower bounds.

    Outputs are ports 0/1 or occasionally ``STAY``; transitions are uniform.
    Useful to populate the memory-vs-defeating-instance curves with agents
    that have no special structure.
    """
    rng = rng or random.Random()  # repro-lint: disable=RPR003 -- documented convenience default: callers needing reproducibility pass a seeded Random; every solver/scenario path does
    table = [
        (rng.randrange(num_states), rng.randrange(num_states)) for _ in range(num_states)
    ]
    output = [
        STAY if rng.random() < stay_prob else rng.randrange(2) for _ in range(num_states)
    ]
    return LineAutomaton(table, output)


# Re-export for convenience in type signatures of the lower-bound modules.
NULL_PORT = NULL_PORT
