"""Simulation of a line automaton on the (virtual) infinite 2-edge-colored line.

Both lower-bound constructions (Thm 3.1, Thm 4.2) begin by watching the
agent walk on an infinite line whose every edge carries the same port number
at both extremities (a proper 2-edge-coloring).  Positions are integers;
the edge between ``p`` and ``p+1`` has color ``p mod 2``, so an agent
crossing it enters by that port on either side.

The walk record keeps, per round: position, the state *after* the round's
transition (the state whose λ produced the round's action), and whether the
agent moved.  Leave-events (the paper's "reaches node v in state s": ``s``
is the state in which the agent leaves ``v``) are derived from it.
"""

from __future__ import annotations

from ..agents.automaton import LineAutomaton
from ..agents.observations import NULL_PORT, STAY
from ..records import TupleRecord, tuple_new

__all__ = ["InfiniteLineRun", "LeaveEvent", "simulate_infinite_line"]


class LeaveEvent(TupleRecord):
    """The agent left ``position`` at (1-based) round ``round_index`` while
    in state ``state`` (the state that emitted the move)."""

    __slots__ = ()

    def __new__(
        cls,
        round_index: int,
        position: int,
        state: int,
        direction: int,  # +1 or -1
    ):
        return tuple_new(cls, (round_index, position, state, direction))


class InfiniteLineRun(TupleRecord):
    """Round-by-round record of an infinite-line execution from position 0."""

    __slots__ = ()

    def __new__(
        cls,
        positions: list[int],  # positions[t] = position after round t (t >= 1); [0] = 0
        states: list[int],  # states[t] = state whose action was executed in round t
        leave_events: list[LeaveEvent],
    ):
        return tuple_new(cls, (positions, states, leave_events))

    @property
    def rounds(self) -> int:
        return len(self.positions) - 1

    def span(self, upto: int) -> tuple[int, int]:
        """(min, max) position over rounds 0..upto."""
        window = self.positions[: upto + 1]
        return min(window), max(window)

    def max_distance(self) -> int:
        return max(abs(p) for p in self.positions)


def simulate_infinite_line(automaton: LineAutomaton, rounds: int) -> InfiniteLineRun:
    """Run ``automaton`` from position 0 of the infinite colored line.

    The agent always observes degree 2.  The very first action comes from
    the initial state (paper §2.1); each subsequent round transitions on
    ``(in_port, 2)`` where ``in_port`` is the traversed edge's color, or
    ``(-1, 2)`` after a null move.

    Both ends of an edge carry its color, so the entry port is the port
    just taken: the whole run reads one degree-2 table ``(state,
    in_port) -> state``, filled from ``transition(s, p, 2)`` the first
    time the run needs an entry.
    """
    output = automaton.output
    transition = automaton.transition
    table = [-1] * (3 * automaton.num_states)  # at 3 * state + in_port + 1
    state = automaton.initial_state
    action = output[state]
    pos = 0
    positions = [0]
    states: list[int] = [state]  # states[0] unused placeholder
    leave_events: list[LeaveEvent] = []
    for rnd in range(1, rounds + 1):
        if action == STAY:
            in_port = NULL_PORT
        else:
            # Taking "port c" from pos means crossing its incident edge of
            # color c: the left edge has color (pos-1) mod 2, the right one
            # pos mod 2 — exactly one matches c, and c is the entry port.
            in_port = action % 2
            nxt = pos + 1 if pos % 2 == in_port else pos - 1
            leave_events.append(LeaveEvent(rnd, pos, state, nxt - pos))
            pos = nxt
        positions.append(pos)
        states.append(state)
        idx = 3 * state + in_port + 1
        nxt_state = table[idx]
        if nxt_state < 0:
            nxt_state = table[idx] = transition(state, in_port, 2)
        state = nxt_state
        action = output[state]
    return InfiniteLineRun(positions, states, leave_events)
