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

from typing import NamedTuple

from ..agents.automaton import LineAutomaton
from ..agents.observations import NULL_PORT, STAY

__all__ = ["InfiniteLineRun", "LeaveEvent", "simulate_infinite_line"]


class LeaveEvent(NamedTuple):
    """The agent left ``position`` at (1-based) round ``round_index`` while
    in state ``state`` (the state that emitted the move)."""

    round_index: int
    position: int
    state: int
    direction: int  # +1 or -1


class InfiniteLineRun(NamedTuple):
    """Round-by-round record of an infinite-line execution from position 0."""

    positions: list[int]  # positions[t] = position after round t (t >= 1); [0] = 0
    states: list[int]  # states[t] = state whose action was executed in round t
    leave_events: list[LeaveEvent]

    @property
    def rounds(self) -> int:
        return len(self.positions) - 1

    def span(self, upto: int) -> tuple[int, int]:
        """(min, max) position over rounds 0..upto."""
        window = self.positions[: upto + 1]
        return min(window), max(window)

    def max_distance(self) -> int:
        return max(abs(p) for p in self.positions)


def _edge_color(p: int, q: int) -> int:
    """Port number (at both ends) of the edge between p and q = p±1."""
    return min(p, q) % 2


def simulate_infinite_line(automaton: LineAutomaton, rounds: int) -> InfiniteLineRun:
    """Run ``automaton`` from position 0 of the infinite colored line.

    The agent always observes degree 2.  The very first action comes from
    the initial state (paper §2.1); each subsequent round transitions on
    ``(in_port, 2)`` where ``in_port`` is the traversed edge's color, or
    ``(-1, 2)`` after a null move.
    """
    agent = automaton.clone()
    pos = 0
    positions = [0]
    states: list[int] = [agent.initial_state]  # states[0] unused placeholder
    leave_events: list[LeaveEvent] = []
    action = agent.start(2)
    in_port = NULL_PORT
    for rnd in range(1, rounds + 1):
        state_now = agent.state
        if action == STAY:
            in_port = NULL_PORT
        else:
            port = action % 2
            # Taking "port c" from pos means crossing its incident edge of
            # color c: the left edge has color (pos-1) mod 2, the right one
            # pos mod 2 — exactly one matches c.
            if pos % 2 == port:
                nxt = pos + 1
            else:
                nxt = pos - 1
            leave_events.append(LeaveEvent(rnd, pos, state_now, nxt - pos))
            in_port = _edge_color(pos, nxt)
            pos = nxt
        positions.append(pos)
        states.append(state_now)
        action = agent.step(in_port, 2)
    return InfiniteLineRun(positions, states, leave_events)
