"""Tests for the infinite-line simulation layer."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import (
    NULL_PORT,
    STAY,
    Automaton,
    LineAutomaton,
    alternator,
    pausing_walker,
    random_line_automaton,
)
from repro.lowerbounds import LeaveEvent, simulate_infinite_line


class TestSimulateInfiniteLine:
    def test_alternator_drifts(self):
        run = simulate_infinite_line(alternator(), 40)
        assert run.rounds == 40
        # it alternates colors, so it keeps a consistent direction
        assert abs(run.positions[-1]) == 40

    def test_stayer_never_moves(self):
        stayer = LineAutomaton([(0, 0)], [STAY])
        run = simulate_infinite_line(stayer, 25)
        assert run.positions == [0] * 26
        assert run.leave_events == []
        assert run.max_distance() == 0

    def test_pausing_walker_mixes_idle_and_moves(self):
        run = simulate_infinite_line(pausing_walker(2), 30)
        moves = len(run.leave_events)
        assert 0 < moves < 30
        # one move per (pause+1) rounds
        assert moves == 30 // 3

    def test_leave_events_consistent_with_positions(self):
        run = simulate_infinite_line(alternator(), 50)
        for ev in run.leave_events:
            assert run.positions[ev.round_index - 1] == ev.position
            assert run.positions[ev.round_index] == ev.position + ev.direction

    def test_color_semantics(self):
        """Port c from position p crosses the incident edge of color c."""
        # An agent that always outputs port 0: from position 0 the right
        # edge {0,1} has color 0, so the first move goes right; from 1 the
        # edge of color 0 is the one back to 0 — it oscillates.
        always0 = LineAutomaton([(0, 0)], [0])
        run = simulate_infinite_line(always0, 10)
        assert run.positions[:5] == [0, 1, 0, 1, 0]

    def test_span(self):
        run = simulate_infinite_line(alternator(), 12)
        lo, hi = run.span(5)
        assert (lo, hi) in {(-5, 0), (0, 5)}


# -- the degree-2 table loop against the per-round loop ------------------------


def per_round_line(automaton, rounds):
    """The oracle: step a clone of the automaton round by round, with the
    entry port recomputed from the crossed edge's color."""
    agent = automaton.clone()
    pos = 0
    positions = [0]
    states = [agent.initial_state]
    leave_events = []
    action = agent.start(2)
    in_port = NULL_PORT
    for rnd in range(1, rounds + 1):
        state_now = agent.state
        if action == STAY:
            in_port = NULL_PORT
        else:
            nxt = pos + 1 if pos % 2 == action % 2 else pos - 1
            leave_events.append(LeaveEvent(rnd, pos, state_now, nxt - pos))
            in_port = min(pos, nxt) % 2
            pos = nxt
        positions.append(pos)
        states.append(state_now)
        action = agent.step(in_port, 2)
    return positions, states, leave_events


@st.composite
def line_automata(draw):
    """A random line automaton, or a general automaton whose degree-2
    transitions read the entry port and whose outputs reach past 1."""
    k = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2**20)))
    if draw(st.booleans()):
        return random_line_automaton(k, rng, stay_prob=draw(st.sampled_from([0, 0.15, 0.5])))
    table = {
        (s, ip, 2): rng.randrange(k) for s in range(k) for ip in (NULL_PORT, 0, 1)
    }
    output = [rng.choice([STAY, 0, 1, 2, 5]) for _ in range(k)]
    return Automaton(k, table, output, rng.randrange(k))


@settings(max_examples=200, deadline=None)
@given(line_automata(), st.integers(0, 400))
def test_table_loop_matches_per_round_loop(automaton, rounds):
    run = simulate_infinite_line(automaton, rounds)
    assert (run.positions, run.states, run.leave_events) == per_round_line(
        automaton, rounds
    )
