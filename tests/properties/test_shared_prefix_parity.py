"""Property tests: the gathering solvers' shared solo prefixes.

Without faults both exact gathering tiers step one solo run per agent
slot and read every delay vector's staggered prefix off it
(:mod:`repro.sim.gathering_solver`, :mod:`repro.sim.kernel`).  On random
k = 2..4 grids with delays up to 40 they must agree with certified
per-vector reference runs, verdict for verdict, including:

- start sets that repeat a node (two agents asleep on one node, or an
  agent that wakes on a node another still sleeps on);
- vectors whose agents gather while one agent still sleeps;
- automata whose transition raises on some inputs: the error surfaces on
  exactly the grids where some vector's own run executes a raising
  transition (the dict tier raises the automaton's error, the kernel
  :class:`~repro.sim.kernel.KernelUnsupported`), and never because a
  shared solo run was stepped further than a vector needed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import Automaton
from repro.sim import run_gathering_reference, solve_gathering, solve_gathering_kernel
from repro.sim.kernel import KernelUnsupported
from repro.trees import edge_colored_line, random_relabel, random_tree


class Blocked(Exception):
    """Raised by the test automata on their forbidden inputs."""


@st.composite
def grids(draw, raising=False):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(2, 7 if k < 4 else 5))
    rng = random.Random(draw(st.integers(0, 2**20)))
    tree = random_relabel(random_tree(n, rng), rng)
    num_states = draw(st.integers(1, 2))
    dmax = tree.max_degree()
    inputs = [
        (s, ip, d)
        for s in range(num_states)
        for ip in range(-1, dmax)
        for d in range(1, dmax + 1)
    ]
    table = {key: draw(st.integers(0, num_states - 1)) for key in inputs}
    output = [draw(st.integers(-1, 2)) for _ in range(num_states)]
    initial = draw(st.integers(0, num_states - 1))
    if raising:
        blocked = {key for key in inputs if draw(st.integers(0, 5)) == 0}

        def transition(s, ip, d):
            if (s, ip, d) in blocked:
                raise Blocked((s, ip, d))
            return table[s, ip, d]

        agent = Automaton(num_states, transition, output, initial)
    else:
        agent = Automaton(num_states, table, output, initial)
    # k starts on at most 7 nodes: start sets often repeat a node.
    starts = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    vector = st.lists(st.integers(0, 40), min_size=k, max_size=k)
    vectors = draw(st.lists(vector, min_size=1, max_size=6))
    # One agent asleep through a long prefix: the others may gather on
    # its start node before it wakes.
    late = draw(st.integers(0, k - 1))
    vectors.append([40 if i == late else 0 for i in range(k)])
    return tree, agent, starts, vectors


def reference_verdicts(tree, agent, starts, vectors):
    k = len(starts)
    period = (tree.n * agent.num_states * (tree.max_degree() + 1)) ** k
    out = []
    for delays in vectors:
        ref = run_gathering_reference(
            tree, agent, starts, delays=delays,
            max_rounds=4 * period + max(delays) + 8, certify=True,
        )
        assert ref.gathered or ref.certified_never
        out.append((tuple(delays), ref.gathered, ref.gathering_round,
                    ref.certified_never))
    return out


def as_tuples(verdicts):
    return [
        (v.delays, v.gathered, v.gathering_round, v.certified_never)
        for v in verdicts
    ]


@settings(max_examples=60, deadline=None)
@given(grids())
def test_dict_and_kernel_match_the_reference(grid):
    tree, agent, starts, vectors = grid
    expected = reference_verdicts(tree, agent, starts, vectors)
    assert as_tuples(solve_gathering(tree, agent, starts, vectors)) == expected
    assert as_tuples(solve_gathering_kernel(tree, agent, starts, vectors)) == expected


@settings(max_examples=60, deadline=None)
@given(grids(raising=True))
def test_raising_transitions_surface_on_the_reference_grids(grid):
    tree, agent, starts, vectors = grid
    try:
        expected = reference_verdicts(tree, agent, starts, vectors)
    except Blocked:
        expected = None
    if expected is None:
        with pytest.raises(Blocked):
            solve_gathering(tree, agent, starts, vectors)
        with pytest.raises(KernelUnsupported):
            solve_gathering_kernel(tree, agent, starts, vectors)
    else:
        assert as_tuples(solve_gathering(tree, agent, starts, vectors)) == expected
        assert as_tuples(solve_gathering_kernel(tree, agent, starts, vectors)) == expected


def _walker_that_raises_after(steps):
    """Always leaves by port 0; its transition raises from state
    ``steps - 1`` on, i.e. on its ``steps + 1``-th active round."""
    def transition(s, ip, d):
        if s + 1 >= steps:
            raise Blocked(s)
        return s + 1

    return Automaton(steps, transition, [0] * steps)


@pytest.mark.parametrize("solve", [solve_gathering, solve_gathering_kernel])
def test_gathering_while_an_agent_sleeps_steps_no_further(solve):
    # Agent 0 walks from node 0 onto node 1 in its first round, where
    # agents 1 and 2 still sleep: every vector gathers at round 1.  The
    # walker raises on its fourth round, which no vector reaches, however
    # long the other agents sleep.
    tree = edge_colored_line(4)
    agent = _walker_that_raises_after(3)
    vectors = [(0, 1, 1), (0, 30, 12), (0, 40, 40)]
    got = solve(tree, agent, (0, 1, 1), vectors)
    assert [(v.gathered, v.gathering_round) for v in got] == [(True, 1)] * 3


def test_a_vector_that_reads_the_raising_round_raises():
    # Agent 1 sleeps on node 0 for 9 rounds while agent 0 walks from
    # node 5: it cannot get there before its fourth round, which raises.
    tree = edge_colored_line(6)
    agent = _walker_that_raises_after(3)
    with pytest.raises(Blocked):
        run_gathering_reference(tree, agent, (5, 0), delays=(0, 9), certify=True)
    with pytest.raises(Blocked):
        solve_gathering(tree, agent, (5, 0), [(0, 9)])
    with pytest.raises(KernelUnsupported):
        solve_gathering_kernel(tree, agent, (5, 0), [(0, 9)])
