"""Parity: the compiled gathering loop replays the reference loop exactly.

``run_gathering`` dispatches finite-state prototypes to flat transition
tables (satellite of the unified-scenario PR); the reference loop stays
the oracle and every outcome field must agree.
"""

import random

import pytest

from repro.agents import (
    Automaton,
    STAY,
    alternator,
    counting_walker,
    pausing_walker,
    random_tree_automaton,
)
from repro.sim import run_gathering, run_gathering_compiled, run_gathering_reference
from repro.trees import line, random_tree, spider, star


def assert_parity(tree, agent, starts, delays=None, max_rounds=4000):
    fast = run_gathering(
        tree, agent.clone(), starts, delays=delays, max_rounds=max_rounds
    )
    ref = run_gathering_reference(
        tree, agent.clone(), starts, delays=delays, max_rounds=max_rounds
    )
    assert fast == ref
    forced = run_gathering_compiled(
        tree, agent.clone(), starts, delays=delays, max_rounds=max_rounds
    )
    assert forced == ref


class TestGatheringParity:
    def test_line_walkers(self):
        for agent in (alternator(), counting_walker(2), pausing_walker(1)):
            assert_parity(line(9), agent, [0, 4, 8])

    def test_delays(self):
        assert_parity(line(7), counting_walker(1), [0, 3, 6], delays=[0, 2, 5])
        assert_parity(line(7), counting_walker(1), [1, 5], delays=[7, 0])

    def test_trivial_same_start(self):
        out = run_gathering(line(5), counting_walker(1), [2, 2, 2])
        assert out == run_gathering_reference(line(5), counting_walker(1), [2, 2, 2])
        assert out.gathered and out.gathering_round == 0

    def test_tree_automata_on_branching_trees(self):
        rng = random.Random(3)
        for trial in range(6):
            agent = random_tree_automaton(3, rng=rng)
            tree = random_tree(8, rng)
            starts = [0, tree.n // 2, tree.n - 1]
            delays = [rng.randrange(4) for _ in starts]
            assert_parity(tree, agent, starts, delays=delays, max_rounds=800)

    def test_spider_and_star(self):
        rng = random.Random(5)
        agent = random_tree_automaton(4, rng=rng)
        assert_parity(spider([2, 2, 2]), agent, [1, 3, 5], delays=[0, 1, 2])
        waiting = Automaton(1, {}, [STAY])
        assert_parity(star(3), waiting, [1, 2], max_rounds=50)

    def test_compiled_path_is_taken(self):
        # sanity: an Automaton prototype really goes through the tables
        from repro.sim import supports_compilation

        assert supports_compilation(counting_walker(1))

    def test_largest_cluster_tracked_identically(self):
        out_fast = run_gathering(line(6), Automaton(1, {}, [0]), [2, 4, 5],
                                 max_rounds=60)
        out_ref = run_gathering_reference(line(6), Automaton(1, {}, [0]),
                                          [2, 4, 5], max_rounds=60)
        assert out_fast.largest_cluster == out_ref.largest_cluster >= 2


class TestValidationStillApplies:
    def test_bad_starts(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            run_gathering(line(4), counting_walker(1), [0, 99])
        with pytest.raises(SimulationError):
            run_gathering(line(4), counting_walker(1), [0])
        with pytest.raises(SimulationError):
            run_gathering(line(4), counting_walker(1), [0, 2], delays=[1])
