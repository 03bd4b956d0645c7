"""Unit tests for route-A lowering: machine keys and state enumeration."""

import pickle

import pytest

from repro.agents import AgentProgram, Ctx, NULL_PORT, STAY, move, stay
from repro.agents.lowering import (
    lower_to_automaton,
    machine_state_key,
)
from repro.errors import AgentProtocolError, BudgetExceededError, LoweringError
from repro.sim import run_rendezvous, run_rendezvous_compiled
from repro.trees import line, star


def zigzag_program(start_degree, regs):
    ctx = Ctx(NULL_PORT, start_degree)
    regs.declare("k", 3)
    while True:
        for k in range(3):
            regs["k"] = k
            yield from move(ctx, 0)
        yield from stay(ctx, 2)
        for k in range(2):
            regs["k"] = k
            yield from move(ctx, 1)


def finite_program(start_degree, regs):
    ctx = Ctx(NULL_PORT, start_degree)
    regs.declare("s", 3)
    for k in range(3):
        regs["s"] = k
        yield from move(ctx, 0)


def degree_branching_program(start_degree, regs):
    # genuinely start-degree-dependent forever: no automaton can say it
    ctx = Ctx(NULL_PORT, start_degree)
    keep = start_degree  # survives in locals and steers behavior
    while True:
        yield from move(ctx, keep)


class TestMachineStateKey:
    def test_equal_for_equal_histories(self):
        a, b = AgentProgram(zigzag_program), AgentProgram(zigzag_program)
        for agent in (a, b):
            agent.start(2)
            agent.step(1, 2)
        assert machine_state_key(a) == machine_state_key(b)

    def test_differs_after_different_observations(self):
        a, b = AgentProgram(zigzag_program), AgentProgram(zigzag_program)
        a.start(2)
        b.start(2)
        a.step(0, 1)
        b.step(0, 2)  # ctx.degree differs
        assert machine_state_key(a) != machine_state_key(b)

    def test_finished_program_has_the_absorbing_key(self):
        agent = AgentProgram(finite_program)
        agent.start(2)
        for _ in range(5):
            agent.step(0, 2)
        assert agent.finished
        assert machine_state_key(agent) == ("finished",)

    def test_start_degree_parameter_is_stripped(self):
        # the factory's first positional arg is constant within a run and
        # overwritten by the first observation in every Ctx program
        a, b = AgentProgram(zigzag_program), AgentProgram(zigzag_program)
        a.start(1)
        b.start(2)
        a.step(0, 2)
        b.step(0, 2)
        assert machine_state_key(a) == machine_state_key(b)

    def test_rejects_non_programs(self):
        with pytest.raises(LoweringError):
            machine_state_key(object())

    def test_strip_never_falls_through_to_inner_frames(self):
        # an argument-less outer generator must not push the start-degree
        # strip onto the first inner frame that happens to take arguments
        def countdown(remaining):
            while remaining:
                remaining -= 1
                yield 0

        def factory(start_degree, regs):
            def outer():
                yield from countdown(3)

            return outer()

        agent = AgentProgram(factory)
        agent.start(2)
        keys = [machine_state_key(agent)]
        for _ in range(2):
            agent.step(0, 2)
            keys.append(machine_state_key(agent))
        assert len(set(keys)) == len(keys), "distinct states keyed equal"


class TestLowerToAutomaton:
    def test_zigzag_parity_with_reference(self):
        proto = AgentProgram(zigzag_program)
        tree = line(7)
        aut = lower_to_automaton(proto, tree.degrees())
        for (u, v, delay, delayed) in [(0, 4, 0, 2), (1, 5, 3, 1), (2, 6, 2, 2)]:
            ref = run_rendezvous(
                tree, proto, u, v, delay=delay, delayed=delayed, max_rounds=4000
            )
            low = run_rendezvous_compiled(
                tree, aut, u, v,
                delay=delay, delayed=delayed, max_rounds=4000, certify=True,
            )
            assert (ref.met, ref.meeting_round, ref.meeting_node) == (
                low.met, low.meeting_round, low.meeting_node
            )

    def test_finite_program_gets_absorbing_state(self):
        aut = lower_to_automaton(AgentProgram(finite_program), [1, 2])
        # drive the automaton past the program's finish: it stays forever
        state = aut.initial_state
        actions = [aut.output[state]]
        for _ in range(6):
            state = aut.transition(state, 0, 2)
            actions.append(aut.output[state])
        assert actions[3:] == [STAY] * 4

    def test_state_budget_exhaustion_raises_budget_error(self):
        with pytest.raises(BudgetExceededError):
            lower_to_automaton(
                AgentProgram(zigzag_program), [1, 2], state_budget=3
            )

    def test_step_budget_exhaustion_raises_budget_error(self):
        with pytest.raises(BudgetExceededError):
            lower_to_automaton(
                AgentProgram(zigzag_program), [1, 2], step_budget=10
            )

    def test_degree_dependent_program_fails_loudly(self):
        with pytest.raises(LoweringError):
            lower_to_automaton(AgentProgram(degree_branching_program), [1, 2, 3])

    def test_baseline_agent_is_not_route_a_expressible(self):
        from repro.core import baseline_agent

        with pytest.raises((LoweringError, BudgetExceededError)):
            lower_to_automaton(baseline_agent(), [1, 3], state_budget=256)

    def test_empty_degree_alphabet_rejected(self):
        with pytest.raises(LoweringError):
            lower_to_automaton(AgentProgram(zigzag_program), [0])


class TestLoweredAutomaton:
    def test_out_of_alphabet_observation_raises(self):
        aut = lower_to_automaton(AgentProgram(zigzag_program), [1, 2])
        with pytest.raises(AgentProtocolError):
            aut.transition(0, 0, 3)
        # running on a tree with degree 3 surfaces the error, not silence
        # (the partner sleeps so agent 1 must transition at the hub)
        with pytest.raises(AgentProtocolError):
            run_rendezvous_compiled(
                star(3), aut, 1, 2, delay=5, delayed=2, max_rounds=10
            )

    def test_pickle_roundtrip(self):
        aut = lower_to_automaton(AgentProgram(zigzag_program), [1, 2])
        clone = pickle.loads(pickle.dumps(aut))
        assert clone.num_states == aut.num_states
        assert clone.output == aut.output
        assert clone.alphabet == aut.alphabet
        for s in range(aut.num_states):
            for ip, d in sorted(aut.alphabet):
                assert clone.transition(s, ip, d) == aut.transition(s, ip, d)

    def test_clone_resets_state(self):
        aut = lower_to_automaton(AgentProgram(zigzag_program), [1, 2])
        aut.start(2)
        aut.step(0, 2)
        fresh = aut.clone()
        assert fresh.state == fresh.initial_state


class TestStateCountsPinned:
    """Lowered and minimized state counts, route A (lowering, one intern
    table per run) and route B (traced lassos, whose Brent and
    suffix-merge keys are interned per (prototype, tree)).  The counts
    are the ``atlas-programs`` golden's; a key that merged or split
    states would move them."""

    def test_lowered_and_minimized_counts(self):
        from repro.analysis.program_atlas import program_atlas_rows

        grid = {
            "counting-program:2": ("line:9", "star:4"),
            "pausing-program:2": ("line:9",),
            "thm41": ("star:4", "spider:2,2,2"),
        }
        counts = [
            (r.program, r.tree, r.route, r.raw_states, r.min_states)
            for r in program_atlas_rows(grid)
        ]
        assert counts == [
            ("counting-program:2", "line:9", "A", 41, 8),
            ("counting-program:2", "star:4", "A", 57, 8),
            ("pausing-program:2", "line:9", "A", 31, 6),
            ("thm41", "star:4", "B", 49, 34),
            ("thm41", "spider:2,2,2", "B", 112, 46),
        ]
