"""Tests for the Theorem 3.1 adversary (arbitrary delay, Ω(log n))."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import (
    alternator,
    counting_walker,
    pausing_walker,
    random_line_automaton,
)
from repro.lowerbounds import build_thm31_instance, find_state_repetition, simulate_infinite_line
from repro.trees import perfectly_symmetrizable


class TestStateRepetition:
    def test_alternator_repeats_quickly(self):
        run = simulate_infinite_line(alternator(), 60)
        pair = find_state_repetition(run)
        assert pair is not None
        t1, x1, t2, x2, s = pair
        assert t1 < t2
        assert x1 != x2
        assert (x2 - x1) % 2 == 0  # evenness is enforced

    def test_no_repetition_for_stayers(self):
        from repro.agents import STAY, LineAutomaton

        run = simulate_infinite_line(LineAutomaton([(0, 0)], [STAY]), 60)
        assert find_state_repetition(run) is None


def quadratic_state_repetition(run):
    """The oracle: compare each leave event with every earlier one in
    the same state."""
    seen = {}
    for ev in run.leave_events:
        for t1, x1 in seen.get(ev.state, ()):
            if x1 != ev.position and (ev.position - x1) % 2 == 0:
                return (t1, x1, ev.round_index, ev.position, ev.state)
        seen.setdefault(ev.state, []).append((ev.round_index, ev.position))
    return None


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(0, 2**32),
    st.sampled_from([0.0, 0.15, 0.5, 0.9]),
)
def test_linear_scan_matches_quadratic_scan(k, seed, stay_prob):
    """The one-pass scan returns the quadratic scan's pair (or None) on
    random line automata, over the horizon the construction simulates."""
    automaton = random_line_automaton(k, random.Random(seed), stay_prob)
    run = simulate_infinite_line(automaton, 80 * (k + 2))
    assert find_state_repetition(run) == quadratic_state_repetition(run)


class TestThm31Construction:
    def test_library_agents_all_defeated(self):
        for agent in (alternator(), pausing_walker(2), counting_walker(2)):
            inst = build_thm31_instance(agent)
            assert inst.certified
            assert not perfectly_symmetrizable(inst.tree, inst.start1, inst.start2)

    def test_random_agents_all_defeated(self):
        rng = random.Random(13)
        for k in (2, 4, 8):
            inst = build_thm31_instance(random_line_automaton(k, rng))
            assert inst.certified

    def test_instance_size_scales_with_memory(self):
        """The counting-walker family: defeating line grows ~2^bits."""
        sizes = [build_thm31_instance(counting_walker(k)).line_edges for k in (1, 2, 3, 4)]
        assert sizes == sorted(sizes)
        assert sizes[-1] > 2 * sizes[0]
        # exponential-ish: consecutive ratios stay >= ~1.5 in the tail
        assert sizes[3] / sizes[2] > 1.4

    def test_drifting_instance_has_positive_delay(self):
        inst = build_thm31_instance(alternator())
        assert inst.kind == "drifting"
        assert inst.delay > 0

    def test_bounded_instance_zero_delay(self):
        inst = build_thm31_instance(counting_walker(2))
        assert inst.kind == "bounded"
        assert inst.delay == 0

    def test_unverified_construction_is_fast(self):
        inst = build_thm31_instance(counting_walker(3), verify=False)
        assert inst.outcome is None
        assert not inst.certified
