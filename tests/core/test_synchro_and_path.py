"""Tests for Synchro (Sub-stage 2.1) and the rendezvous path navigator."""

import random

import pytest

from repro.agents import NULL_PORT, Ctx, Registers
from repro.agents import drive as drive_solo
from repro.core import explo_bis_routine, synchro_routine
from repro.core.rendezvous_path import (
    RendezvousPathNavigator,
    rendezvous_path_num_edges,
)
from repro.trees import (
    complete_binary_tree,
    contract,
    line,
    random_relabel,
    subdivide,
)


def drive(tree, start, routine_factory):
    """Run a routine; return (value, rounds, final_pos, positions)."""
    ctx = Ctx(NULL_PORT, tree.degree(start))
    regs = Registers()
    visited = [start]
    run = drive_solo(tree, start, routine_factory(ctx, regs), regs, trail=visited)
    return run.value, run.rounds, run.node, visited


def explo_then(extra):
    """Compose: Explo-bis first, then `extra(ctx, regs, explo_result)`."""

    def factory(ctx, regs):
        result = yield from explo_bis_routine(ctx, regs)
        yield from extra(ctx, regs, result)
        return result

    return factory


class TestSynchro:
    def test_returns_to_vhat(self):
        t = line(9)
        for start in (0, 8):
            _, _, pos, _ = drive(t, start, explo_then(synchro_routine))
            assert pos == start  # leaves are their own v̂

    def test_duration_equal_from_both_extremities(self):
        """Claim 4.2's engine: identical action multisets => equal duration."""
        rng = random.Random(4)
        t = random_relabel(subdivide(complete_binary_tree(2), 2), rng)
        durations = set()
        for start in (3, 4, 5, 6):  # leaves of the base tree
            _, rounds, _, _ = drive(t, start, explo_then(synchro_routine))
            durations.add(rounds)
        assert len(durations) == 1

    def test_visits_whole_tree(self):
        t = line(7)
        _, _, _, visited = drive(t, 0, explo_then(synchro_routine))
        assert set(visited) == set(range(t.n))

    def test_trivial_contraction_is_noop(self):
        # A star contracts to itself with a central node: T' has no central
        # edge, but Synchro still works (it's only *called* in the symmetric
        # case; here we check it terminates and returns home).
        from repro.trees import star

        t = star(3)
        _, rounds, pos, _ = drive(t, 1, explo_then(synchro_routine))
        assert pos == 1


    def test_leaving_stage1_map_fails_loudly(self):
        """Synchro follows its position in Stage 1's T'; run on a tree
        that map does not describe, it stops at the first arrival."""
        from repro.core.explo import _analyze
        from repro.errors import SimulationError
        from repro.trees import star

        def synchro_on_line_map(ctx, regs):
            yield from synchro_routine(ctx, regs, _analyze(line(5)))

        with pytest.raises(SimulationError, match="left Stage 1's map"):
            drive(star(3), 1, synchro_on_line_map)


class TestRendezvousPathNavigator:
    def _traverse(self, tree, start, nu, ell, central_port, speed):
        def factory(ctx, regs):
            nav = RendezvousPathNavigator(nu, ell, central_port)
            yield from nav.traverse(ctx, regs, speed)

        return drive(tree, start, factory)

    def test_ends_at_other_extremity(self):
        t = line(9)  # T' = both endpoints; central path = the whole line
        c = contract(t)
        _, rounds, pos, _ = self._traverse(t, 0, c.nu, t.num_leaves, 0, 1)
        assert pos == 8
        _, rounds2, pos2, _ = self._traverse(t, 8, c.nu, t.num_leaves, 0, 1)
        assert pos2 == 0
        assert rounds == rounds2  # same instruction sequence, same length

    def test_speed_multiplies_rounds(self):
        t = line(7)
        c = contract(t)
        _, r1, _, _ = self._traverse(t, 0, c.nu, 2, 0, 1)
        _, r3, _, _ = self._traverse(t, 0, c.nu, 2, 0, 3)
        assert r3 == 3 * r1  # idle (speed-1) rounds before every move

    def test_length_matches_formula(self):
        t = line(11)
        c = contract(t)
        _, rounds, _, _ = self._traverse(t, 0, c.nu, 2, 0, 1)
        expected = rendezvous_path_num_edges(t.n, c.nu, 2, chain_len=t.n - 1)
        assert rounds == expected

    def test_on_branching_tree(self):
        rng = random.Random(8)
        t = random_relabel(subdivide(complete_binary_tree(2), 1), rng)
        c = contract(t)
        tp = c.contracted
        from repro.trees import find_center, port_preserving_automorphism

        center = find_center(tp)
        assert center.is_edge
        f = port_preserving_automorphism(tp)
        if f is None:
            return  # random labeling broke symmetry; nothing to traverse
        x, y = center.edge
        u = c.to_original[x]
        port = tp.port(x, y)
        _, _, pos, _ = self._traverse(t, u, c.nu, t.num_leaves, port, 2)
        assert pos == c.to_original[y]

    def test_double_traverse_returns(self):
        t = line(9)
        c = contract(t)

        def factory(ctx, regs):
            nav = RendezvousPathNavigator(c.nu, 2, 0)
            yield from nav.traverse(ctx, regs, 2)
            yield from nav.traverse(ctx, regs, 2)

        _, _, pos, _ = drive(t, 0, factory)
        assert pos == 0
