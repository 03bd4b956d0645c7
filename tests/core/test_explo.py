"""Unit tests for Explo / Explo-bis (Fact 2.1)."""

import random

import pytest

from repro.agents import NULL_PORT, Ctx, Registers, drive
from repro.core import (
    CENTRAL_EDGE_ASYMMETRIC,
    CENTRAL_EDGE_SYMMETRIC,
    CENTRAL_NODE,
    explo_bis_routine,
    explo_routine,
)
from repro.errors import SimulationError
from repro.trees import (
    Tree,
    all_trees,
    canonical_form,
    complete_binary_tree,
    contract,
    find_center,
    line,
    random_relabel,
    random_tree,
    star,
    subdivide,
)


def run_routine(tree, start, routine_factory):
    """Drive a routine on a tree; return (result, rounds, final_position)."""
    ctx = Ctx(NULL_PORT, tree.degree(start))
    regs = Registers()
    run = drive(tree, start, routine_factory(ctx, regs), regs)
    return run.value, run.rounds, run.node


class TestExplo:
    def test_round_count_and_return(self):
        for t in all_trees(7):
            for v in range(t.n):
                if t.degree(v) == 2:
                    continue
                result, rounds, pos = run_routine(t, v, explo_routine)
                assert rounds == 2 * (t.n - 1)
                assert pos == v
                assert result.n == t.n
                assert canonical_form(result.tree) == canonical_form(t)

    def test_rejects_degree2_start(self):
        t = line(5)
        with pytest.raises(SimulationError):
            run_routine(t, 2, explo_routine)

    def test_single_node(self):
        t = Tree([[]], validate=False)
        result, rounds, pos = run_routine(t, 0, explo_routine)
        assert rounds == 0
        assert result.kind == CENTRAL_NODE

    def test_kind_matches_ground_truth(self):
        rng = random.Random(9)
        from repro.trees import port_preserving_automorphism

        for _ in range(30):
            t = random_relabel(random_tree(rng.randrange(2, 20), rng), rng)
            starts = [v for v in range(t.n) if t.degree(v) != 2]
            v = rng.choice(starts)
            result, _, _ = run_routine(t, v, explo_routine)
            tp = contract(t).contracted
            center = find_center(tp)
            if center.is_node:
                assert result.kind == CENTRAL_NODE
            elif port_preserving_automorphism(tp) is not None:
                assert result.kind == CENTRAL_EDGE_SYMMETRIC
            else:
                assert result.kind == CENTRAL_EDGE_ASYMMETRIC

    def test_steps_to_central_node(self):
        t = star(4)  # central node is the hub
        for leaf in range(1, 5):
            result, _, _ = run_routine(t, leaf, explo_routine)
            assert result.kind == CENTRAL_NODE
            # one basic-walk step from a leaf reaches the hub
            assert result.steps_to_target == 1

    def test_symmetric_target_is_farther_extremity(self):
        t = line(6)  # T' = the two endpoints; symmetric
        result, _, _ = run_routine(t, 0, explo_routine)
        assert result.kind == CENTRAL_EDGE_SYMMETRIC
        # target is the far endpoint: 1 T'-step away
        assert result.steps_to_target == 1
        assert result.central_port == 0


class TestCanonicalExtremityAgreement:
    def test_asymmetric_pick_agrees_across_starts(self):
        """All starting positions must name the same physical target node."""
        rng = random.Random(4)
        checked = 0
        for _ in range(60):
            t = random_relabel(random_tree(rng.randrange(4, 16), rng), rng)
            tp = contract(t).contracted
            center = find_center(tp)
            from repro.trees import port_preserving_automorphism

            if not center.is_edge or port_preserving_automorphism(tp) is not None:
                continue
            checked += 1
            physical_targets = set()
            for v in range(t.n):
                if t.degree(v) == 2:
                    continue
                result, _, _ = run_routine(t, v, explo_routine)
                assert result.kind == CENTRAL_EDGE_ASYMMETRIC
                # map the agent's private target index to the physical node:
                # replay a basic walk of `steps_to_target` T'-steps from v.
                physical_targets.add(
                    _branching_walk_end(t, v, result.steps_to_target)
                )
            assert len(physical_targets) == 1
        assert checked >= 5  # the sweep actually exercised the case


def _branching_walk_end(tree, start, count):
    if count == 0:
        return start
    node, port, seen = start, 0, 0
    while True:
        node, in_port = tree.move(node, port)
        if tree.degree(node) != 2:
            seen += 1
            if seen == count:
                return node
        port = (in_port + 1) % tree.degree(node)


class TestExploBis:
    def test_degree2_start_walks_to_leaf_first(self):
        t = line(7)
        result, rounds, pos = run_routine(t, 3, explo_bis_routine)
        # 3 steps to the leaf (port 0 goes left), then a full Explo
        assert rounds == 3 + 2 * (t.n - 1)
        assert pos == 0  # v̂ = the left leaf
        assert result.kind == CENTRAL_EDGE_SYMMETRIC

    def test_branching_start_is_plain_explo(self):
        t = complete_binary_tree(2)
        for v in [1, 3, 6]:
            result, rounds, pos = run_routine(t, v, explo_bis_routine)
            assert rounds == 2 * (t.n - 1)
            assert pos == v

    def test_duration_is_position_independent_from_branching(self):
        """Key timing property used by the Synchro analysis."""
        t = subdivide(complete_binary_tree(2), 2)
        durations = set()
        for v in range(t.n):
            if t.degree(v) != 2:
                _, rounds, _ = run_routine(t, v, explo_bis_routine)
                durations.add(rounds)
        assert len(durations) == 1

    def test_registers_scale_with_leaves_not_nodes(self):
        """Explo-bis memory is O(log ℓ): subdividing (growing n at fixed ℓ)
        must not change the declared register bits."""
        base = complete_binary_tree(2)

        def declared_bits(tree, start):
            ctx = Ctx(NULL_PORT, tree.degree(start))
            regs = Registers()
            gen = explo_bis_routine(ctx, regs)
            pos = start
            try:
                action = next(gen)
                while True:
                    if action == -1:
                        obs = (NULL_PORT, tree.degree(pos))
                    else:
                        pos, in_port = tree.move(pos, action % tree.degree(pos))
                        obs = (in_port, tree.degree(pos))
                    action = gen.send(obs)
            except StopIteration:
                pass
            return regs.bits_declared()

        small = declared_bits(base, 3)
        big = declared_bits(subdivide(base, 6), 3)
        assert small == big
