"""Tests for the Theorem 4.3 adversary (Ω(log ℓ) with max degree 3)."""

import random

import pytest

from repro.agents import random_tree_automaton
from repro.errors import ConstructionError
from repro.lowerbounds import (
    behavior_function,
    build_thm43_instance,
    find_colliding_side_trees,
)
from repro.trees import perfectly_symmetrizable
from repro.trees.sidetrees import all_side_trees, root_edge_color, two_sided_tree


class TestBehaviorFunction:
    def test_signature_shape(self):
        rng = random.Random(1)
        a = random_tree_automaton(5, rng=rng)
        side = all_side_trees(4, root_port_up=root_edge_color(4))[0]
        q = behavior_function(a, side, 4)
        assert len(q) == 5
        for entry in q:
            if entry is not None:
                p, t = entry
                assert 0 <= p < 5
                assert t >= 2

    def test_deterministic(self):
        rng = random.Random(2)
        a = random_tree_automaton(4, rng=rng)
        side = all_side_trees(4, root_port_up=0)[3]
        assert behavior_function(a, side, 4) == behavior_function(a, side, 4)

    def test_equal_q_implies_equal_tours_in_situ(self):
        """Two colliding side trees really are black-box equivalent: tours
        measured inside the combined two-sided tree match q."""
        rng = random.Random(3)
        a = random_tree_automaton(4, rng=rng)
        coll = find_colliding_side_trees(a, 4, 4)
        if coll is None:
            pytest.skip("no collision for this automaton (rare)")
        s1, s2, q = coll
        assert behavior_function(a, s1, 4) == behavior_function(a, s2, 4) == q
        assert s1.choices != s2.choices

    def test_trapped_agent_yields_none(self):
        from repro.agents import Automaton

        # An agent that always exits port 0 never escapes some side trees
        # but oscillates near the root in others; build one that enters and
        # then stays forever.
        from repro.agents.observations import STAY

        stayer = Automaton(1, {}, [STAY])
        side = all_side_trees(4, root_port_up=0)[0]
        q = behavior_function(stayer, side, 4)
        assert q == (None,)


class TestThm43Construction:
    def test_small_automata_defeated(self):
        rng = random.Random(17)
        for _ in range(3):
            a = random_tree_automaton(3, rng=rng)
            inst = build_thm43_instance(a, 4)
            assert inst.certified
            ts = inst.two_sided
            assert not perfectly_symmetrizable(ts.tree, ts.u, ts.v)
            assert inst.tree.max_degree() <= 3
            assert inst.tree.num_leaves == inst.ell

    def test_sides_nonisomorphic(self):
        rng = random.Random(23)
        a = random_tree_automaton(4, rng=rng)
        inst = build_thm43_instance(a, 5)
        from repro.trees import canonical_form

        t1 = inst.side1.tree
        t2 = inst.side2.tree
        assert canonical_form(t1) != canonical_form(t2) or t1.n != t2.n

    def test_m_validation(self):
        rng = random.Random(29)
        a = random_tree_automaton(3, rng=rng)
        with pytest.raises(ConstructionError):
            build_thm43_instance(a, 4, m=3)

    def test_same_sides_instance_is_symmetric(self):
        """Sanity: joining T1 with itself gives a perfectly symmetrizable
        (infeasible) pair — the paper's 'first instance'."""
        side = all_side_trees(4, root_port_up=root_edge_color(4))[5]
        ts = two_sided_tree(side, side, 4)
        assert perfectly_symmetrizable(ts.tree, ts.u, ts.v)


class TestLazySideTreeScan:
    def test_scan_builds_only_the_trees_it_reaches(self, monkeypatch):
        """The collision scan builds each side tree as it reaches it: as
        many builds as behavior functions, not all 2^(i-1)."""
        from repro.lowerbounds import leaves
        from repro.trees import sidetrees

        built, scanned = [], []
        side_tree, behavior = sidetrees.side_tree, leaves.behavior_function
        monkeypatch.setattr(
            sidetrees, "side_tree", lambda *a: built.append(a) or side_tree(*a)
        )
        monkeypatch.setattr(
            leaves, "behavior_function",
            lambda *a: scanned.append(a) or behavior(*a),
        )
        a = random_tree_automaton(2, rng=random.Random(0))
        side1, side2, q = find_colliding_side_trees(a, 6, 4)
        assert len(built) == len(scanned) < 2 ** 5
        assert (side1, side2) == tuple(
            s for s in all_side_trees(6, root_port_up=root_edge_color(4))
            if s in (side1, side2)
        )

    def test_iter_side_trees_is_all_side_trees(self):
        from repro.trees.sidetrees import iter_side_trees

        for i in (2, 4):
            for up in (0, 1):
                assert list(iter_side_trees(i, up)) == all_side_trees(i, up)
