"""Unit tests for tree family builders."""

import hashlib
import json
import random

import pytest

from repro.errors import InvalidTreeError
from repro.trees import (
    Tree,
    all_trees,
    binomial_tree,
    broom,
    caterpillar,
    complete_binary_tree,
    double_broom,
    double_star,
    line,
    random_bounded_degree_tree,
    random_tree,
    spider,
    star,
    subdivide,
)


class TestDeterministicFamilies:
    def test_line(self):
        t = line(5)
        assert t.n == 5
        assert t.num_leaves == 2
        assert t.diameter() == 4

    def test_line_minimum(self):
        assert line(1).n == 1
        with pytest.raises(InvalidTreeError):
            line(0)

    def test_star(self):
        t = star(6)
        assert t.n == 7
        assert t.num_leaves == 6

    def test_spider(self):
        t = spider([2, 3, 1])
        assert t.n == 7
        assert t.num_leaves == 3
        assert t.degree(0) == 3
        assert t.eccentricity(0) == 3

    def test_spider_rejects_empty_leg(self):
        with pytest.raises(InvalidTreeError):
            spider([2, 0])

    def test_caterpillar(self):
        t = caterpillar(4, [1, 0, 2, 1])
        assert t.n == 8
        # Spine ends carry hairs here, so the only leaves are the 4 hairs.
        assert t.num_leaves == 4
        assert t.max_degree() == 4  # node 2: two spine edges + two hairs

    def test_broom(self):
        t = broom(3, 4)
        assert t.n == 8
        assert t.num_leaves == 5  # 4 bristles + handle end
        assert t.degree(3) == 5

    def test_double_broom(self):
        t = double_broom(4, 3, 3)
        assert t.n == 11
        assert t.num_leaves == 6
        assert t.degree(0) == 4
        assert t.degree(4) == 4

    def test_complete_binary_tree(self):
        t = complete_binary_tree(3)
        assert t.n == 15
        assert t.num_leaves == 8
        assert t.degree(0) == 2
        assert t.max_degree() == 3

    def test_complete_binary_tree_height_zero(self):
        assert complete_binary_tree(0).n == 1

    def test_binomial_tree(self):
        for k in range(5):
            t = binomial_tree(k)
            assert t.n == 2**k
        t = binomial_tree(3)
        assert t.degree(0) == 3  # root of B_3 has degree 3

    def test_double_star(self):
        t = double_star(4)
        assert t.n == 9
        assert t.degree(0) == 4
        assert t.degree(2) == 4
        assert t.degree(1) == 2

    def test_subdivide(self):
        t = star(3)
        t2 = subdivide(t, 2)
        assert t2.n == 4 + 3 * 2
        assert t2.num_leaves == 3  # leaf count preserved
        assert subdivide(t, 0) is t


class TestRandomFamilies:
    def test_random_tree_sizes(self):
        rng = random.Random(7)
        for n in [1, 2, 3, 10, 50]:
            t = random_tree(n, rng)
            assert t.n == n

    def test_random_tree_distribution_touches_both_extremes(self):
        rng = random.Random(3)
        shapes = set()
        for _ in range(60):
            t = random_tree(5, rng)
            shapes.add(t.num_leaves)
        assert 2 in shapes  # a path shows up
        assert 4 in shapes  # a star shows up

    def test_random_bounded_degree(self):
        rng = random.Random(11)
        for _ in range(20):
            t = random_bounded_degree_tree(40, 3, rng)
            assert t.n == 40
            assert t.max_degree() <= 3

    def test_bounded_degree_rejects_impossible(self):
        with pytest.raises(InvalidTreeError):
            random_bounded_degree_tree(5, 1)


def _port_rows(trees):
    return [[list(t.neighbors(u)) for u in range(t.n)] for t in trees]


class TestExhaustiveEnumeration:
    def test_counts_match_oeis(self):
        # OEIS A000055: the number of non-isomorphic trees on n nodes
        expected = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
        assert [len(all_trees(n)) for n in range(1, 13)] == expected

    def test_pairwise_nonisomorphic(self):
        from repro.trees.automorphism import canonical_form

        for n in range(1, 11):
            forms = {canonical_form(t) for t in all_trees(n)}
            assert len(forms) == len(all_trees(n))

    def test_port_labelled_trees_are_pinned(self):
        # Order, node numbering and ports of every tree up to n = 8: the
        # exhaustive checks and the atlas rows index trees by position.
        rows = _port_rows(t for n in range(1, 9) for t in all_trees(n))
        assert len(rows) == 48
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == (
            "d81fc343a09c0975f55d6104d593ded94bfdd893910ab53114a07871120ab701"
        )

    def test_degenerate_sizes(self):
        assert all_trees(0) == []
        assert _port_rows(all_trees(1)) == [[[]]]
        assert all_trees(2) == [line(2)]
        with pytest.raises(InvalidTreeError):
            all_trees(-1)

    def test_all_valid(self):
        for t in all_trees(7):
            assert t.n == 7

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_networkx_order_and_ports(self, n):
        nx = pytest.importorskip("networkx")
        expected = [Tree.from_networkx(g) for g in nx.nonisomorphic_trees(n)]
        assert _port_rows(all_trees(n)) == _port_rows(expected)


class TestExtendedFamilies:
    def test_complete_kary_tree(self):
        import pytest
        from repro.trees import complete_kary_tree

        t = complete_kary_tree(3, 2)
        assert t.n == 13
        assert t.num_leaves == 9
        assert t.degree(0) == 3
        assert t.max_degree() == 4
        assert complete_kary_tree(2, 0).n == 1
        with pytest.raises(InvalidTreeError):
            complete_kary_tree(1, 3)
        with pytest.raises(InvalidTreeError):
            complete_kary_tree(2, -1)

    def test_lobster(self):
        import pytest
        from repro.trees import lobster

        t = lobster(4, [1, 0, 2, 1], [2, 0, 1, 0])
        assert t.n == 4 + 4 + 4  # spine + arms + legs (2 + 2*1 legs)
        assert t.num_leaves == 5
        with pytest.raises(InvalidTreeError):
            lobster(3, [1, 1], [0, 0])
        with pytest.raises(InvalidTreeError):
            lobster(2, [1, -1], [0, 0])

    def test_lobster_feasibility_and_solve(self):
        from repro.core import solve
        from repro.trees import lobster, perfectly_symmetrizable

        t = lobster(5, [1, 1, 0, 1, 1], [1, 0, 0, 0, 1])
        pairs = [
            (u, v)
            for u in range(t.n)
            for v in range(u + 1, t.n)
            if not perfectly_symmetrizable(t, u, v)
        ]
        for u, v in pairs[:5]:
            assert solve(t, u, v, max_outer=8).met
