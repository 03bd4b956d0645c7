"""Unit tests for the Tree substrate."""

import pytest

from repro.errors import InvalidPortError, InvalidTreeError
from repro.trees import Tree, line, star


class TestConstruction:
    def test_single_node(self):
        t = Tree([[]])
        assert t.n == 1
        assert t.num_edges == 0
        assert t.leaves() == [0]

    def test_two_nodes(self):
        t = Tree([[1], [0]])
        assert t.n == 2
        assert t.degree(0) == 1
        assert t.move(0, 0) == (1, 0)

    def test_from_edges_canonical_ports(self):
        t = Tree.from_edges(3, [(0, 1), (1, 2)])
        assert t.neighbors(1) == (0, 2)
        assert t.port(1, 0) == 0
        assert t.port(1, 2) == 1

    def test_from_edges_explicit_ports(self):
        ports = {(0, 1): 0, (1, 0): 1, (1, 2): 0, (2, 1): 0}
        t = Tree.from_edges(3, [(0, 1), (1, 2)], ports=ports)
        assert t.port(1, 0) == 1
        assert t.port(1, 2) == 0
        assert t.move(2, 0) == (1, 0)  # arrives at 1 through port 0 ({1,2}'s port at 1)

    def test_from_parent_array(self):
        t = Tree.from_parent_array([None, 0, 0, 1])
        assert t.n == 4
        assert t.degree(0) == 2
        assert t.degree(1) == 2
        assert sorted(t.leaves()) == [2, 3]

    def test_rejects_disconnected(self):
        with pytest.raises(InvalidTreeError):
            Tree([[1], [0], [3], [2]])

    def test_rejects_cycle(self):
        with pytest.raises(InvalidTreeError):
            Tree([[1, 2], [0, 2], [0, 1]])

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidTreeError):
            Tree([[0]])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(InvalidTreeError):
            Tree([[1], []])

    def test_rejects_bad_port_assignment(self):
        ports = {(0, 1): 5, (1, 0): 0, (1, 2): 1, (2, 1): 0}
        with pytest.raises(InvalidPortError):
            Tree.from_edges(3, [(0, 1), (1, 2)], ports=ports)

    def test_rejects_duplicate_port(self):
        ports = {(0, 1): 0, (1, 0): 0, (1, 2): 0, (2, 1): 0}
        with pytest.raises(InvalidPortError):
            Tree.from_edges(3, [(0, 1), (1, 2)], ports=ports)

    def test_empty_tree_rejected(self):
        with pytest.raises(InvalidTreeError):
            Tree([])


class TestQueries:
    def test_degrees_and_leaves(self):
        t = star(4)
        assert t.degree(0) == 4
        assert t.num_leaves == 4
        assert t.max_degree() == 4
        assert not t.is_leaf(0)
        assert t.is_leaf(1)

    def test_edges_iteration(self):
        t = line(4)
        assert sorted(t.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_move_round_trip(self):
        t = line(5)
        for u in range(t.n):
            for p in range(t.degree(u)):
                v, q = t.move(u, p)
                assert t.move(v, q) == (u, p)

    def test_move_bad_port(self):
        t = line(3)
        with pytest.raises(InvalidPortError):
            t.move(0, 1)

    def test_port_lookup_bad_edge(self):
        t = line(4)
        with pytest.raises(InvalidPortError):
            t.port(0, 3)


class TestMetrics:
    def test_distances_on_line(self):
        t = line(6)
        assert t.bfs_distances(0) == [0, 1, 2, 3, 4, 5]
        assert t.distance(1, 4) == 3

    def test_path(self):
        t = star(3)
        assert t.path(1, 2) == [1, 0, 2]
        assert t.path(1, 1) == [1]

    def test_diameter_and_eccentricity(self):
        assert line(7).diameter() == 6
        assert star(5).diameter() == 2
        assert line(7).eccentricity(3) == 3

    def test_subtree_nodes(self):
        t = line(5)
        assert t.subtree_nodes(1, 2) == [0, 1]
        assert t.subtree_nodes(2, 1) == [2, 3, 4]


class TestTransforms:
    def test_with_ports_swaps(self):
        t = line(3)
        t2 = t.with_ports([[0], [1, 0], [0]])
        assert t2.port(1, 0) == 1
        assert t2.port(1, 2) == 0
        assert t2.neighbors(1) == (2, 0)

    def test_with_ports_rejects_non_permutation(self):
        t = line(3)
        with pytest.raises(InvalidPortError):
            t.with_ports([[0], [0, 0], [0]])

    def test_renumber_nodes(self):
        t = line(3)
        t2 = t.renumber_nodes([2, 1, 0])
        assert t2.neighbors(1) == (2, 0)
        assert t2.degree(2) == 1

    def test_renumber_rejects_bad_mapping(self):
        with pytest.raises(InvalidTreeError):
            line(3).renumber_nodes([0, 0, 1])


class TestInterop:
    def test_networkx_round_trip(self):
        pytest.importorskip("networkx")
        t = star(3)
        g = t.to_networkx()
        assert g.number_of_nodes() == 4
        t2 = Tree.from_networkx(g)
        assert t2.n == 4
        assert t2.num_leaves == 3

    def test_from_networkx_keeps_integer_node_numbers(self):
        nx = pytest.importorskip("networkx")
        g = nx.Graph()
        g.add_nodes_from(reversed(range(12)))
        g.add_edges_from((i, i + 1) for i in range(11))
        t = Tree.from_networkx(g)
        # node i stays node i: 10 and 11 are not sorted before 2 by repr
        assert [t.degree(i) for i in range(12)] == [1] + [2] * 10 + [1]
        assert all(t.distance(i, i + 1) == 1 for i in range(11))

    def test_from_networkx_orders_incomparable_nodes_by_repr(self):
        nx = pytest.importorskip("networkx")
        g = nx.Graph([("b", 1), (1, ("a",))])
        t = Tree.from_networkx(g)
        # repr order: "'b'" < "('a',)" < "1"
        assert t.degree(2) == 2
        assert t.neighbors(2) == (0, 1)

    def test_equality_and_hash(self):
        a = line(4)
        b = line(4)
        assert a == b
        assert hash(a) == hash(b)
        c = a.with_ports([[0], [1, 0], [0, 1], [0]])
        assert a != c

    def test_repr_and_debug(self):
        t = line(3)
        assert "n=3" in repr(t)
        assert "node 1" in t.debug_string()
