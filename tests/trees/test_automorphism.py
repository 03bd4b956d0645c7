"""Unit tests for symmetry and perfect symmetrizability (Fact 1.1 theory)."""

import random

from repro.trees import (
    all_labelings,
    all_trees,
    are_symmetric_for_labeling,
    are_topologically_symmetric,
    canonical_form,
    complete_binary_tree,
    has_symmetrizing_labeling,
    is_symmetric_labeling,
    line,
    perfectly_symmetrizable,
    port_preserving_automorphism,
    random_relabel,
    random_tree,
    star,
)


class TestCanonicalForm:
    def test_invariant_under_renumbering(self):
        rng = random.Random(2)
        for _ in range(25):
            t = random_tree(rng.randrange(2, 25), rng)
            mapping = list(range(t.n))
            rng.shuffle(mapping)
            assert canonical_form(t) == canonical_form(t.renumber_nodes(mapping))

    def test_invariant_under_relabeling(self):
        """Children are ordered by their codes, not by the order a
        traversal first meets each shape, so every labeling of one tree
        has one form."""
        for n in range(4, 30):
            for seed in range(30):
                t = random_tree(n, random.Random(seed))
                relabeled = random_relabel(t, random.Random(0))
                assert canonical_form(t) == canonical_form(relabeled), (n, seed)

    def test_distinguishes_nonisomorphic(self):
        forms = [canonical_form(t) for t in all_trees(7)]
        assert len(set(forms)) == len(forms)

    def test_ignores_ports(self):
        rng = random.Random(3)
        t = star(4)
        assert canonical_form(t) == canonical_form(random_relabel(t, rng))


class TestTopologicalSymmetry:
    def test_line_endpoints(self):
        t = line(7)
        assert are_topologically_symmetric(t, 0, 6)
        assert not are_topologically_symmetric(t, 0, 5)

    def test_star_leaves(self):
        t = star(4)
        assert are_topologically_symmetric(t, 1, 4)
        assert not are_topologically_symmetric(t, 0, 1)

    def test_binary_tree_leaves(self):
        t = complete_binary_tree(2)  # nodes 3..6 are leaves
        assert are_topologically_symmetric(t, 3, 6)
        assert are_topologically_symmetric(t, 3, 4)
        assert not are_topologically_symmetric(t, 0, 3)

    def test_reflexive(self):
        t = line(5)
        assert are_topologically_symmetric(t, 2, 2)


class TestPerfectSymmetrizability:
    def test_odd_line_leaves_not_perfectly_symmetrizable(self):
        """Paper §1: an odd-node line's endpoints are topologically symmetric
        but NOT perfectly symmetrizable (central node blocks it)."""
        t = line(7)
        assert are_topologically_symmetric(t, 0, 6)
        assert not perfectly_symmetrizable(t, 0, 6)

    def test_even_line_endpoints_are_perfectly_symmetrizable(self):
        t = line(8)
        assert perfectly_symmetrizable(t, 0, 7)
        assert perfectly_symmetrizable(t, 1, 6)
        assert not perfectly_symmetrizable(t, 0, 6)  # asymmetric offsets
        assert not perfectly_symmetrizable(t, 0, 1)  # same half of the center

    def test_complete_binary_tree_not_perfectly_symmetrizable(self):
        """Paper §1: complete binary trees have a central node, so no two
        leaves are perfectly symmetrizable despite topological symmetry."""
        t = complete_binary_tree(2)
        assert not perfectly_symmetrizable(t, 3, 6)

    def test_same_half_never_symmetrizable(self):
        t = line(8)
        # 1 and 2 are on the same side of the central edge (3,4)
        assert not perfectly_symmetrizable(t, 1, 2)

    def test_symmetrizable_implies_topologically_symmetric(self):
        for n in range(2, 9):
            for t in all_trees(n):
                for u in range(t.n):
                    for v in range(u + 1, t.n):
                        if perfectly_symmetrizable(t, u, v):
                            assert are_topologically_symmetric(t, u, v)

    def test_matches_existential_definition_on_small_trees(self):
        """Definition 1.2 brute-forced: sweep all labelings and check the
        port-preserving automorphism — must agree with the direct test."""
        for n in range(2, 7):
            for t in all_trees(n):
                pairs = [
                    (u, v) for u in range(t.n) for v in range(u + 1, t.n)
                ]
                witness: dict = {p: False for p in pairs}
                for labeled in all_labelings(t):
                    f = port_preserving_automorphism(labeled)
                    if f is None:
                        continue
                    for u, v in pairs:
                        if f.get(u) == v or f.get(v) == u:
                            witness[(u, v)] = True
                for (u, v), expect in witness.items():
                    assert perfectly_symmetrizable(t, u, v) == expect, (
                        t.debug_string(),
                        (u, v),
                    )


class TestPortPreservingAutomorphism:
    def test_central_node_tree_never_symmetric(self):
        t = line(7)
        for labeled in all_labelings(t, limit=50):
            assert port_preserving_automorphism(labeled) is None

    def test_symmetric_even_line(self):
        # Canonical ports on a line: port 0 points left at interior nodes.
        # Build the mirrored labeling explicitly: 2-edge-coloring works.
        from repro.trees import edge_colored_line

        t = edge_colored_line(6)
        f = port_preserving_automorphism(t)
        # The coloring of a 6-node line: edges 0,1,0,1,0 — central edge (2,3)
        # has color 0 on both sides and halves mirror, so symmetric.
        assert f is not None
        assert f[2] == 3 and f[0] == 5

    def test_symmetry_detection_agrees_with_brute_force(self):
        import itertools

        def brute_force_symmetric(t):
            # try all nontrivial automorphism candidates via permutations
            for perm in itertools.permutations(range(t.n)):
                if all(perm[u] == u for u in range(t.n)):
                    continue
                ok = True
                for u in range(t.n):
                    if t.degree(perm[u]) != t.degree(u):
                        ok = False
                        break
                    for p in range(t.degree(u)):
                        v = t.neighbors(u)[p]
                        # port-preserving: port p at u must lead to perm[v]
                        # from perm[u] via the same port p' = p at u? No:
                        # port of {u,v} at u must equal port of {f(u),f(v)}
                        # at f(u).
                        fu, fv = perm[u], perm[v]
                        if fv not in t.neighbors(fu):
                            ok = False
                            break
                        if t.port(fu, fv) != p:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    return True
            return False

        for n in range(2, 6):
            for t in all_trees(n):
                for labeled in all_labelings(t):
                    assert is_symmetric_labeling(labeled) == brute_force_symmetric(
                        labeled
                    ), labeled.debug_string()

    def test_are_symmetric_for_labeling(self):
        from repro.trees import edge_colored_line

        t = edge_colored_line(6)
        assert are_symmetric_for_labeling(t, 0, 5)
        assert are_symmetric_for_labeling(t, 2, 3)
        assert not are_symmetric_for_labeling(t, 0, 4)


class TestHasSymmetrizingLabeling:
    def test_even_line(self):
        assert has_symmetrizing_labeling(line(6))
        assert not has_symmetrizing_labeling(line(7))

    def test_central_node_blocks_symmetrizing(self):
        # This tree strips down to a central NODE, so no labeling can make
        # it symmetric (paper §2.2).
        from repro.trees import Tree

        t = Tree.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])
        assert not has_symmetrizing_labeling(t)

    def test_central_edge_with_asymmetric_halves(self):
        # Central edge, but the two halves are non-isomorphic rooted trees.
        from repro.trees import Tree

        # Path 0-1-2-3 with extra leaves making halves differ:
        # left half rooted at 1: {0}; right half rooted at 2: {3,4}.
        t = Tree.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        from repro.trees import find_center

        assert find_center(t).is_edge
        assert not has_symmetrizing_labeling(t)
