"""Generators for the tree families used throughout the paper.

Every builder returns a :class:`~repro.trees.tree.Tree` with a *canonical*
port labeling (ports assigned in construction order).  Adversarial or random
labelings are applied afterwards with :mod:`repro.trees.labelings`.

Families
--------
- lines/paths — the paper's lower bounds (Thm 3.1, Thm 4.2) live on lines;
- complete binary trees and binomial trees — the paper's examples of
  topologically symmetric but not perfectly symmetrizable positions (§4.1);
- caterpillars / spiders / brooms — small-leaf-count families for the
  O(log ℓ + log log n) upper-bound experiments;
- the Thm 3.1 "double star" example (two degree-n centers);
- random trees via Prüfer sequences, optionally with bounded degree.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import Optional

from ..errors import InvalidTreeError
from .tree import Tree

__all__ = [
    "line",
    "complete_kary_tree",
    "lobster",
    "star",
    "spider",
    "caterpillar",
    "broom",
    "double_broom",
    "complete_binary_tree",
    "binomial_tree",
    "double_star",
    "random_tree",
    "random_bounded_degree_tree",
    "all_trees",
    "subdivide",
]


def line(num_nodes: int) -> Tree:
    """A path on ``num_nodes`` nodes, numbered left to right.

    Canonical ports: at every internal node, port 0 leads left (toward node
    0) and port 1 leads right.  End nodes have the single port 0.
    """
    if num_nodes < 1:
        raise InvalidTreeError("line needs at least one node")
    edges = [(i, i + 1) for i in range(num_nodes - 1)]
    return Tree.from_edges(num_nodes, edges)


def star(num_leaves: int) -> Tree:
    """A star: node 0 is the center, nodes ``1 .. num_leaves`` are leaves."""
    if num_leaves < 1:
        raise InvalidTreeError("star needs at least one leaf")
    edges = [(0, i) for i in range(1, num_leaves + 1)]
    return Tree.from_edges(num_leaves + 1, edges)


def spider(leg_lengths: Sequence[int]) -> Tree:
    """A spider: paths (*legs*) of the given lengths glued at a center node 0.

    ``leg_lengths[i] >= 1`` is the number of edges of leg ``i``.
    """
    if not leg_lengths or any(length < 1 for length in leg_lengths):
        raise InvalidTreeError("spider needs legs of length >= 1")
    edges: list[tuple[int, int]] = []
    nxt = 1
    for length in leg_lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree.from_edges(nxt, edges)


def caterpillar(spine: int, hairs: Sequence[int]) -> Tree:
    """A caterpillar: a spine path of ``spine`` nodes, ``hairs[i]`` legs at node i.

    Spine nodes are ``0 .. spine-1``; leaf nodes follow.
    """
    if spine < 1 or len(hairs) != spine or any(h < 0 for h in hairs):
        raise InvalidTreeError("caterpillar needs spine >= 1 and one hair count per node")
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i, h in enumerate(hairs):
        for _ in range(h):
            edges.append((i, nxt))
            nxt += 1
    return Tree.from_edges(nxt, edges)


def broom(handle: int, bristles: int) -> Tree:
    """A broom: a path of ``handle`` edges ending in a star of ``bristles`` leaves.

    Node 0 is the free end of the handle.
    """
    if handle < 1 or bristles < 1:
        raise InvalidTreeError("broom needs handle >= 1 and bristles >= 1")
    edges = [(i, i + 1) for i in range(handle)]
    center = handle
    nxt = handle + 1
    for _ in range(bristles):
        edges.append((center, nxt))
        nxt += 1
    return Tree.from_edges(nxt, edges)


def double_broom(handle: int, bristles_left: int, bristles_right: int) -> Tree:
    """Two stars joined by a path of ``handle`` edges.

    Left center is node 0, right center is node ``handle``.  Used to build
    trees with a prescribed leaf count and long paths (few leaves, many
    nodes) for the memory-scaling experiments.
    """
    if handle < 1 or bristles_left < 1 or bristles_right < 1:
        raise InvalidTreeError("double_broom needs handle >= 1 and bristles >= 1")
    edges = [(i, i + 1) for i in range(handle)]
    nxt = handle + 1
    for _ in range(bristles_left):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(bristles_right):
        edges.append((handle, nxt))
        nxt += 1
    return Tree.from_edges(nxt, edges)


def complete_binary_tree(height: int) -> Tree:
    """The complete binary tree of the given ``height`` (root = node 0).

    Height 0 is a single node; height h has ``2^(h+1) - 1`` nodes.
    """
    if height < 0:
        raise InvalidTreeError("height must be >= 0")
    n = 2 ** (height + 1) - 1
    edges = [((i - 1) // 2, i) for i in range(1, n)]
    return Tree.from_edges(n, edges)


def binomial_tree(order: int) -> Tree:
    """The binomial tree B_k (2^k nodes), cf. CLRS, used as a paper example.

    B_0 is a single node; B_k is two copies of B_{k-1} with an edge between
    their roots.  Node 0 is the root.
    """
    if order < 0:
        raise InvalidTreeError("order must be >= 0")
    edges: list[tuple[int, int]] = []
    size = 1
    for _ in range(order):
        # Attach a copy of the current tree (shifted by `size`) under the root.
        edges = edges + [(u + size, v + size) for u, v in edges] + [(0, size)]
        size *= 2
    return Tree.from_edges(size, edges)


def double_star(branch: int) -> Tree:
    """The Thm 3.1 example: two degree-``branch`` nodes u, v joined through w.

    Node 0 is ``u``, node 1 is ``w``, node 2 is ``v``; nodes ``3 ..`` are the
    ``branch - 1`` leaves of each center.  Total ``2*branch + 1`` nodes.
    """
    if branch < 2:
        raise InvalidTreeError("double_star needs branch >= 2")
    edges = [(0, 1), (1, 2)]
    nxt = 3
    for _ in range(branch - 1):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(branch - 1):
        edges.append((2, nxt))
        nxt += 1
    return Tree.from_edges(nxt, edges)


def random_tree(num_nodes: int, rng: Optional[random.Random] = None) -> Tree:
    """A uniformly random labeled tree via a random Prüfer sequence."""
    rng = rng or random.Random()  # repro-lint: disable=RPR003 -- documented convenience default: callers needing reproducibility pass a seeded Random; every solver/scenario path does
    if num_nodes < 1:
        raise InvalidTreeError("random_tree needs at least one node")
    if num_nodes == 1:
        return Tree([[]], validate=False)
    if num_nodes == 2:
        return line(2)
    seq = [rng.randrange(num_nodes) for _ in range(num_nodes - 2)]
    return _tree_from_pruefer(seq)


def _tree_from_pruefer(seq: Sequence[int]) -> Tree:
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges: list[tuple[int, int]] = []
    # Standard linear-time decoding.
    ptr = 0
    leaf = -1
    # Find the smallest leaf.
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in seq:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return Tree.from_edges(n, edges)


def random_bounded_degree_tree(
    num_nodes: int, max_degree: int, rng: Optional[random.Random] = None
) -> Tree:
    """A random tree whose maximum degree does not exceed ``max_degree``.

    Built by random attachment: each new node picks a uniformly random
    existing node with residual capacity.  Not uniform over all such trees,
    but covers the family well for testing purposes.
    """
    rng = rng or random.Random()  # repro-lint: disable=RPR003 -- documented convenience default: callers needing reproducibility pass a seeded Random; every solver/scenario path does
    if max_degree < 2 and num_nodes > 2:
        raise InvalidTreeError("max_degree < 2 only allows trees with <= 2 nodes")
    if num_nodes < 1:
        raise InvalidTreeError("need at least one node")
    edges: list[tuple[int, int]] = []
    capacity = {0: max_degree}
    for v in range(1, num_nodes):
        u = rng.choice(list(capacity.keys()))
        edges.append((u, v))
        capacity[u] -= 1
        if capacity[u] == 0:
            del capacity[u]
        capacity[v] = max_degree - 1
        if capacity[v] == 0:
            del capacity[v]
    return Tree.from_edges(num_nodes, edges)


def all_trees(num_nodes: int) -> list[Tree]:
    """All non-isomorphic trees on ``num_nodes`` nodes (canonical ports).

    Intended for exhaustive small-instance testing (n <= 12 or so).  The
    trees come from the Wright–Richmond–Odlyzko–McKay (WROM) generator,
    which walks the canonical level sequences of free trees in constant
    amortized time per tree.  Node ``i`` is entry ``i`` of the level
    sequence (a preorder from a central root, node 0), for every n.
    Ports: at every other node port 0 leads to the parent, and the
    children follow in preorder.  This is networkx's
    ``nonisomorphic_trees`` read through :meth:`Tree.from_networkx`:
    the same trees in the same order, numbering and labeling (tested up
    to n = 10).
    """
    if num_nodes < 0:
        raise InvalidTreeError("num_nodes must be >= 0")
    if num_nodes == 0:
        return []
    if num_nodes == 1:
        return [Tree([[]], validate=False)]
    return [_level_sequence_tree(seq) for seq in _free_level_sequences(num_nodes)]


def _free_level_sequences(n: int):
    """Yield the WROM-canonical level sequence of every free tree on
    ``n >= 2`` nodes, starting from the path rooted at its center."""
    seq: Optional[list[int]] = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while seq is not None:
        seq = _next_free(seq)
        if seq is not None:
            yield seq
            seq = _next_rooted(seq)


def _next_rooted(seq: list[int], p: Optional[int] = None) -> Optional[list[int]]:
    """The Beyer–Hedetniemi successor of a rooted level sequence (None
    after the last one).  ``p`` forces the position that is decremented."""
    if p is None:
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    nxt = list(seq)
    for i in range(p, len(nxt)):
        nxt[i] = nxt[i - p + q]
    return nxt


def _split_first_subtree(seq: list[int]) -> tuple[list[int], list[int]]:
    """(the root's first subtree, the tree without it), both as level
    sequences rooted at level 0."""
    m = next((i for i in range(2, len(seq)) if seq[i] == 1), len(seq))
    return [level - 1 for level in seq[1:m]], [0] + seq[m:]


def _next_free(seq: list[int]) -> Optional[list[int]]:
    """``seq`` if it is the canonical rooting of a free tree, else the
    next rooted sequence that can be.

    Canonical: the first subtree is no higher than the rest of the tree
    and, at equal height, no larger, and no later lexicographically.
    """
    first, rest = _split_first_subtree(seq)
    h_first, h_rest = max(first), max(rest)
    if h_rest > h_first or (
        h_rest == h_first and (len(first), first) <= (len(rest), rest)
    ):
        return seq
    p = len(first)
    nxt = _next_rooted(seq, p)
    if nxt is not None and seq[p] > 2:
        h = max(_split_first_subtree(nxt)[0])
        nxt[-(h + 1):] = range(1, h + 2)
    return nxt


def _level_sequence_tree(seq: list[int]) -> Tree:
    """The tree of a level sequence: each node's parent is the last
    earlier node one level up."""
    n = len(seq)
    adj: list[list[int]] = [[] for _ in range(n)]
    stack: list[int] = []
    for i, level in enumerate(seq):
        while stack and seq[stack[-1]] >= level:
            stack.pop()
        if stack:
            adj[stack[-1]].append(i)
            adj[i].append(stack[-1])
        stack.append(i)
    return Tree(adj)


def subdivide(tree: Tree, times: int = 1) -> Tree:
    """Subdivide every edge ``times`` times (insert ``times`` degree-2 nodes).

    Preserves the leaf count while growing ``n``: the key knob for the
    O(log ℓ + log log n) experiments (contraction T' is invariant).
    """
    if times < 0:
        raise InvalidTreeError("times must be >= 0")
    if times == 0:
        return tree
    n = tree.n
    edges: list[tuple[int, int]] = []
    nxt = n
    for u, v in tree.edges():
        prev = u
        for _ in range(times):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, v))
    return Tree.from_edges(nxt, edges)


def complete_kary_tree(arity: int, height: int) -> Tree:
    """The complete ``arity``-ary tree of the given height (root = node 0).

    Height 0 is a single node; the tree has ``(arity^(h+1) - 1)/(arity - 1)``
    nodes for arity >= 2.
    """
    if arity < 2:
        raise InvalidTreeError("arity must be >= 2 (use line() for arity 1)")
    if height < 0:
        raise InvalidTreeError("height must be >= 0")
    n = (arity ** (height + 1) - 1) // (arity - 1)
    edges = [((i - 1) // arity, i) for i in range(1, n)]
    return Tree.from_edges(n, edges)


def lobster(
    spine: int,
    arm_pattern: Sequence[int],
    leg_pattern: Sequence[int],
) -> Tree:
    """A lobster: a caterpillar whose hairs may carry one extra segment.

    ``arm_pattern[i]`` arms hang off spine node ``i``; each arm is a path of
    1 edge ending in ``leg_pattern[i]`` extra leaf legs.  Patterns must
    match the spine length.  Lobsters give trees of max degree ~3-4 with
    tunable leaf counts at depth 2 — a middle ground between caterpillars
    and general trees for the memory sweeps.
    """
    if spine < 1 or len(arm_pattern) != spine or len(leg_pattern) != spine:
        raise InvalidTreeError("lobster patterns must match the spine length")
    if any(a < 0 for a in arm_pattern) or any(n < 0 for n in leg_pattern):
        raise InvalidTreeError("lobster patterns must be non-negative")
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(arm_pattern[i]):
            arm = nxt
            edges.append((i, arm))
            nxt += 1
            for _ in range(leg_pattern[i]):
                edges.append((arm, nxt))
                nxt += 1
    return Tree.from_edges(nxt, edges)
