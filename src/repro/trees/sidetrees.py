"""Side trees and two-sided trees (Theorem 4.3's Ω(log ℓ) construction).

For ℓ = 2i, a *side tree* is built from an (i+1)-node path with a
distinguished *root* endpoint: to every internal node of the path attach
either a single new leaf ("short hair") or a 2-node path ("long hair" —
a degree-2 node with a leaf below).  The i-1 binary choices give
``2^(i-1) = 2^(ℓ/2 - 1)`` pairwise non-isomorphic rooted side trees, each
with maximum degree 3 and i leaves (counting the far path end).

A *two-sided tree* joins the roots of two side trees by a path with ``m``
added internal nodes (``m`` even; ``m + 1`` edges): ℓ leaves total, max
degree 3.  The joining path carries the paper's labeling: both ports of its
central edge are 0, every other joining edge has the same label 0/1 at both
ends (a proper 2-edge-coloring radiating from the central edge).  The
agents' initial positions are the joining-path nodes adjacent to the two
roots.

Node layout of :func:`two_sided_tree`: side tree 1 occupies ids
``0 .. n1-1`` (root = 0), side tree 2 ids ``n1 .. n1+n2-1`` (root = n1),
the ``m`` joining nodes follow, ordered from side 1 to side 2.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import ConstructionError
from .tree import Tree

__all__ = [
    "SideTree",
    "side_tree",
    "all_side_trees",
    "num_side_trees",
    "root_edge_color",
    "TwoSided",
    "two_sided_tree",
]


class SideTree(NamedTuple):
    """A rooted, port-labeled side tree.

    ``tree`` is the standalone side tree (root = node 0); ``root_port_up``
    is the port number *reserved* at the root for the future joining edge
    (the side tree itself only uses the root's other port).
    """

    tree: Tree
    choices: tuple[int, ...]  # 0 = short hair, 1 = long hair, per internal node
    root_port_up: int

    @property
    def size(self) -> int:
        return self.tree.n

    @property
    def num_leaves(self) -> int:
        return self.tree.num_leaves


def root_edge_color(m: int) -> int:
    """Color (= both-end port label) of the joining edge at each root.

    The joining path has ``m + 1`` edges; its central edge is labeled 0 and
    labels alternate outward, so the outermost edges (root to first joining
    node) carry ``(m/2) mod 2``.
    """
    if m < 0 or m % 2 != 0:
        raise ConstructionError("the number of added joining nodes m must be even >= 0")
    return (m // 2) % 2


def side_tree(i: int, choices: tuple[int, ...], root_port_up: int = 1) -> SideTree:
    """Build one side tree for ℓ = 2i from the given hair choices.

    ``choices`` has one 0/1 entry per internal path node (i-1 entries).
    The spine is ``0 (root) - 1 - ... - i``; hairs hang off nodes 1..i-1.
    Ports: along the spine each node uses ports in construction order; the
    root's spine port is ``1 - root_port_up`` so that ``root_port_up`` stays
    free for the joining edge.
    """
    if i < 2:
        raise ConstructionError("side trees need i >= 2 (ℓ = 2i >= 4)")
    if len(choices) != i - 1:
        raise ConstructionError(f"need {i - 1} hair choices, got {len(choices)}")
    if root_port_up not in (0, 1):
        raise ConstructionError("root_port_up must be 0 or 1")

    edges: list[tuple[int, int]] = [(k, k + 1) for k in range(i)]
    nxt = i + 1
    for k, choice in enumerate(choices, start=1):
        if choice == 0:  # short hair: a single leaf
            edges.append((k, nxt))
            nxt += 1
        else:  # long hair: degree-2 node + leaf
            edges.append((k, nxt))
            edges.append((nxt, nxt + 1))
            nxt += 2
    # Canonical ports (edge-listing order), then free up the root's port.
    tree = Tree.from_edges(nxt, edges)
    if root_port_up == 0:
        # The root currently has its single (spine) edge on port 0; in the
        # two-sided tree the joining edge must take port 0 instead, so move
        # the spine edge to port 1 when the root is embedded (handled by
        # two_sided_tree); standalone, the root keeps its one port.
        pass
    return SideTree(tree=tree, choices=tuple(choices), root_port_up=root_port_up)


def num_side_trees(i: int) -> int:
    return 2 ** (i - 1)


def all_side_trees(i: int, root_port_up: int = 1) -> list[SideTree]:
    """All ``2^(i-1)`` side trees for ℓ = 2i, in binary-counter order."""
    out = []
    for mask in range(2 ** (i - 1)):
        choices = tuple((mask >> b) & 1 for b in range(i - 1))
        out.append(side_tree(i, choices, root_port_up))
    return out


class TwoSided(NamedTuple):
    """A two-sided tree with the paper's start positions.

    ``u`` and ``v`` are the joining-path nodes adjacent to the two roots
    (``root1 = 0``, ``root2 = n1``); for ``m == 0`` the joining path has no
    added nodes and ``u``/``v`` fall back to the roots themselves.
    """

    tree: Tree
    root1: int
    root2: int
    u: int
    v: int
    m: int


def two_sided_tree(side1: SideTree, side2: SideTree, m: int) -> TwoSided:
    """Join two side trees by a path with ``m`` (even) internal nodes.

    The joining path's port labeling follows the paper: central edge 0/0,
    every edge the same label at both extremities, alternating outward; the
    side trees keep their internal canonical labelings, with each root's
    joining port as reserved by ``root_port_up``.
    """
    if m % 2 != 0 or m < 2:
        raise ConstructionError("m must be even and >= 2 (u, v must exist)")
    n1, n2 = side1.size, side2.size
    base = n1 + n2
    join = list(range(base, base + m))  # joining nodes, side1 -> side2

    edges: list[tuple[int, int]] = []
    ports: dict[tuple[int, int], int] = {}

    def add_side(side: SideTree, offset: int) -> None:
        t = side.tree
        for a, b in t.edges():
            edges.append((a + offset, b + offset))
            pa, pb = t.port(a, b), t.port(b, a)
            # The root's spine edge may need to move off the reserved port.
            if a == 0 and side.root_port_up == pa:
                pa = 1 - side.root_port_up
            if b == 0 and side.root_port_up == pb:
                pb = 1 - side.root_port_up
            ports[(a + offset, b + offset)] = pa
            ports[(b + offset, a + offset)] = pb

    add_side(side1, 0)
    add_side(side2, n1)

    # Joining path: root1 - join[0] - ... - join[m-1] - root2.
    chain = [0] + join + [n1]
    num_edges = len(chain) - 1  # == m + 1, odd
    mid = num_edges // 2
    for idx in range(num_edges):
        a, b = chain[idx], chain[idx + 1]
        color = abs(idx - mid) % 2
        edges.append((a, b))
        pa = side1.root_port_up if a == 0 else color
        pb = side2.root_port_up if b == n1 else color
        ports[(a, b)] = pa
        ports[(b, a)] = pb

    tree = Tree.from_edges(base + m, edges, ports=ports)
    return TwoSided(tree=tree, root1=0, root2=n1, u=join[0], v=join[-1], m=m)
