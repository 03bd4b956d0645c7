"""Central node / central edge of a tree by iterated leaf stripping.

Section 2.2 of the paper: repeatedly remove all leaves; the process stops at
either a single node (the *central node*) or a single edge (the *central
edge*).  This is the classical 1- or 2-center of a tree.
"""

from __future__ import annotations

from typing import Optional

from ..records import TupleRecord, tuple_new
from .tree import Tree

__all__ = ["Center", "find_center"]


class Center(TupleRecord):
    """The result of leaf stripping.

    Exactly one of ``node`` / ``edge`` is set.  ``layers[u]`` is the round at
    which node ``u`` was stripped (its "onion layer"), with central nodes
    carrying the maximum layer.
    """

    __slots__ = ()

    def __new__(
        cls,
        node: Optional[int],
        edge: Optional[tuple[int, int]],
        layers: tuple[int, ...],
    ):
        return tuple_new(cls, (node, edge, layers))

    @property
    def is_node(self) -> bool:
        return self.node is not None

    @property
    def is_edge(self) -> bool:
        return self.edge is not None


def find_center(tree: Tree) -> Center:
    """Compute the central node or central edge of ``tree``.

    Linear time: peel degree-1 nodes layer by layer until one node or two
    adjacent nodes remain.  For ``n == 1`` the single node is central; for
    ``n == 2`` the single edge is central.
    """
    n = tree.n
    if n == 1:
        return Center(node=0, edge=None, layers=(0,))
    degree = tree.degrees()
    layer = [0] * n
    current = [u for u in range(n) if degree[u] == 1]
    removed = 0
    depth = 0
    remaining = n
    while remaining > 2:
        depth += 1
        nxt: list[int] = []
        for u in current:
            layer[u] = depth - 1
            removed += 1
        remaining = n - removed
        for u in current:
            for v in tree.neighbors(u):
                degree[v] -= 1
                if degree[v] == 1:
                    nxt.append(v)
        # Note: a neighbor can reach degree 1 only once, so no duplicates.
        current = nxt
    for u in current:
        layer[u] = depth
    if remaining == 1:
        return Center(node=current[0], edge=None, layers=tuple(layer))
    a, b = sorted(current)
    return Center(node=None, edge=(a, b), layers=tuple(layer))
