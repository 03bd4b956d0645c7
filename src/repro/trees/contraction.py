"""Contraction of a tree: suppress degree-2 nodes (the paper's T').

Theorem 4.1's algorithm operates on the *contraction* T' of the input tree
T: every maximal path of degree-2 nodes joining two nodes of degree != 2 is
replaced by a single edge whose two ports are the ports of the path's first
and last edges at its two branching endpoints.

If T has ℓ leaves then T' has at most 2ℓ - 1 nodes (paper, §4.1) — this is
why agent counters over T' only cost O(log ℓ) bits.

The :class:`Contraction` object keeps both directions of the correspondence:
T'-node -> T-node, and each T'-edge -> the full T-path it contracts.
"""

from __future__ import annotations

from ..errors import InvalidTreeError
from ..records import TupleRecord, tuple_new
from .tree import Tree

__all__ = ["Contraction", "contract"]


class Contraction(TupleRecord):
    """The contraction T' of a tree T together with the node/edge maps.

    Attributes
    ----------
    original:
        The tree T that was contracted.
    contracted:
        T' as a :class:`Tree` on its own node range ``0 .. nu-1``.
    to_original:
        ``to_original[a]`` is the T-node represented by T'-node ``a``.
    from_original:
        Partial inverse: maps T-nodes of degree != 2 to their T'-index.
    paths:
        ``paths[(a, p)]`` is the full T-path (list of T-node ids, inclusive
        of both branching endpoints) represented by the T'-edge leaving
        T'-node ``a`` through port ``p``.
    """

    __slots__ = ()

    def __new__(
        cls,
        original: Tree,
        contracted: Tree,
        to_original: tuple[int, ...],
        from_original: dict[int, int],
        paths: dict[tuple[int, int], tuple[int, ...]],
    ):
        return tuple_new(cls, (original, contracted, to_original, from_original, paths))

    @property
    def nu(self) -> int:
        """Number of nodes of T' (the paper's ν)."""
        return self.contracted.n

    def path_length(self, a: int, p: int) -> int:
        """Number of T-edges of the path behind T'-edge ``(a, p)``."""
        return len(self.paths[(a, p)]) - 1

    def degree2_nodes_on(self, a: int, p: int) -> tuple[int, ...]:
        """The interior (degree-2) T-nodes of the contracted path."""
        return self.paths[(a, p)][1:-1]


def _follow_chain(tree: Tree, start: int, port: int) -> tuple[int, int, list[int]]:
    """Walk from ``start`` through ``port`` across degree-2 nodes.

    Returns ``(end, in_port, path)`` where ``end`` is the first node of
    degree != 2 encountered, ``in_port`` its entry port, and ``path`` the
    node sequence from ``start`` to ``end`` inclusive.
    """
    path = [start]
    node, in_port = tree.move(start, port)
    path.append(node)
    while tree.degree(node) == 2:
        node, in_port = tree.move(node, 1 - in_port)
        path.append(node)
    return node, in_port, path


def contract(tree: Tree) -> Contraction:
    """Compute the contraction T' of ``tree``.

    Every node of degree != 2 of T becomes a node of T'; ports at those
    nodes are inherited unchanged (contraction preserves branching degrees).
    A path on >= 2 nodes (line) contracts to a single edge between its
    endpoints; a single node is its own contraction.
    """
    keep = [u for u in range(tree.n) if tree.degree(u) != 2]
    if not keep:
        raise InvalidTreeError("a tree always has nodes of degree != 2")  # pragma: no cover
    from_original = {u: i for i, u in enumerate(keep)}
    rows: list[list[int]] = []
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for i, u in enumerate(keep):
        row: list[int] = []
        for p in range(tree.degree(u)):
            end, _in_port, chain = _follow_chain(tree, u, p)
            row.append(from_original[end])
            paths[(i, p)] = tuple(chain)
        rows.append(row)
    contracted = Tree(rows, validate=False) if len(keep) > 1 else Tree([[]], validate=False)
    return Contraction(
        original=tree,
        contracted=contracted,
        to_original=tuple(keep),
        from_original=from_original,
        paths=paths,
    )
