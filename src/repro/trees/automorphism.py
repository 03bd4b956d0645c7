"""Tree automorphisms, symmetry, and perfect symmetrizability.

This module implements the feasibility theory of §1 and §2 of the paper:

- *topological symmetry* of two nodes (an automorphism of the unlabeled tree
  carries one to the other);
- *symmetry with respect to a port labeling* (the automorphism additionally
  preserves port numbers);
- *perfect symmetrizability* (Definition 1.2): there EXISTS a port labeling
  and a labeling-preserving automorphism carrying one node to the other —
  Fact 1.1 says rendezvous is solvable iff the initial positions are NOT
  perfectly symmetrizable.

Structural facts used (proved in the paper / classical):

1. A nontrivial port-preserving automorphism ``f`` of a labeled tree has no
   fixed node: if ``f(w) = w`` then ``f`` fixes every port at ``w``, hence
   every neighbor of ``w``, hence (by connectivity) ``f = id``.
2. Consequently the tree must have a central *edge* ``{x, y}`` with
   ``f(x) = y``; since ``f^2`` fixes ``x``, ``f`` is an involution swapping
   the two halves of the tree across the central edge.  There is therefore
   at most ONE nontrivial port-preserving automorphism (propagation from
   ``x -> y`` is forced port by port).
3. Perfect symmetrizability of ``(u, v)``: the tree has a central edge
   ``{x, y}``, the two halves are isomorphic as unlabeled rooted trees, and
   some rooted isomorphism of the halves maps ``u`` to ``v`` — i.e. the
   AHU code of (half of u, rooted at its extremity, marked at u) equals the
   code of (half of v, rooted at the other extremity, marked at v).  Any
   such isomorphism can be upgraded to a port-preserving automorphism by
   choosing the labeling accordingly.

All codes are computed with an iterative AHU scheme (no recursion), so the
functions are safe on paths of thousands of nodes.  Codes compared within
one call are interned to integers (linear-ish time); ``canonical_form``
builds nested tuples instead, comparable across calls.
"""

from __future__ import annotations

from typing import Optional

from .center import find_center
from .tree import Tree

__all__ = [
    "CodeInterner",
    "rooted_code",
    "canonical_form",
    "are_topologically_symmetric",
    "port_preserving_automorphism",
    "are_symmetric_for_labeling",
    "is_symmetric_labeling",
    "perfectly_symmetrizable",
    "has_symmetrizing_labeling",
]


class CodeInterner:
    """Maps structured subtree descriptors to small integers.

    Codes produced with the *same* interner are comparable across calls;
    codes from different interners are not.
    """

    def __init__(self) -> None:
        self._table: dict[tuple, int] = {}

    def intern(self, key: tuple) -> int:
        code = self._table.get(key)
        if code is None:
            code = len(self._table)
            self._table[key] = code
        return code

    def __len__(self) -> int:
        return len(self._table)


def _postorder(tree: Tree, root: int, block: Optional[int] = None) -> list[tuple[int, int]]:
    """(node, parent) pairs in post-order (children before parents).

    ``block`` excludes one neighbor of ``root`` — used to restrict the walk
    to one half of the tree across the central edge.
    """
    order: list[tuple[int, int]] = []
    stack: list[tuple[int, int]] = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        order.append((node, parent))
        for nbr in tree.neighbors(node):
            if nbr == parent or (node == root and nbr == block):
                continue
            stack.append((nbr, node))
    order.reverse()
    return order


def rooted_code(
    tree: Tree,
    root: int,
    mark: Optional[int] = None,
    *,
    interner: Optional[CodeInterner] = None,
    block: Optional[int] = None,
    with_ports: bool = False,
) -> int:
    """AHU canonical code of ``tree`` rooted at ``root``.

    Parameters
    ----------
    mark:
        Optional distinguished node; two rooted marked trees have equal codes
        iff an isomorphism maps root to root and mark to mark.
    interner:
        Shared interner for cross-call comparability.
    block:
        Exclude the subtree behind the edge ``{root, block}`` — restricts the
        code to one half across a central edge.
    with_ports:
        When true, child codes are ordered by the port number of the edge to
        the child instead of sorted; equal codes then mean *port-preserving*
        rooted isomorphism.
    """
    if interner is None:  # NB: `or` would discard an *empty* interner (len 0)
        interner = CodeInterner()
    codes: dict[int, int] = {}
    for node, parent in _postorder(tree, root, block):
        children: list[tuple] = []
        for nbr in tree.neighbors(node):
            if nbr == parent or (node == root and nbr == block):
                continue
            if with_ports:
                children.append((tree.port(node, nbr), tree.port(nbr, node), codes[nbr]))
            else:
                children.append((codes[nbr],))
        if not with_ports:
            children.sort()
        marked = 1 if node == mark else 0
        codes[node] = interner.intern((marked, tuple(children)))
    return codes[root]


def canonical_form(tree: Tree) -> tuple:
    """A canonical invariant of the *unlabeled* tree (isomorphism class).

    Rooted at the central node, or the sorted pair of half-codes at the
    central edge.  Each code is a nested tuple, self-contained and
    comparable across calls: two trees are isomorphic iff their
    canonical forms are equal.
    """
    center = find_center(tree)
    if center.is_node:
        return ("node", _nested_code(tree, center.node, None))
    x, y = center.edge  # type: ignore[misc]
    cx = _nested_code(tree, x, y)
    cy = _nested_code(tree, y, x)
    return ("edge", tuple(sorted((cx, cy))))


def _nested_code(tree: Tree, root: int, block: Optional[int]) -> tuple:
    """Fully materialized nested-tuple AHU code (self-contained, comparable).

    Children are ordered by their own nested codes, so the code depends
    only on the rooted tree's shape, never on node numbering or on the
    order in which a traversal first meets each shape.
    """
    nested: dict[int, tuple] = {}
    for node, parent in _postorder(tree, root, block):
        nested[node] = tuple(sorted(
            nested[nbr]
            for nbr in tree.neighbors(node)
            if nbr != parent and not (node == root and nbr == block)
        ))
    return nested[root]


def port_labeled_nested_code(tree: Tree, root: int, block: Optional[int] = None) -> tuple:
    """Self-contained *port-labeled* rooted code (comparable across trees).

    Children appear in port order and each entry is the triple
    ``(port at node, port at child, child code)``, so two codes are equal
    iff a port-preserving rooted isomorphism exists — independent of node
    numbering and of any interner.  Codes are totally ordered (all entries
    at matching positions have the same shape), which the Theorem 4.1 agent
    uses to pick a canonical extremity of an asymmetric central edge.
    """
    nested: dict[int, tuple] = {}
    for node, parent in _postorder(tree, root, block):
        entries = []
        for nbr in tree.neighbors(node):
            if nbr == parent or (node == root and nbr == block):
                continue
            entries.append((tree.port(node, nbr), tree.port(nbr, node), nested[nbr]))
        entries.sort(key=lambda e: e[0])  # port order (ports are unique per node)
        nested[node] = tuple(entries)
    return nested[root]


def are_topologically_symmetric(tree: Tree, u: int, v: int) -> bool:
    """Does some automorphism of the unlabeled tree map ``u`` to ``v``?

    Any automorphism preserves the center.  Rooting at the central node
    (resp. either extremity of the central edge) reduces the question to
    equality of marked rooted codes.
    """
    if u == v:
        return True
    center = find_center(tree)
    interner = CodeInterner()
    if center.is_node:
        c = center.node
        return rooted_code(tree, c, u, interner=interner) == rooted_code(
            tree, c, v, interner=interner
        )
    x, y = center.edge  # type: ignore[misc]
    cu_x = rooted_code(tree, x, u, interner=interner)
    cv_x = rooted_code(tree, x, v, interner=interner)
    if cu_x == cv_x:  # an automorphism fixing x (and y)
        return True
    cu_y = rooted_code(tree, y, u, interner=interner)
    cv_y = rooted_code(tree, y, v, interner=interner)
    return cu_x == cv_y and cu_y == cv_x  # an automorphism swapping x and y


def port_preserving_automorphism(tree: Tree) -> Optional[dict[int, int]]:
    """The unique nontrivial port-preserving automorphism, or ``None``.

    Such an automorphism must swap the extremities of the central edge and
    is then forced everywhere by following equal port numbers, so we build
    it by parallel BFS from the two extremities and check consistency.
    """
    if tree.n < 2:
        return None
    center = find_center(tree)
    if center.is_node:
        return None
    x, y = center.edge  # type: ignore[misc]
    if tree.degree(x) != tree.degree(y):
        return None
    # The central edge must carry the same port number at both extremities
    # for f to preserve ports (f maps the central edge to itself).
    if tree.port(x, y) != tree.port(y, x):
        return None
    stride, deg, move_to, move_in = tree.flat_move_tables()
    mapping: dict[int, int] = {x: y, y: x}
    stack = [(x, y)]
    while stack:
        a, b = stack.pop()
        if deg[a] != deg[b]:
            return None
        for p in range(deg[a]):
            na = move_to[a * stride + p]
            nb = move_to[b * stride + p]
            # Entry ports must also agree: port of {a,na} at na must equal
            # port of {b,nb} at nb.
            if move_in[a * stride + p] != move_in[b * stride + p]:
                return None
            if na in mapping:
                if mapping[na] != nb:
                    return None
                continue
            if nb in mapping and mapping[nb] != na:
                return None
            mapping[na] = nb
            mapping[nb] = na
            if na != b:  # don't re-expand the swapped pair
                stack.append((na, nb))
    return mapping


def is_symmetric_labeling(tree: Tree) -> bool:
    """Is the labeled tree *symmetric* (§2.2): nontrivial port-preserving
    automorphism exists?"""
    return port_preserving_automorphism(tree) is not None


def are_symmetric_for_labeling(tree: Tree, u: int, v: int) -> bool:
    """Are ``u`` and ``v`` symmetric with respect to the tree's own labeling?

    True iff the (unique) nontrivial port-preserving automorphism exists and
    maps ``u`` to ``v``.  With simultaneous start, rendezvous under THIS
    labeling is feasible iff this returns False (cf. §1, citing [14]).
    """
    if u == v:
        return True
    f = port_preserving_automorphism(tree)
    return f is not None and f.get(u) == v


def has_symmetrizing_labeling(tree: Tree) -> bool:
    """Can SOME labeling make the tree symmetric?

    Iff the tree has a central edge whose two halves are isomorphic as
    unlabeled rooted trees.
    """
    center = find_center(tree)
    if center.is_node:
        return False
    x, y = center.edge  # type: ignore[misc]
    interner = CodeInterner()
    return rooted_code(tree, x, block=y, interner=interner) == rooted_code(
        tree, y, block=x, interner=interner
    )


def perfectly_symmetrizable(tree: Tree, u: int, v: int) -> bool:
    """Definition 1.2: is there a labeling + preserving automorphism with f(u)=v?

    By the structural facts in the module docstring this holds iff the tree
    has a central edge ``{x, y}``, and the half containing ``u`` rooted at
    its extremity and marked at ``u`` is isomorphic (unlabeled, rooted,
    marked) to the half containing ``v`` rooted at the other extremity and
    marked at ``v`` — with ``u`` and ``v`` in different halves.

    Fact 1.1: rendezvous (quantified over all labelings) is solvable from
    ``(u, v)`` iff this returns ``False``.
    """
    if u == v:
        return True  # the identity automorphism, with any labeling
    center = find_center(tree)
    if center.is_node:
        return False
    x, y = center.edge  # type: ignore[misc]
    half_x = set(tree.subtree_nodes(x, y))
    u_in_x = u in half_x
    v_in_x = v in half_x
    if u_in_x == v_in_x:
        return False  # a symmetrizing automorphism swaps the halves
    if not u_in_x:
        u, v = v, u  # now u is in the x-half, v in the y-half
    interner = CodeInterner()
    return rooted_code(tree, x, u, block=y, interner=interner) == rooted_code(
        tree, y, v, block=x, interner=interner
    )
