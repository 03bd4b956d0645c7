"""The symmetry certificate: the paper's Fact 1.1 as a proof object.

A :class:`SymmetryCertificate` needs no run at all.  It records a port-preserving automorphism
``f`` of the tree with ``f(start1) = start2``.  Two identical
deterministic agents started together at ``start1`` and ``start2`` see
the same degree and entry port in every round, so they take the same
action and stay ``f``-related: agent 2 is always at ``f`` of agent 1's
node.  ``f`` has no fixed node, so the agents never meet.  The argument
holds for any agent (automaton or register program), but only with
delay 0, identical agents and no faults.  Every engine tier's
``certify=True`` path returns this verdict before round 1 (see
:func:`symmetry_certificate`).  Every other non-meeting verdict comes
from a tier's ``certify=True`` run, which stops at a repeated joint
configuration (:mod:`repro.sim.engine`).
"""

from __future__ import annotations

from typing import Optional

from ..records import TupleRecord, tuple_new
from ..trees.automorphism import port_preserving_automorphism
from ..trees.tree import Tree

__all__ = ["SymmetryCertificate", "symmetry_certificate"]


class SymmetryCertificate(TupleRecord):
    """Fact 1.1: a port-preserving involution carrying ``start1`` to
    ``start2`` proves that two identical agents started together there
    never meet.

    ``mapping[x]`` is ``f(x)``.  The proof covers the simultaneous-start,
    identical-agent, fault-free instance only: a delay or a fault breaks
    the lockstep, and two different agents need not act alike.
    """

    __slots__ = ()

    def __new__(cls, tree: Tree, start1: int, start2: int, mapping: tuple[int, ...]):
        return tuple_new(cls, (tree, start1, start2, mapping))

    def verify(self) -> bool:
        """Re-check ``f`` edge by edge, without the builder's search.

        ``f`` must be a fixed-point-free involution of the nodes that
        carries ``start1`` to ``start2`` and maps every edge leaving
        ``x`` by port ``p`` to the edge leaving ``f(x)`` by port ``p``.
        Checked at every node, that covers both ends of every edge.
        """
        tree, f = self.tree, self.mapping
        n = tree.n
        if len(f) != n or not (0 <= self.start1 < n and 0 <= self.start2 < n):
            return False
        if f[self.start1] != self.start2:
            return False
        for x, fx in enumerate(f):
            if not 0 <= fx < n or fx == x or f[fx] != x:
                return False
            if tree.neighbors(fx) != tuple(f[y] for y in tree.neighbors(x)):
                return False
        return True


def symmetry_certificate(
    tree: Tree, start1: int, start2: int
) -> Optional[SymmetryCertificate]:
    """The :class:`SymmetryCertificate` for ``(start1, start2)``, or
    ``None`` when the tree's labeling has no port-preserving automorphism
    carrying one start to the other.  O(n).

    The caller owns the other premises: delay 0, identical agents and
    an empty fault plan.
    """
    # A fixed-point-free involution needs an even node count, and f
    # preserves degrees.
    if start1 == start2 or tree.n % 2 or tree.degree(start1) != tree.degree(start2):
        return None
    f = port_preserving_automorphism(tree)
    if f is None or f[start1] != start2:
        return None
    return SymmetryCertificate(
        tree, start1, start2, tuple(f[x] for x in range(tree.n))
    )
