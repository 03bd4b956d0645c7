"""Shared pieces of the lower-bound constructions.

Both line adversaries (Thms 3.1 and 4.2) fall back to the same *bounded
agent* construction when the victim never leaves a finite radius: put the
two copies far enough apart on a line with a central node (odd node count,
so no pair is perfectly symmetrizable — §2.2: a tree with a central node
admits no symmetric labeling) and their activity ranges never intersect.

The module also centralizes the *reference bit values* of the paper's
bounds, so every upper-bound measurement (the gap table, the program
memory atlas) can pair its honest minimized-bits column with the matching
lower-bound floor:

- delay 0 on an n-node tree with ℓ leaves: Ω(log log n) (Thm 4.2) and
  Ω(log ℓ) (Thm 4.3), so the floor is their max;
- arbitrary delay: Ω(log n) (Thm 3.1).
"""

from __future__ import annotations

from ..core.memory import log_bits, loglog_bits
from ..records import TupleRecord, tuple_new
from ..trees.labelings import edge_colored_line
from ..trees.tree import Tree

__all__ = [
    "BoundedPlacement",
    "bounded_agent_placement",
    "delay0_bound_bits",
    "arbitrary_delay_bound_bits",
]


def delay0_bound_bits(n: int, leaves: int) -> int:
    """The delay-0 lower-bound floor for an n-node, ℓ-leaf tree, in bits:
    ``max(Ω(log log n), Ω(log ℓ))`` with the reproduction's reference
    constants (both 1)."""
    return max(loglog_bits(max(n, 2)), log_bits(max(leaves, 1)))


def arbitrary_delay_bound_bits(n: int) -> int:
    """The arbitrary-delay lower-bound floor, in bits: Ω(log n) — a
    b-bit automaton is defeated on a line of O(2^b) edges (Thm 3.1), so
    surviving every n-node line costs ~log n bits."""
    return log_bits(max(n, 2))


class BoundedPlacement(TupleRecord):
    """Disjoint-ranges placement defeating a radius-``radius`` agent."""

    __slots__ = ()

    def __new__(cls, tree: Tree, start1: int, start2: int, radius: int):
        return tuple_new(cls, (tree, start1, start2, radius))

    @property
    def line_edges(self) -> int:
        return self.tree.num_edges


def bounded_agent_placement(radius: int) -> BoundedPlacement:
    """The disjoint-ranges line for an agent that never leaves ``radius``.

    Nodes: ``4·radius + 7`` (odd — central node, every pair feasible).
    Starts ``2·radius + 2`` apart with ``radius + 2`` margin to each end:
    the activity balls ``[start ± radius]`` are disjoint and interior.
    """
    n = 4 * radius + 7
    tree = edge_colored_line(n)
    p1 = radius + 2
    p2 = p1 + 2 * radius + 2
    return BoundedPlacement(tree, p1, p2, radius)
