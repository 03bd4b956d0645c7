"""Feasibility classification (Fact 1.1 and §1's taxonomy).

For a tree and a pair of start nodes, classify:

- *perfectly symmetrizable* — no identical deterministic agents can ever
  rendezvous under Definition 1.1 (quantified over labelings);
- *topologically symmetric but not perfectly symmetrizable* — the paper's
  interesting class (odd lines' endpoints, complete binary tree leaves);
- *asymmetric* — not even topologically symmetric.

Also provides per-tree summaries used by the experiment drivers and the
examples.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ..records import TupleRecord, tuple_new
from ..trees.automorphism import (
    CodeInterner,
    are_topologically_symmetric,
    has_symmetrizing_labeling,
    perfectly_symmetrizable,
    rooted_code,
)
from ..trees.center import find_center
from ..trees.tree import Tree

__all__ = [
    "PairClass",
    "classify_pair",
    "classify_all_pairs",
    "FeasibilitySummary",
    "summarize_tree",
]


PERFECTLY_SYMMETRIZABLE = "perfectly_symmetrizable"
SYMMETRIC_FEASIBLE = "topologically_symmetric_feasible"
ASYMMETRIC = "asymmetric"


class PairClass(TupleRecord):
    """Classification of one start pair."""

    __slots__ = ()

    def __new__(cls, u: int, v: int, kind: str):
        return tuple_new(cls, (u, v, kind))

    @property
    def feasible(self) -> bool:
        """Fact 1.1: rendezvous solvable iff not perfectly symmetrizable."""
        return self.kind != PERFECTLY_SYMMETRIZABLE


def classify_pair(tree: Tree, u: int, v: int) -> PairClass:
    if perfectly_symmetrizable(tree, u, v):
        return PairClass(u, v, PERFECTLY_SYMMETRIZABLE)
    if are_topologically_symmetric(tree, u, v):
        return PairClass(u, v, SYMMETRIC_FEASIBLE)
    return PairClass(u, v, ASYMMETRIC)


def classify_all_pairs(tree: Tree) -> Iterator[PairClass]:
    """Classify every unordered pair, sharing the per-tree work.

    Semantically identical to calling :func:`classify_pair` per pair, but
    computes the center once and one marked AHU code per (node, root)
    instead of re-deriving them for each of the O(n²) pairs — the same
    amortize-the-preprocessing move the compiled simulation backend makes.
    """
    n = tree.n
    center = find_center(tree)
    interner = CodeInterner()
    if center.is_node:
        c = center.node
        marked = [rooted_code(tree, c, w, interner=interner) for w in range(n)]
        # No central edge: never perfectly symmetrizable (Def 1.2).
        for u, v in itertools.combinations(range(n), 2):
            kind = SYMMETRIC_FEASIBLE if marked[u] == marked[v] else ASYMMETRIC
            yield PairClass(u, v, kind)
        return
    x, y = center.edge  # type: ignore[misc]
    half_x = set(tree.subtree_nodes(x, y))
    # Whole-tree codes rooted at each extremity (topological symmetry) and
    # half-tree codes (perfect symmetrizability), one per node.
    mx = [rooted_code(tree, x, w, interner=interner) for w in range(n)]
    my = [rooted_code(tree, y, w, interner=interner) for w in range(n)]
    half_code = {
        w: (
            rooted_code(tree, x, w, block=y, interner=interner)
            if w in half_x
            else rooted_code(tree, y, w, block=x, interner=interner)
        )
        for w in range(n)
    }
    for u, v in itertools.combinations(range(n), 2):
        if (u in half_x) != (v in half_x) and half_code[u] == half_code[v]:
            yield PairClass(u, v, PERFECTLY_SYMMETRIZABLE)
        elif mx[u] == mx[v] or (mx[u] == my[v] and my[u] == mx[v]):
            yield PairClass(u, v, SYMMETRIC_FEASIBLE)
        else:
            yield PairClass(u, v, ASYMMETRIC)


class FeasibilitySummary(TupleRecord):
    """Counts of pair classes plus structural facts for one tree."""

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        leaves: int,
        center_kind: str,  # "node" or "edge"
        symmetrizable_tree: bool,  # some labeling admits a nontrivial automorphism
        pairs_total: int,
        pairs_perfectly_symmetrizable: int,
        pairs_symmetric_feasible: int,
        pairs_asymmetric: int,
    ):
        return tuple_new(cls, (
            n, leaves, center_kind, symmetrizable_tree, pairs_total,
            pairs_perfectly_symmetrizable, pairs_symmetric_feasible, pairs_asymmetric,
        ))

    @property
    def pairs_feasible(self) -> int:
        return self.pairs_symmetric_feasible + self.pairs_asymmetric


def summarize_tree(tree: Tree) -> FeasibilitySummary:
    counts = {PERFECTLY_SYMMETRIZABLE: 0, SYMMETRIC_FEASIBLE: 0, ASYMMETRIC: 0}
    total = 0
    for pc in classify_all_pairs(tree):
        counts[pc.kind] += 1
        total += 1
    center = find_center(tree)
    return FeasibilitySummary(
        n=tree.n,
        leaves=tree.num_leaves,
        center_kind="node" if center.is_node else "edge",
        symmetrizable_tree=has_symmetrizing_labeling(tree),
        pairs_total=total,
        pairs_perfectly_symmetrizable=counts[PERFECTLY_SYMMETRIZABLE],
        pairs_symmetric_feasible=counts[SYMMETRIC_FEASIBLE],
        pairs_asymmetric=counts[ASYMMETRIC],
    )
