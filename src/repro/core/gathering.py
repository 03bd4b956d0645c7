"""Gathering of k identical agents: the paper's "natural extension" (§1.3).

The two-agent machinery generalizes cleanly exactly when the agents can
deterministically agree on one node of the contraction T':

- T' has a central node  → every agent walks there and waits;
- T' has a central edge but is not symmetric → every agent walks to the
  canonical extremity and waits.

In both cases *any* number of identical agents gathers, with arbitrary
per-agent delays, because the target computation is position-independent
(the same invariants as Stage 2's easy cases in Theorem 4.1).

When T' is symmetric, two-agent rendezvous needs the full desynchronization
machinery, and for k > 2 agents even feasibility is a research question the
paper does not address (cf. its references [20, 28, 33, 37]); the gathering
agent here simply keeps running the Theorem 4.1 Stage-2 loop, which gathers
*pairs* that meet but is not guaranteed to collect all k agents.  The
public entry point reports which regime an instance falls in.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..agents.program import AgentProgram
from ..records import TupleRecord, tuple_new
from ..sim.multi import GatheringOutcome, run_gathering
from ..trees.automorphism import port_preserving_automorphism
from ..trees.center import find_center
from ..trees.contraction import contract
from ..trees.tree import Tree
from .algorithm import rendezvous_agent

__all__ = ["GatheringRegime", "classify_gathering", "gather"]


class GatheringRegime(TupleRecord):
    """Which fragment of the gathering problem an instance belongs to."""

    __slots__ = ()

    def __new__(
        cls,
        kind: str,  # "central_node" | "central_edge_asymmetric" | "symmetric"
        guaranteed: bool,  # gathering provably achieved by the provided agent
    ):
        return tuple_new(cls, (kind, guaranteed))

    @property
    def easy(self) -> bool:
        return self.kind in ("central_node", "central_edge_asymmetric")


def classify_gathering(tree: Tree) -> GatheringRegime:
    """Classify the tree's contraction for the gathering problem."""
    contraction = contract(tree)
    tprime = contraction.contracted
    if tprime.n == 1 or find_center(tprime).is_node:
        return GatheringRegime("central_node", True)
    if port_preserving_automorphism(tprime) is None:
        return GatheringRegime("central_edge_asymmetric", True)
    return GatheringRegime("symmetric", False)


def gather(
    tree: Tree,
    starts: Sequence[int],
    *,
    delays: Optional[Sequence[int]] = None,
    max_rounds: Optional[int] = None,
    max_outer: int = 8,
) -> tuple[GatheringOutcome, GatheringRegime]:
    """Gather ``len(starts)`` identical Theorem 4.1 agents.

    In the easy regimes this succeeds for any delays; in the symmetric
    regime the outcome is best-effort (see module docstring) — the regime
    object tells the caller which case applies.
    """
    regime = classify_gathering(tree)
    budget = max_rounds
    if budget is None:
        from .rendezvous import estimate_round_budget

        budget = estimate_round_budget(tree, max_outer)
    prototype: AgentProgram = rendezvous_agent(max_outer=max_outer)
    outcome = run_gathering(
        tree, prototype, starts, delays=delays, max_rounds=budget
    )
    return outcome, regime
