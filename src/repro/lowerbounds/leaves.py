"""Theorem 4.3: the Ω(log ℓ) adversary (trees with ℓ leaves, max degree 3).

For ℓ = 2i, there are ``2^(i-1)`` side trees but a K-state agent admits at
most ``(K·D)^K`` distinct *behavior functions* — its complete input/output
signature on a side tree:

    q(s) = (p(s), t):  entering the side tree from the adjacent joining
    node in state s, the agent returns to that node in state p(s) after t
    rounds (or never: ⊥).

When ``K log(K·D) < ℓ/2 - 1`` the pigeonhole principle yields two
*non-isomorphic* side trees T1, T2 with identical behavior functions.  The
two-sided tree joining T1 and T2 (odd joining path, mirror-symmetric
labeling) with the agents started simultaneously at the joining nodes
adjacent to the roots is then indistinguishable, to the agents, from the
perfectly symmetric instance (T1, T1): they enter and leave the side trees
at the same times in the same states, and the joining line's symmetric
labeling keeps them apart — yet (T1, T2) is not perfectly symmetrizable.

This module computes behavior functions by direct simulation, finds a
colliding pair, builds the two-sided instance, and machine-certifies
non-meeting.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..agents.automaton import Automaton
from ..agents.observations import NULL_PORT, STAY
from ..errors import ConstructionError
from ..sim.compiled import run_rendezvous_fast
from ..sim.engine import RendezvousOutcome
from ..trees.automorphism import perfectly_symmetrizable
from ..trees.sidetrees import SideTree, TwoSided, all_side_trees, root_edge_color, two_sided_tree
from ..trees.tree import Tree

__all__ = [
    "BehaviorFunction",
    "behavior_function",
    "find_colliding_side_trees",
    "Thm43Instance",
    "build_thm43_instance",
]

# q(s): (return state, tour duration) or None for "never returns".
BehaviorFunction = tuple[Optional[tuple[int, int]], ...]


def behavior_function(automaton: Automaton, side: SideTree, m: int) -> BehaviorFunction:
    """The agent's tour signature on ``side``, for every possible state.

    A *tour* starts when the agent moves from the adjacent joining node
    ``u`` into the root while in state ``s`` (that move is emitted by λ(s))
    and ends the first time it re-enters ``u``.  The returned entry is
    ``(p, t)``: ``p`` = the state after processing the arrival observation
    at ``u`` (degree 2), ``t`` = rounds from entering the root through
    arriving back at ``u``; ``None`` if the agent never comes back
    (a configuration recurrence inside the side tree).
    """
    harness = two_sided_tree(side, side, m)
    tree = harness.tree
    root, u = harness.root1, harness.u
    port_u_root = tree.port(u, root)
    out: list[Optional[tuple[int, int]]] = []
    for s in range(automaton.num_states):
        out.append(_tour(automaton, tree, root, u, port_u_root, s))
    return tuple(out)


def _tour(
    automaton: Automaton,
    tree: Tree,
    root: int,
    u: int,
    port_u_root: int,
    entry_state: int,
) -> Optional[tuple[int, int]]:
    pos = root
    in_port = tree.port(root, u)
    state = entry_state
    rounds = 1  # the u -> root move is the tour's first round
    seen: set[tuple[int, int, int]] = set()
    while True:
        key = (state, pos, in_port)
        if key in seen:
            return None  # trapped inside: never returns to u
        seen.add(key)
        degree = tree.degree(pos)
        state = automaton.transition(state, in_port, degree)
        action = automaton.output[state]
        rounds += 1
        if action == STAY or degree == 0:
            in_port = NULL_PORT
            continue
        nxt, nxt_in = tree.move(pos, action % degree)
        if nxt == u:
            final = automaton.transition(state, port_u_root, 2)
            return (final, rounds)
        pos, in_port = nxt, nxt_in


def find_colliding_side_trees(
    automaton: Automaton, i: int, m: int
) -> Optional[tuple[SideTree, SideTree, BehaviorFunction]]:
    """First pair of side trees (for ℓ = 2i) with equal behavior functions."""
    seen: dict[BehaviorFunction, SideTree] = {}
    for side in all_side_trees(i, root_port_up=root_edge_color(m)):
        q = behavior_function(automaton, side, m)
        if q in seen:
            return (seen[q], side, q)
        seen[q] = side
    return None


class Thm43Instance(NamedTuple):
    """A defeating two-sided tree for one concrete agent, delay 0."""

    two_sided: TwoSided
    side1: SideTree
    side2: SideTree
    behavior: BehaviorFunction
    ell: int
    memory_bits: int
    outcome: Optional[RendezvousOutcome]

    @property
    def tree(self) -> Tree:
        return self.two_sided.tree

    @property
    def certified(self) -> bool:
        return self.outcome is not None and self.outcome.certified_never


def build_thm43_instance(
    automaton: Automaton,
    i: int,
    *,
    m: int = 4,
    verify: bool = True,
    verify_rounds: int = 4_000_000,
) -> Thm43Instance:
    """Construct (and certify) the Theorem 4.3 defeating instance.

    Raises :class:`ConstructionError` when no two side trees collide — the
    informative outcome for an agent whose memory is large relative to
    ℓ = 2i (the theorem only promises collisions when K log(KD) < ℓ/2 - 1).
    """
    if m % 2 != 0 or m < 2:
        raise ConstructionError("m must be even and >= 2")
    collision = find_colliding_side_trees(automaton, i, m)
    if collision is None:
        raise ConstructionError(
            f"no behavior-function collision among {2 ** (i - 1)} side trees: "
            f"the agent's {automaton.memory_bits} bits are too many for ℓ = {2 * i}"
        )
    side1, side2, q = collision
    ts = two_sided_tree(side1, side2, m)
    if perfectly_symmetrizable(ts.tree, ts.u, ts.v):  # pragma: no cover
        raise ConstructionError("Thm 4.3 produced a symmetrizable pair")

    outcome = None
    if verify:
        outcome = run_rendezvous_fast(
            ts.tree,
            automaton,
            ts.u,
            ts.v,
            delay=0,
            max_rounds=verify_rounds,
            certify=True,
        )
        if outcome.met:
            raise ConstructionError(
                f"Thm 4.3 construction failed: agents met at round {outcome.meeting_round}"
            )
        if not outcome.certified_never:  # pragma: no cover
            raise ConstructionError("Thm 4.3 verification inconclusive")
    return Thm43Instance(
        ts, side1, side2, q, 2 * i, automaton.memory_bits, outcome
    )
