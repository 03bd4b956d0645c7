"""Procedures Explo and Explo-bis (Fact 2.1 and §4.1 of the paper).

``Explo(v)`` explores the tree from ``v``, returns to ``v``, and learns:

- the number of nodes;
- whether the tree has a central node, an asymmetric central edge, or a
  symmetric central edge (symmetric = a port-preserving automorphism);
- the minimum number of basic-walk steps from ``v`` to the relevant target
  node (central node / canonical extremity / *farthest* extremity), and
  which port at that extremity lies on the central edge.

``Explo-bis`` (the §4.1 modification) ignores degree-2 nodes: started at a
node ``v`` of degree 2, the agent first walks (basic-walk rule, i.e. pass
straight through) until it enters a leaf ``v̂ = vleaf``; otherwise
``v̂ = v``.  From ``v̂`` the behavior projected on the contraction T' is
exactly Explo on T'.

Implementation note (DESIGN.md substitution #1): the physical behavior is a
single closed basic walk of T (round-accurate, ``2(n-1)`` rounds from
``v̂``); the outputs of Fact 2.1 are derived by online reconstruction of the
walk transcript.  The reconstruction is simulator bookkeeping standing in
for the O(log m)-bit automaton of [27]; the agent's *charged* memory is the
declared registers (O(log ℓ) worth for Explo-bis, since all counters range
over T', which has ν <= 2ℓ-1 nodes).  What the rendezvous algorithm needs
from Explo — Fact 2.1's outputs plus a duration that is a deterministic
function of (tree, start) identical for both agents — holds exactly.

Only Stage 1 reconstructs the tree.  Fact 2.1's rules live in one place,
``_facts_at(contraction, start)``: ``_analyze`` applies them to Explo's
own reconstruction, and Synchro (:mod:`.synchro`) applies them to Stage
1's contraction at each node where it inserts an Explo-bis, which it runs
as the bare closed walk followed by the same register writes
(``_charge_facts``).  The outputs are invariant under port-preserving
relabeling, so both readings agree.
"""

from __future__ import annotations

from typing import Optional

from ..agents.program import Ctx, Registers, Routine, move, walk
from ..errors import SimulationError
from ..records import TupleRecord, tuple_new
from ..trees.automorphism import port_labeled_nested_code, port_preserving_automorphism
from ..trees.basic_walk import TranscriptReconstructor, basic_walk_first_hit
from ..trees.center import find_center
from ..trees.contraction import Contraction, contract
from ..trees.tree import Tree

__all__ = [
    "CENTRAL_NODE",
    "CENTRAL_EDGE_ASYMMETRIC",
    "CENTRAL_EDGE_SYMMETRIC",
    "ExploResult",
    "explo_routine",
    "explo_bis_routine",
    "walk_to_branching_count",
]

CENTRAL_NODE = "central_node"
CENTRAL_EDGE_ASYMMETRIC = "central_edge_asymmetric"
CENTRAL_EDGE_SYMMETRIC = "central_edge_symmetric"


class ExploResult(TupleRecord):
    """Everything Fact 2.1 grants the agent after Explo(-bis).

    All node indices refer to the agent's own reconstruction, in which the
    start node ``v̂`` is node 0 of ``tree`` and node 0 of the contraction
    (``v̂`` has degree != 2, so it survives contraction).
    """

    __slots__ = ()

    def __new__(
        cls,
        tree: Tree,  # the reconstructed T (node 0 = v̂)
        contraction: Contraction,  # T' with maps back to the reconstruction
        kind: str,  # one of the three CENTRAL_* constants
        steps_to_target: int,  # T'-basic-walk steps from v̂ to the target node
        target: int,  # T'-index of the target (central node or chosen extremity)
        central_port: Optional[int],  # port of the central edge at the target
    ):
        return tuple_new(cls, (
            tree, contraction, kind, steps_to_target, target, central_port,
        ))

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def nu(self) -> int:
        """ν: number of nodes of T'."""
        return self.contraction.nu

    @property
    def ell(self) -> int:
        """ℓ: number of leaves (shared by T and T')."""
        return self.tree.num_leaves


def explo_routine(ctx: Ctx, regs: Registers) -> Routine:
    """Explo from a node of degree != 2 (or the one-node tree).

    Performs one closed basic walk (``2(n-1)`` rounds), ends back at the
    start node, and returns an :class:`ExploResult`.
    """
    if ctx.degree == 0:  # one-node tree: nothing to explore
        tree = Tree([[]], validate=False)
        return ExploResult(tree, contract(tree), CENTRAL_NODE, 0, 0, None)
    if ctx.degree == 2:
        raise SimulationError("Explo must start at a node of degree != 2; use Explo-bis")

    rec = TranscriptReconstructor(ctx.degree)
    port = 0
    while not rec.closed:
        out = port
        ctx.in_port, ctx.degree = yield out  # one move, as ``move`` makes it
        ctx.rounds += 1
        rec.feed(out, ctx.in_port, ctx.degree)
        port = (ctx.in_port + 1) % ctx.degree
    result = _analyze(rec.tree())
    _charge_facts(regs, result.nu, result.steps_to_target, result.central_port)
    return result


def _charge_facts(
    regs: Registers, nu: int, steps_to_target: int, central_port: Optional[int]
) -> None:
    """Write Fact 2.1's outputs into the registers Explo declares.

    This charges the agent for Fact 2.1's memory: counters over T'.  (For
    plain Explo on a tree with no degree-2 nodes, T' = T and this is
    O(log n); inside the rendezvous algorithm T has few leaves and this is
    O(log ℓ).)
    """
    regs.declare("explo_nu", max(2 * nu, 2))
    regs["explo_nu"] = nu
    regs.declare("explo_steps_to_target", max(2 * (nu - 1), 1))
    regs["explo_steps_to_target"] = steps_to_target
    if central_port is not None:
        regs.declare("explo_central_port", max(central_port, 1))
        regs["explo_central_port"] = central_port


def explo_bis_routine(ctx: Ctx, regs: Registers) -> Routine:
    """Explo-bis: Explo ignoring degree-2 nodes (§4.1).

    From a degree-2 start the agent first follows the basic walk (state
    ``s₀*``: pass straight through) until entering a *leaf*; that leaf is
    ``v̂``.  Then Explo runs from ``v̂``.
    """
    if ctx.degree == 2:
        # Leave through port 0 and pass through until a leaf is entered.
        yield from move(ctx, 0)
        while ctx.degree != 1:
            yield from move(ctx, (ctx.in_port + 1) % ctx.degree)
    return (yield from explo_routine(ctx, regs))


def walk_to_branching_count(ctx: Ctx, regs: Registers, count: int, bound: int) -> Routine:
    """Basic walk from the current node until ``count`` arrivals at nodes of
    degree != 2 (the walk that "reaches node x of T'", §4.1 Stage 2).

    ``bound`` is the declared register bound for the arrival counter
    (callers pass ``2(ν-1)`` so the counter costs O(log ℓ) bits).
    """
    regs.declare("walk_arrivals", max(bound, 1))
    regs["walk_arrivals"] = 0
    yield from walk(ctx, 0, +1, count, 1, "walk_arrivals")


def _analyze(tree: Tree) -> ExploResult:
    """Fact 2.1 post-processing on the reconstructed tree (start = node 0)."""
    contraction = contract(tree)
    start = contraction.from_original[0]  # node 0 has degree != 2
    return ExploResult(tree, contraction, *_facts_at(contraction, start))


def _facts_at(
    contraction: Contraction, start: int
) -> tuple[str, int, int, Optional[int]]:
    """Fact 2.1's outputs ``(kind, steps_to_target, target, central_port)``
    for an Explo(-bis) closing at T'-node ``start``.

    Every output is invariant under port-preserving relabeling, so any
    port-faithful map of the tree gives the agent's own answer.
    """
    tprime = contraction.contracted
    if tprime.n == 1:
        return CENTRAL_NODE, 0, start, None

    center = find_center(tprime)
    if center.is_node:
        steps = basic_walk_first_hit(tprime, start, center.node)
        return CENTRAL_NODE, int(steps), center.node, None

    x, y = center.edge  # type: ignore[misc]
    if port_preserving_automorphism(tprime) is not None:
        # Symmetric: target is the FARTHEST extremity from the start
        # (Fact 2.1's "why the farthest" footnote; distances from v̂ to the
        # two extremities differ by parity, so there is no tie).
        dist = tprime.bfs_distances(start)
        target = x if dist[x] > dist[y] else y
        kind = CENTRAL_EDGE_SYMMETRIC
    else:
        # Asymmetric: both agents must pick the SAME extremity.  The key is
        # invariant under the agents' private node numberings: the central
        # edge's port at the extremity, then the port-labeled code of the
        # extremity's half.  Equal keys would imply a port-preserving
        # automorphism, contradicting asymmetry.
        key_x = (tprime.port(x, y), port_labeled_nested_code(tprime, x, block=y))
        key_y = (tprime.port(y, x), port_labeled_nested_code(tprime, y, block=x))
        if key_x == key_y:  # pragma: no cover - excluded by asymmetry
            raise SimulationError("asymmetric central edge produced equal keys")
        target = x if key_x < key_y else y
        kind = CENTRAL_EDGE_ASYMMETRIC

    steps = basic_walk_first_hit(tprime, start, target)
    other = y if target == x else x
    return kind, int(steps), target, tprime.port(target, other)
