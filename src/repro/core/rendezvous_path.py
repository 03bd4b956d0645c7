"""The virtual rendezvous path P of Theorem 4.1 (§4.1, Sub-stage 2.2).

With ``u`` and ``v`` the two extremities (in T) of the central path C
(the path contracted into T''s central edge), the paper defines

    P = (B_u | C_{u->v} | B̄_v | C_{v->u})^{5ℓ} | (B_u | C_{u->v} | B̄_v)

where ``B_u`` is the closed walk of the instruction ``bw(2(ν-1))`` from
``u`` (a full basic-walk tour of T, projected onto T') and ``B̄_v`` the
closed walk of ``cbw(2(ν-1))`` from ``v``.  Claim 4.3: an agent standing at
*either* extremity that executes

    (bw(2(ν-1)), C, cbw(2(ν-1)), C)^{5ℓ}, bw(2(ν-1)), C, cbw(2(ν-1))

traverses P from its extremity to the other one.  Both directions of P are
thus realized by the *same* instruction sequence, which is what the
:class:`RendezvousPathNavigator` below executes — at speed ``1/p`` (idle
``p-1`` rounds before every edge) for the prime protocol.

Every segment is one basic-walk instruction
(:class:`~repro.agents.program.Walk`): a tour is ``2(ν-1)`` branching
arrivals by ``bw``/``cbw``, a crossing of C is one arrival.  A whole
traversal is one :class:`~repro.agents.program.Block` keyed by ``(ν,
5ℓ, central port)``: its end node, edge count and register effects
depend only on the extremity it starts from.  Engines expand it walk by
walk and each walk round by round; the solo replay behind the memory
experiments (:func:`repro.agents.program.drive`) builds it once per
extremity at speed 1 and then jumps each traversal, at every prime
speed, as one instruction.

The navigator's counters: a segment-repetition counter up to ``5ℓ`` and a
branching-arrival counter up to ``2(ν-1)`` — O(log ℓ) bits, as Theorem 4.1
requires.  The agent's *position on P* is never stored; it is implicit in
the physical position plus these counters.
"""

from __future__ import annotations

from ..agents.program import Block, Ctx, Registers, Routine, walk

__all__ = ["RendezvousPathNavigator", "rendezvous_path_num_edges"]


def rendezvous_path_num_edges(n: int, nu: int, ell: int, chain_len: int, reps_factor: int = 5) -> int:
    """Number of T-edge traversals of one full traversal of P.

    ``chain_len`` is the number of T-edges of the central path C.  Each
    bw/cbw segment is a full doubled-edge tour of T: ``2(n-1)`` steps.
    Used by tests and the experiment harness (not by agents).
    """
    reps = reps_factor * ell
    segments_b = 2 * reps + 2  # bw/cbw segments
    segments_c = 2 * reps + 1  # C crossings
    return segments_b * 2 * (n - 1) + segments_c * chain_len


class RendezvousPathNavigator:
    """Executes one traversal of P from the current extremity of C.

    Parameters
    ----------
    nu:
        ν — the number of nodes of T' (known from Explo).
    ell:
        ℓ — the number of leaves (known from Explo's reconstruction).
    central_port:
        The port of the central path at *both* extremities (equal by the
        symmetry of T', which is the only case P is used in).
    reps_factor:
        The paper's 5 in ``5ℓ``; exposed for ablation benchmarks.
    """

    def __init__(self, nu: int, ell: int, central_port: int, reps_factor: int = 5) -> None:
        self.nu = nu
        self.ell = ell
        self.central_port = central_port
        self.reps = reps_factor * ell
        self.key = ("P", nu, self.reps, central_port)

    # -- public API ----------------------------------------------------------
    def traverse(self, ctx: Ctx, regs: Registers, speed: int) -> Routine:
        """Walk P once, ending at the other extremity of C.

        The traversal is one :class:`~repro.agents.program.Block`; its
        walks run here only when the driver answers ``None``.
        """
        done = yield Block(self.key, self.traverse, speed)
        if done is not None:  # jumped whole
            ctx.in_port, ctx.degree, rounds = done
            ctx.rounds += rounds
            return
        regs.declare("path_rep", max(self.reps, 1))
        for r in range(self.reps):
            regs["path_rep"] = r
            yield from self._tour(ctx, regs, speed, delta=+1, first_port=0)
            yield from self._cross(ctx, regs, speed)
            yield from self._tour(ctx, regs, speed, delta=-1, first_port=ctx.in_port)
            yield from self._cross(ctx, regs, speed)
        yield from self._tour(ctx, regs, speed, delta=+1, first_port=0)
        yield from self._cross(ctx, regs, speed)
        yield from self._tour(ctx, regs, speed, delta=-1, first_port=ctx.in_port)

    # -- segments --------------------------------------------------------------
    def _tour(
        self, ctx: Ctx, regs: Registers, speed: int, delta: int, first_port: int
    ) -> Routine:
        """bw(2(ν-1)) (delta=+1) or cbw(2(ν-1)) (delta=-1) at speed 1/speed.

        Both are closed tours of T': the agent ends where it started.
        """
        total = 2 * (self.nu - 1)
        regs.declare("path_arrivals", max(total, 1))
        regs["path_arrivals"] = 0
        yield from walk(ctx, first_port, delta, total, speed, "path_arrivals")

    def _cross(self, ctx: Ctx, regs: Registers, speed: int) -> Routine:
        """Traverse the central path C to the other extremity.

        The walk's pass-through port comes from the entry port of the
        previous *move*, held across the idle rounds — a null move resets
        the observation to ``(-1, d)`` (paper §2.1), exactly as a real
        automaton would have to hold the port in its state.
        """
        yield from walk(ctx, self.central_port, +1, 1, speed)
