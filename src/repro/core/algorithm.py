"""The Theorem 4.1 rendezvous agent: O(log ℓ + log log n) bits, delay 0.

Structure (paper §4.1):

Stage 1   Explo-bis from the initial position — learn T' (size ν, leaves ℓ,
          center type, basic-walk step counts, central-edge port).

Stage 2   * central node in T'                → walk there, wait forever;
          * central edge, T' not symmetric    → walk to the canonical
            extremity, wait forever;
          * central edge, T' symmetric        → the hard case:

            Sub-stage 2.1  Synchro (resynchronization).
            Sub-stage 2.2  walk to the farthest extremity ``v̂_far`` of the
            central path, then run the Figure-2 loop:

                for i = 1, 2, 3, ...:                      # outer loop
                    for j = 0 .. 2(ν-1):                   # 1st inner loop
                        bw(j); cbw(j)                      # desynchronizer
                        prime(i) on the rendezvous path P
                    cross the central path C
                    for j = 0 .. 2(ν-1):                   # 2nd inner loop
                        bw(j); cbw(j)                      # reset
                    cross C back

            The bw(j)/cbw(j) prefixes force the two agents' delays apart at
            some j unless the starts were perfectly symmetrizable
            (Lemma 4.3); once desynchronized by 0 < δ < |P|, prime(i) meets
            on P for some i = O(log n) (Lemma 4.1).

Every counter the agent stores is bounded by O(ℓ) or by the current prime
p = O(log(nℓ)) — the declared-register account is O(log ℓ + log log n) bits,
which the memory-scaling benchmark measures.
"""

from __future__ import annotations

from typing import Optional

from ..agents.observations import NULL_PORT
from ..agents.program import AgentProgram, Ctx, Registers, Routine, walk
from .explo import (
    CENTRAL_EDGE_SYMMETRIC,
    explo_bis_routine,
    walk_to_branching_count,
)
from .prime_walk import prime_rendezvous_routine
from .rendezvous_path import RendezvousPathNavigator
from .synchro import synchro_routine

__all__ = ["rendezvous_agent", "rendezvous_program"]


def _bw_cbw_pair(ctx: Ctx, regs: Registers, j: int, bound: int) -> Routine:
    """Perform bw(j) then cbw(j): out and back, anchored at a branching node.

    For j = 0 this is a no-op (the paper's empty first iteration).
    """
    regs.declare("bwj_arrivals", max(bound, 1))
    regs["bwj_arrivals"] = 0
    if j == 0:
        return
    yield from walk(ctx, 0, +1, j, 1, "bwj_arrivals")
    yield from walk(ctx, ctx.in_port, -1, j, 1, "bwj_arrivals")


def _cross_central(ctx: Ctx, central_port: int) -> Routine:
    """Traverse the central path C to its other extremity (speed 1)."""
    yield from walk(ctx, central_port)


def rendezvous_program(
    start_degree: int,
    regs: Registers,
    reps_factor: int = 5,
    max_outer: Optional[int] = None,
) -> Routine:
    """The full Theorem 4.1 agent as a register program (generator)."""
    ctx = Ctx(NULL_PORT, start_degree)
    if start_degree == 0:
        return  # one-node tree: the agents already share the node

    # ---- Stage 1: Explo-bis ------------------------------------------------
    explo = yield from explo_bis_routine(ctx, regs)
    nu = explo.nu
    arrivals_bound = max(2 * (nu - 1), 1)

    if explo.kind != CENTRAL_EDGE_SYMMETRIC:
        # Easy cases: both agents compute the same target node of T' and
        # wait there forever (returning ends the program = wait forever).
        yield from walk_to_branching_count(
            ctx, regs, explo.steps_to_target, arrivals_bound
        )
        return

    # ---- Stage 2, symmetric contraction -------------------------------------
    # Sub-stage 2.1: resynchronization.
    yield from synchro_routine(ctx, regs, explo)

    # Sub-stage 2.2: go to the farthest extremity of the central path.
    yield from walk_to_branching_count(
        ctx, regs, explo.steps_to_target, arrivals_bound
    )
    assert explo.central_port is not None
    nav = RendezvousPathNavigator(nu, explo.ell, explo.central_port, reps_factor)

    # Entering the steady-state loop, drop the stage-1/2 working state the
    # agent never reads again: the navigation data lives in `nav` and the
    # kept registers, and a bounded-memory agent reuses its scratch space.
    # (Beyond hygiene, this makes two agents' machine states from
    # different starts *identical* once they run the same loop from the
    # same extremity — which is what lets the lowering subsystem share
    # their trace suffixes, and what the mirror argument of Fact 1.1
    # predicts: the loop's behavior depends only on (ν, ℓ, central port).)
    del explo
    regs.release("explo_steps_to_target")
    regs.release("walk_arrivals")
    regs.release("synchro_arrivals")

    i = 1
    while max_outer is None or i <= max_outer:
        regs.declare("outer_i", i)
        regs["outer_i"] = i
        regs.declare("inner_j", arrivals_bound)
        # First inner loop: desynchronize, then attempt rendezvous on P.
        for j in range(0, 2 * (nu - 1) + 1):
            regs["inner_j"] = j
            yield from _bw_cbw_pair(ctx, regs, j, arrivals_bound)
            yield from prime_rendezvous_routine(ctx, regs, nav, max_primes=i)
        # Reset: mirror the other agent's inner-loop work from the other
        # extremity, so the next outer iteration starts with the same delay
        # (Claim 4.4).
        yield from _cross_central(ctx, nav.central_port)
        for j in range(0, 2 * (nu - 1) + 1):
            regs["inner_j"] = j
            yield from _bw_cbw_pair(ctx, regs, j, arrivals_bound)
        yield from _cross_central(ctx, nav.central_port)
        i += 1


def rendezvous_agent(
    reps_factor: int = 5, max_outer: Optional[int] = None
) -> AgentProgram:
    """The Theorem 4.1 agent, ready for :func:`repro.sim.run_rendezvous`.

    Parameters
    ----------
    reps_factor:
        The constant 5 in the ``5ℓ`` repetitions of the rendezvous path P
        (exposed for the ablation benchmark).
    max_outer:
        Cap on the outer loop index ``i`` (``None`` = run forever, as the
        paper's agent does; the simulator's round budget bounds it).
    """
    return AgentProgram(rendezvous_program, reps_factor, max_outer)
