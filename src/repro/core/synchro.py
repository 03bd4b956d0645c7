"""Procedure Synchro (§4.1, Sub-stage 2.1): resynchronization.

After Stage 1 each agent sits at its ``v̂``.  Synchro performs a closed
basic walk of T (stopping after ``2(ν-1)`` T'-edge traversals, i.e.
branching-node arrivals), inserting a full ``Explo-bis(w)`` at every visited
branching node *except the last one* (the final return to ``v̂``).

Because the two agents perform identical multisets of actions (in different
orders), they finish Synchro with delay exactly ``β = |L - L'|`` where L, L'
are the basic-walk lengths from the true starts to the respective ``v̂``
(Claim 4.2).  In this implementation Explo-bis from a branching node always
takes ``2(n-1)`` rounds, which makes Claim 4.2 hold with room to spare; the
insertion structure is kept anyway for fidelity to the paper's protocol.

Each inserted Explo-bis is one :class:`~repro.agents.program.Block`: it
ends where it starts, after ``2(n-1)`` edges, and its register writes
(``explo_nu``, ``explo_steps_to_target``, ``explo_central_port``)
depend only on that node.  Engines expand it round by round; the solo
replay (:func:`repro.agents.program.drive`) runs it once per branching
node and jumps every repeat.
"""

from __future__ import annotations

from ..agents.program import Block, Ctx, Registers, Routine, walk
from .explo import ExploResult, explo_bis_routine

__all__ = ["synchro_routine"]

_EXPLO_BIS_KEY = ("explo-bis",)


def synchro_routine(ctx: Ctx, regs: Registers, explo: ExploResult) -> Routine:
    """Run Synchro from ``v̂`` (current position, degree != 2); ends at ``v̂``.

    ``explo`` is the agent's own Stage-1 result (provides ν).  Each
    inserted Explo-bis is a :class:`~repro.agents.program.Block` keyed
    ``("explo-bis",)``; its :class:`ExploResult` is thrown away, only
    its rounds and register writes count.
    """
    nu = explo.nu
    total = 2 * (nu - 1)
    if total == 0:  # T' is a single node: nothing to synchronize over
        return
    regs.declare("synchro_arrivals", total)
    regs["synchro_arrivals"] = 0
    port = 0  # the basic walk leaves v̂ by port 0
    arrivals = 0
    while arrivals < total:
        yield from walk(ctx, port)  # pass through the contracted paths
        arrivals += 1
        regs["synchro_arrivals"] = arrivals
        resume = (ctx.in_port + 1) % ctx.degree
        if arrivals < total:
            # Insert Explo-bis(w); the current node w has degree != 2, so
            # this is a closed Explo taking 2(n-1) rounds and ending at w.
            yield from _inserted_explo(ctx, regs, 1)
        port = resume


def _inserted_explo(ctx: Ctx, regs: Registers, speed: int) -> Routine:
    """One inserted Explo-bis as a block; runs it unless jumped whole.

    Explo-bis moves every round, so Synchro passes ``speed`` 1.
    """
    done = yield Block(_EXPLO_BIS_KEY, _inserted_explo, speed)
    if done is not None:  # jumped whole
        ctx.in_port, ctx.degree, rounds = done
        ctx.rounds += rounds
        return
    yield from explo_bis_routine(ctx, regs)
