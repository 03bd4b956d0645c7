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

Each inserted Explo-bis is run as the physical behaviour it stands for.
From a branching node w, Explo-bis is one closed basic walk: it leaves by
port 0, makes ``2(ν-1)`` arrivals at nodes of degree != 2 (``2(n-1)``
rounds) and ends back at w.  So Synchro yields that walk and then makes
the register writes Explo makes (``explo_nu``, ``explo_steps_to_target``,
``explo_central_port``: same bounds, same order), with Fact 2.1's
outputs at w taken from Stage 1's map of the tree.  This is exact:

- every driver sees the same rounds as an interpreted Explo-bis:
  ``AgentProgram.step`` expands the walk into the same per-round moves,
  and :func:`~repro.agents.program.drive` jumps it through its walk memo;
- Explo's outputs come from reconstructing its walk transcript, which is
  simulator bookkeeping (the implementation note in :mod:`.explo`); Stage
  1 reconstructed the same port-labeled tree, and Fact 2.1's outputs are
  invariant under port-preserving relabeling, so reading them off Stage
  1's contraction T' at w is an equivalent stand-in;
- Synchro follows its own position in T' (one ``T'.move`` per arrival, as
  contraction keeps the ports at branching nodes), and that position is
  a function of the declared ``synchro_arrivals`` register, so no charged
  memory is added.
"""

from __future__ import annotations

from ..agents.program import Ctx, Registers, Routine, walk
from ..errors import SimulationError
from .explo import ExploResult, _charge_facts, _facts_at

__all__ = ["synchro_routine"]


def synchro_routine(ctx: Ctx, regs: Registers, explo: ExploResult) -> Routine:
    """Run Synchro from ``v̂`` (current position, degree != 2); ends at ``v̂``.

    ``explo`` is the agent's own Stage-1 result: it provides ν and the
    map T' in which Synchro follows its position.  Each inserted
    Explo-bis is one closed :class:`~repro.agents.program.Walk` of
    ``2(ν-1)`` arrivals followed by Explo's register writes, whose values
    are Fact 2.1's outputs at the current T' node (computed once per
    node, before the first move).
    """
    nu = explo.nu
    total = 2 * (nu - 1)
    if total == 0:  # T' is a single node: nothing to synchronize over
        return
    tprime = explo.contraction.contracted
    # (steps_to_target, central_port) of an Explo-bis closing at each T' node.
    facts = tuple(
        (steps, central_port)
        for _kind, steps, _target, central_port in (
            _facts_at(explo.contraction, a) for a in range(nu)
        )
    )
    here = explo.contraction.from_original[0]  # v̂ is node 0 of Stage 1's map
    regs.declare("synchro_arrivals", total)
    regs["synchro_arrivals"] = 0
    port = 0  # the basic walk leaves v̂ by port 0
    arrivals = 0
    while arrivals < total:
        yield from walk(ctx, port)  # pass through the contracted paths
        here, in_port = tprime.move(here, port)
        if (in_port, tprime.degree(here)) != (ctx.in_port, ctx.degree):
            raise SimulationError(
                f"Synchro left Stage 1's map: arrived by port {ctx.in_port} at "
                f"degree {ctx.degree}, T' says port {in_port} at degree "
                f"{tprime.degree(here)}"
            )
        arrivals += 1
        regs["synchro_arrivals"] = arrivals
        resume = (ctx.in_port + 1) % ctx.degree
        if arrivals < total:
            # Insert Explo-bis(w): w has degree != 2, so this is a closed
            # basic walk of 2(ν-1) arrivals, 2(n-1) rounds, ending at w.
            yield from walk(ctx, 0, +1, total)
            _charge_facts(regs, nu, *facts[here])
        port = resume
