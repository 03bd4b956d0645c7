"""Public solving API: run the paper's algorithms on concrete instances.

This is the front door of the library:

>>> from repro.trees import complete_binary_tree
>>> from repro.core import solve
>>> result = solve(complete_binary_tree(3), 3, 11)
>>> result.outcome.met
True
>>> result.memory.declared >= 0  # bits the executed agent declared
True
"""

from __future__ import annotations

from typing import Callable, Optional

from ..agents.program import AgentProgram
from ..errors import InfeasibleRendezvousError
from ..records import TupleRecord, tuple_new
from ..sim.compiled import run_rendezvous_fast
from ..sim.engine import RendezvousOutcome
from ..trees.automorphism import perfectly_symmetrizable
from ..trees.contraction import contract
from ..trees.tree import Tree
from .algorithm import rendezvous_agent
from .baseline import baseline_agent
from .memory import MemoryReport, memory_report
from .prime_walk import nth_prime
from .rendezvous_path import rendezvous_path_num_edges

__all__ = ["SolveResult", "solve", "solve_with_delay", "estimate_round_budget"]


class SolveResult(TupleRecord):
    """Outcome of a rendezvous run plus the agent's memory account.

    The two agents are identical; ``memory`` reports the registers of the
    prototype's last clone executed (both clones declare the same bounds in
    a meeting run, so either is representative).
    """

    __slots__ = ()

    def __new__(
        cls,
        outcome: RendezvousOutcome,
        memory: Optional[MemoryReport],
        feasible: bool,
    ):
        return tuple_new(cls, (outcome, memory, feasible))

    @property
    def met(self) -> bool:
        return self.outcome.met


def estimate_round_budget(tree: Tree, max_outer: int = 8) -> int:
    """A generous upper estimate of the rounds the Thm 4.1 agent needs.

    Sums Stage 1 + Synchro + ``max_outer`` outer iterations, each costing
    (2nu - 1) inner iterations of bw/cbw plus prime(i) on P at the worst
    prime.  Used as the default simulator budget.
    """
    n = tree.n
    c = contract(tree)
    nu, ell = c.nu, tree.num_leaves
    chain = max(
        (len(path) - 1 for path in c.paths.values()), default=1
    )
    path_edges = rendezvous_path_num_edges(n, nu, ell, chain)
    stage1 = 4 * n
    synchro = (2 * nu + 2) * 2 * n
    budget = stage1 + synchro + 4 * n
    for i in range(1, max_outer + 1):
        prime_rounds = sum(2 * path_edges * nth_prime(k) for k in range(1, i + 1))
        inner = (2 * nu + 1) * (2 * 2 * n + prime_rounds)
        budget += inner + 2 * n + (2 * nu + 1) * 4 * n
    return budget


def solve(
    tree: Tree,
    start1: int,
    start2: int,
    *,
    max_rounds: Optional[int] = None,
    max_outer: int = 8,
    record_trace: bool = False,
    check_feasibility: bool = True,
    agent: Optional[AgentProgram] = None,
    engine: Optional[Callable] = None,
) -> SolveResult:
    """Run the Theorem 4.1 algorithm (simultaneous start, delay 0).

    Raises :class:`InfeasibleRendezvousError` for perfectly symmetrizable
    starts when ``check_feasibility`` (the paper's model only defines the
    task for feasible instances); pass ``check_feasibility=False`` to watch
    the agents run forever instead.

    ``engine`` overrides the simulation engine (default
    :func:`repro.sim.run_rendezvous_fast`): the scenario executors pass
    ``backend.run`` here so ``--backend`` reaches these runs too.  Note
    that a traced (lowered) engine returns unexecuted agent clones, so
    ``result.memory`` is ``None`` on that path — the experiments measure
    memory on solo replays instead.
    """
    feasible = not perfectly_symmetrizable(tree, start1, start2)
    if check_feasibility and not feasible:
        raise InfeasibleRendezvousError(
            f"nodes {start1} and {start2} are perfectly symmetrizable; "
            "no deterministic identical agents can rendezvous (Fact 1.1)"
        )
    prototype = agent if agent is not None else rendezvous_agent(max_outer=max_outer)
    budget = max_rounds if max_rounds is not None else estimate_round_budget(tree, max_outer)
    run = engine if engine is not None else run_rendezvous_fast
    outcome = run(
        tree,
        prototype,
        start1,
        start2,
        delay=0,
        max_rounds=budget,
        record_trace=record_trace,
    )
    return SolveResult(outcome, _memory_of(outcome), feasible)


def solve_with_delay(
    tree: Tree,
    start1: int,
    start2: int,
    delay: int,
    *,
    delayed: int = 2,
    max_rounds: Optional[int] = None,
    record_trace: bool = False,
    agent: Optional[AgentProgram] = None,
    engine: Optional[Callable] = None,
) -> SolveResult:
    """Run the arbitrary-delay baseline (Θ(log n) bits) under delay θ.

    ``engine`` as in :func:`solve`.
    """
    feasible = not perfectly_symmetrizable(tree, start1, start2)
    prototype = agent if agent is not None else baseline_agent()
    n = tree.n
    budget = max_rounds if max_rounds is not None else delay + 400 * n * n + 200 * n
    run = engine if engine is not None else run_rendezvous_fast
    outcome = run(
        tree,
        prototype,
        start1,
        start2,
        delay=delay,
        delayed=delayed,
        max_rounds=budget,
        record_trace=record_trace,
    )
    return SolveResult(outcome, _memory_of(outcome), feasible)


def _memory_of(outcome: RendezvousOutcome) -> Optional[MemoryReport]:
    """Memory of the executed agents: the max over the two clones (they
    declare identical bounds in full runs; early meetings can leave one
    clone behind the other, so take the wider account)."""
    reports = [
        memory_report(agent)
        for agent in outcome.agents
        if isinstance(agent, AgentProgram)
    ]
    if not reports:
        return None
    return max(reports, key=lambda r: r.declared)
