"""Multi-agent synchronous simulation: the gathering extension.

The paper notes (§1.3) that gathering — more than two identical agents
meeting at one node — is the natural extension of rendezvous.  This module
generalizes the two-agent engine to k agents with per-agent start delays:

- *gathering* is achieved the first round at the end of which all agents
  occupy the same node;
- the engine also reports the partial-meeting structure (which subsets
  co-locate), which the gathering algorithm's analysis cares about.

The feasible fragment implemented in :mod:`repro.core.gathering` covers the
cases where all agents can agree on a single target node of the contraction
(central node, or asymmetric central edge) — for the symmetric case with
k > 2 the paper makes no claim and neither do we (see the module docs
there).

Backend dispatch mirrors the two-agent engine: finite-state prototypes
(:func:`repro.sim.compiled.supports_compilation`) run on flat transition
tables (:func:`run_gathering_compiled`, driven by the k-agent table
stepper :func:`_table_rounds` that the exact gathering solver also
steps its prefixes with), arbitrary ``AgentBase`` programs on the
readable reference loop (:func:`run_gathering_reference`, the oracle).
Each tier has one loop: a fault plan (:mod:`repro.sim.faults`) is read
at its event rounds only, and a fault-free run is the empty plan.  The
parity suites in ``tests/sim/test_gathering_compiled.py`` and
``tests/sim/test_faults.py`` assert identical outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..agents.observations import STAY, AgentBase
from ..errors import SimulationError
from ..trees.tree import Tree
from .compiled import _INVALID, compile_agent, supports_compilation

# The per-agent bookkeeping (and the certification key) is exactly the
# two-agent engine's; reusing it keeps the joint-configuration semantics
# defined in one place.
from .engine import _agent_action, _execute
from .engine import _AgentState as _State
from .faults import _NO_FAULTS, FaultPlan, _segments

__all__ = [
    "GatheringOutcome",
    "run_gathering",
    "run_gathering_reference",
    "run_gathering_compiled",
]


@dataclass(frozen=True)
class GatheringOutcome:
    """Result of a k-agent gathering run.

    Exactly one of three verdicts holds (mirroring
    :class:`~repro.sim.engine.RendezvousOutcome`):

    - ``gathered`` — all agents co-located at ``gathering_round``;
    - ``certified_never`` — a joint-configuration recurrence proves the
      agents can never gather (``certify`` runs on finite-state agents);
    - neither — the round budget ran out without a verdict.
    """

    gathered: bool
    gathering_round: Optional[int]
    gathering_node: Optional[int]
    rounds_executed: int
    positions: tuple[int, ...]  # final positions
    largest_cluster: int  # max #agents ever co-located in a single round
    certified_never: bool = False
    # Agents whose crash fault had fired by the final executed round;
    # always () for fault-free runs.
    crashed: tuple[int, ...] = ()

    @property
    def undecided(self) -> bool:
        return not self.gathered and not self.certified_never

    @property
    def num_agents(self) -> int:
        return len(self.positions)


def _validate(tree: Tree, starts: Sequence[int], delays) -> list[int]:
    if len(starts) < 2:
        raise SimulationError("gathering needs at least two agents")
    for s in starts:
        if not (0 <= s < tree.n):
            raise SimulationError("start node outside the tree")
    delay_list = list(delays) if delays is not None else [0] * len(starts)
    if len(delay_list) != len(starts) or any(d < 0 for d in delay_list):
        raise SimulationError("delays must align with starts and be >= 0")
    return delay_list


def run_gathering(
    tree: Tree,
    prototype: AgentBase,
    starts: Sequence[int],
    *,
    delays: Optional[Sequence[int]] = None,
    max_rounds: int = 1_000_000,
    certify: bool = False,
    faults=None,
) -> GatheringOutcome:
    """Run ``len(starts)`` copies of ``prototype`` until they all co-locate.

    ``delays[i]`` (default all 0) is agent i's start delay.  Agents that
    have not started yet still occupy their start node.  ``certify``
    detects a joint-configuration recurrence to certify non-gathering
    (finite-state agents; silently ignored when agents expose no state).
    ``faults`` (an optional :class:`~repro.sim.faults.FaultPlan`; agent
    i is fault-plan agent i) runs in the same loops.

    Finite-state prototypes are dispatched to the compiled table-driven
    loop; everything else runs on :func:`run_gathering_reference`.
    """
    if supports_compilation(prototype) == "native":
        return run_gathering_compiled(
            tree, prototype, starts, delays=delays, max_rounds=max_rounds,
            certify=certify, faults=faults,
        )
    return run_gathering_reference(
        tree, prototype, starts, delays=delays, max_rounds=max_rounds,
        certify=certify, faults=faults,
    )


def _cluster_size(positions: Iterable[int]) -> int:
    counts: dict[int, int] = {}
    for p in positions:
        counts[p] = counts.get(p, 0) + 1
    return max(counts.values())


def run_gathering_reference(
    tree: Tree,
    prototype: AgentBase,
    starts: Sequence[int],
    *,
    delays: Optional[Sequence[int]] = None,
    max_rounds: int = 1_000_000,
    certify: bool = False,
    faults=None,
) -> GatheringOutcome:
    """The oracle loop, forced for every agent type (parity testing)."""
    plan = FaultPlan.coerce(faults) or _NO_FAULTS
    delay_list = _validate(tree, starts, delays)
    plan.validate_for(len(starts))
    agents = [
        _State(prototype.clone(), pos, delay)
        for pos, delay in zip(starts, delay_list)
    ]
    k = len(agents)

    largest = _cluster_size(a.pos for a in agents)
    if largest == k:
        return GatheringOutcome(
            True, 0, agents[0].pos, 0, tuple(a.pos for a in agents), largest
        )

    # Certification mirrors the two-agent engine: once every agent has
    # executed its start action (round max(delays) + 1) and the plan's
    # horizon has passed, the joint configuration is a pure function of
    # the previous one, so a recurrence with no gathering in between
    # proves non-gathering.
    certifiable = certify and all(
        getattr(a.agent, "state", None) is not None for a in agents
    )
    first_joint = max(*delay_list, plan.horizon) + 1
    seen: set[tuple] = set()

    for rounds, cur, frozen in _segments(plan.events(tree), max_rounds):
        active = [a for i, a in enumerate(agents) if i not in frozen]
        for rnd in rounds:
            # Each agent's action depends only on its own state, so moving
            # agents one by one equals computing every action first.
            for a in active:
                _execute(cur, a, _agent_action(cur, a, rnd))
            size = _cluster_size(a.pos for a in agents)
            largest = max(largest, size)
            if size == k:
                return GatheringOutcome(
                    True, rnd, agents[0].pos, rnd, tuple(a.pos for a in agents),
                    largest, False, plan.crashed_by(rnd),
                )
            if certifiable and rnd > first_joint:
                key = tuple(a.config_key() for a in agents)
                if key in seen:
                    return GatheringOutcome(
                        False, None, None, rnd, tuple(a.pos for a in agents),
                        largest, True, plan.crashed_by(rnd),
                    )
                seen.add(key)
    return GatheringOutcome(
        False, None, None, max_rounds, tuple(a.pos for a in agents),
        largest, False, plan.crashed_by(max_rounds),
    )


def run_gathering_compiled(
    tree: Tree,
    prototype: AgentBase,
    starts: Sequence[int],
    *,
    delays: Optional[Sequence[int]] = None,
    max_rounds: int = 1_000_000,
    certify: bool = False,
    faults=None,
) -> GatheringOutcome:
    """The table-driven loop, forced (requires a finite-state Automaton).

    ``certify`` uses Brent cycle detection on the k-agent joint
    configuration — O(1) memory, same verdicts as the reference's
    ``seen``-set (the round a certificate fires at may differ, as with
    the two-agent backends).
    """
    plan = FaultPlan.coerce(faults) or _NO_FAULTS
    if supports_compilation(prototype) != "native":
        raise SimulationError(
            "compiled gathering requires a finite-state Automaton"
        )
    delay_list = _validate(tree, starts, delays)
    plan.validate_for(len(starts))
    k = len(starts)

    largest = _cluster_size(starts)
    if largest == k:
        return GatheringOutcome(True, 0, starts[0], 0, tuple(starts), largest)

    first_joint = max(*delay_list, plan.horizon) + 1
    # Brent cycle detection state (see run_rendezvous_compiled).
    anchor: Optional[tuple] = None
    steps = 0
    power = 1

    pos = list(starts)
    for rnd, pos, st, ip in _table_rounds(
        plan.events(tree), [compile_agent(prototype, tree)] * k, starts,
        delay_list, max_rounds,
    ):
        size = _cluster_size(pos)
        largest = max(largest, size)
        if size == k:
            return GatheringOutcome(
                True, rnd, pos[0], rnd, tuple(pos), largest, False,
                plan.crashed_by(rnd),
            )
        if certify and rnd > first_joint:
            config = tuple(x for i in range(k) for x in (pos[i], st[i], ip[i]))
            if config == anchor:
                return GatheringOutcome(
                    False, None, None, rnd, tuple(pos), largest, True,
                    plan.crashed_by(rnd),
                )
            steps += 1
            if steps == power:
                anchor = config
                steps = 0
                power <<= 1
    return GatheringOutcome(
        False, None, None, max_rounds, tuple(pos), largest, False,
        plan.crashed_by(max_rounds),
    )


def _table_rounds(
    events: list,
    compileds: list,
    starts: Sequence[int],
    start_rounds: Sequence[int],
    max_rounds: int,
):
    """The k-agent table stepper: one yield per executed round,
    ``(rnd, pos, st, ip)`` — live lists, mutated in place.  Agent i
    runs ``compileds[i]`` and starts after round ``start_rounds[i]``.

    ``events`` is :meth:`FaultPlan.events <repro.sim.faults.FaultPlan.events>`
    of the run's plan.  At each event round the move tables switch to
    the labeling in force (the transition tables are keyed on ``(stride,
    degree set)``, both labeling-invariant, so one compilation serves
    every labeling) and the frozen flags are re-read; a frozen agent
    executes nothing and keeps its pending entry port.  Each agent's
    action depends only on its own (position, state, entry port), so
    per-agent sequential updates within a round equal the reference's
    order.
    """
    k = len(starts)
    nxts = [c.next_state for c in compileds]
    acts = [c.action for c in compileds]
    start_acts = [c.start_action for c in compileds]
    s0s = [c.initial_state for c in compileds]
    width = compileds[0].stride + 1

    pos = list(starts)
    st = [0] * k
    ip = [0] * k  # entry-port indices (in_port + 1; 0 == NULL_PORT)
    started = [False] * k

    for rounds, cur, frozen in _segments(events, max_rounds):
        stride, deg, move_to, move_in = cur.flat_move_tables()
        active = [i for i in range(k) if i not in frozen]
        for rnd in rounds:
            for i in active:
                if started[i]:
                    d = deg[pos[i]]
                    idx = (st[i] * width + ip[i]) * width + d
                    s2 = nxts[i][idx]
                    if s2 == _INVALID:
                        compileds[i].automaton.transition(st[i], ip[i] - 1, d)
                        raise SimulationError("invalid transition entry")  # pragma: no cover
                    st[i] = s2
                    a = acts[i][idx]
                elif rnd > start_rounds[i]:
                    started[i] = True
                    st[i] = s0s[i]
                    a = start_acts[i][deg[pos[i]]]
                else:
                    a = STAY
                if a == STAY:
                    ip[i] = 0
                else:
                    base = pos[i] * stride + a
                    pos[i] = move_to[base]
                    ip[i] = move_in[base] + 1
            yield rnd, pos, st, ip
