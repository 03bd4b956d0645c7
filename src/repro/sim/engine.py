"""The synchronous two-agent rendezvous simulator.

Model (paper §2.1):

- two copies of one agent are placed at distinct nodes;
- the adversary delays the later agent by ``delay >= 0`` rounds (the earlier
  agent is chosen by the ``delayed`` argument);
- rounds are synchronous; in each round every *started* agent performs one
  action (a move through a port, or a null move); an agent that has not
  started yet sits at its initial node (it occupies the node — a meeting
  with a not-yet-started agent counts, since rendezvous only asks that both
  agents be at the same node in the same round);
- rendezvous is achieved the first round at the end of which both agents
  occupy the same node (including round 0 if the starts coincide).

Certification of *non*-meeting: for finite-state (automaton) agents the
joint configuration ``(pos1, state1, obs1, pos2, state2, obs2)`` after a
round determines the entire future; if a configuration recurs with no
meeting in between, the execution is periodic and the agents provably never
meet.  The engine detects this when ``certify=True`` and both agents expose
a hashable ``state`` attribute (explicit automata do).  For any agent, a
``certify=True`` run with delay 0 and no faults first asks for a
:class:`~repro.sim.certificates.SymmetryCertificate` (the paper's Fact
1.1): if a port-preserving automorphism carries one start to the other,
the run returns certified-never before round 1, with
``rounds_executed == 0``, ``crossings == 0`` and unexecuted agent clones.
Every engine tier applies the same rule, so their verdicts agree.

Faults (:mod:`repro.sim.faults`) run in the same loop: a fault-free run
is the empty plan.  The loop re-reads the plan only at its event rounds
(:meth:`~repro.sim.faults.FaultPlan.events`), where the labeling and
the frozen agents change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..agents.observations import NULL_PORT, STAY, AgentBase, resolve_action
from ..errors import SimulationError
from ..trees.tree import Tree
from .faults import _NO_FAULTS, FaultPlan, _segments
from .trace import RoundRecord, Trace

__all__ = ["RendezvousOutcome", "run_rendezvous"]


@dataclass(slots=True)
class _AgentState:
    agent: AgentBase
    pos: int
    start_round: int
    started: bool = False
    in_port: int = NULL_PORT  # pending observation for the next step

    def config_key(self) -> tuple:
        # Certification keys are only formed once both agents have started,
        # so the started flag is constant there and carries no information.
        state = getattr(self.agent, "state", None)
        return (self.pos, state, self.in_port)


@dataclass(frozen=True)
class RendezvousOutcome:
    """Result of a simulated execution.

    Exactly one of three verdicts holds:

    - ``met`` — rendezvous achieved at ``meeting_round`` on ``meeting_node``;
    - ``certified_never`` — a configuration recurrence proves the agents can
      never meet (only possible for finite-state agents with ``certify``);
    - neither — the round budget ran out without a verdict.
    """

    met: bool
    meeting_round: Optional[int]
    meeting_node: Optional[int]
    rounds_executed: int
    certified_never: bool
    crossings: int
    trace: Optional[Trace]
    agents: tuple[AgentBase, AgentBase]
    # Agents (0-based: rendezvous agent 1 -> 0) whose crash fault had
    # fired by the final executed round; always () for fault-free runs.
    crashed: tuple[int, ...] = ()

    @property
    def undecided(self) -> bool:
        return not self.met and not self.certified_never


def run_rendezvous(
    tree: Tree,
    prototype: AgentBase,
    start1: int,
    start2: int,
    *,
    delay: int = 0,
    delayed: int = 2,
    max_rounds: int = 1_000_000,
    certify: bool = False,
    record_trace: bool = False,
    faults=None,
) -> RendezvousOutcome:
    """Execute the rendezvous problem for two copies of ``prototype``.

    Parameters
    ----------
    delay:
        The adversary's delay θ >= 0.
    delayed:
        Which agent starts late (1 or 2); irrelevant when ``delay == 0``.
    max_rounds:
        Hard budget; the outcome is ``undecided`` if it is exhausted.
    certify:
        Certify non-meeting: from symmetry before round 1 (delay 0, no
        faults, any agent), else by configuration recurrence
        (finite-state agents only; skipped when agents expose no
        ``state``).
    record_trace:
        Fill in a full :class:`~repro.sim.trace.Trace`.
    faults:
        An optional :class:`~repro.sim.faults.FaultPlan` (or its JSON
        form): crash-stop / pause / relabel faults.  Rendezvous agent 1
        is fault-plan agent 0, agent 2 is agent 1.  Frozen rounds are
        recorded as ``STAY`` in the trace.  ``None`` or an empty plan is
        a fault-free run.
    """
    plan = FaultPlan.coerce(faults) or _NO_FAULTS
    plan.validate_for(2)
    if not (0 <= start1 < tree.n and 0 <= start2 < tree.n):
        raise SimulationError("start nodes outside the tree")
    if delay < 0:
        raise SimulationError("delay must be >= 0")
    if delayed not in (1, 2):
        raise SimulationError("'delayed' must be 1 or 2")

    a1 = _AgentState(prototype.clone(), start1, delay if delayed == 1 else 0)
    a2 = _AgentState(prototype.clone(), start2, delay if delayed == 2 else 0)
    trace = Trace(start1, start2) if record_trace else None

    if start1 == start2:
        return RendezvousOutcome(True, 0, start1, 0, False, 0, trace, (a1.agent, a2.agent))
    if certify and delay == 0 and not plan:
        from .certificates import symmetry_certificate

        if symmetry_certificate(tree, start1, start2) is not None:
            return RendezvousOutcome(
                False, None, None, 0, True, 0, trace, (a1.agent, a2.agent)
            )

    certifiable = certify and all(
        getattr(a.agent, "state", None) is not None for a in (a1, a2)
    )
    # Certification starts at the first fully post-start round past the
    # plan's horizon: the round after the later agent executed its start
    # action and the last fault was active.  The joint configuration
    # only becomes a pure function of the previous one from that point
    # on (the start action is driven by the start rule, not the step
    # rule, and faults are external inputs), and the compiled backend's
    # cycle detection anchors on the same round, keeping the two
    # backends' verdicts aligned.
    first_joint = max(a1.start_round, a2.start_round, plan.horizon) + 1
    seen: set[tuple] = set()
    crossings = 0

    for rounds, cur, frozen in _segments(plan.events(tree), max_rounds):
        f1, f2 = 0 in frozen, 1 in frozen
        for rnd in rounds:
            prev1, prev2 = a1.pos, a2.pos
            if f1:
                act1 = STAY
            else:
                act1 = _agent_action(cur, a1, rnd)
                _execute(cur, a1, act1)
            if f2:
                act2 = STAY
            else:
                act2 = _agent_action(cur, a2, rnd)
                _execute(cur, a2, act2)
            if trace is not None:
                trace.append(RoundRecord(rnd, a1.pos, a2.pos, act1, act2))
            if a1.pos == prev2 and a2.pos == prev1 and a1.pos != a2.pos:
                crossings += 1
            if a1.pos == a2.pos:
                return RendezvousOutcome(
                    True, rnd, a1.pos, rnd, False, crossings, trace,
                    (a1.agent, a2.agent), plan.crashed_by(rnd),
                )
            if certifiable and rnd > first_joint:
                key = (a1.config_key(), a2.config_key())
                if key in seen:
                    return RendezvousOutcome(
                        False, None, None, rnd, True, crossings, trace,
                        (a1.agent, a2.agent), plan.crashed_by(rnd),
                    )
                seen.add(key)

    return RendezvousOutcome(
        False, None, None, max_rounds, False, crossings, trace,
        (a1.agent, a2.agent), plan.crashed_by(max_rounds),
    )


def _agent_action(tree: Tree, a: _AgentState, rnd: int) -> int:
    """The resolved action of agent ``a`` at global round ``rnd`` (1-based)."""
    degree = tree.degree(a.pos)
    if not a.started:
        if rnd <= a.start_round:
            return STAY
        a.started = True
        raw = a.agent.start(degree)
    else:
        raw = a.agent.step(a.in_port, degree)
    return resolve_action(raw, degree)


def _execute(tree: Tree, a: _AgentState, action: int) -> None:
    if action == STAY:
        a.in_port = NULL_PORT
        return
    a.pos, a.in_port = tree.move(a.pos, action)
