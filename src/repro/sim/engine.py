"""The synchronous simulator's reference tier: one k-agent round loop.

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

That is gathering (§1.3) with k=2 and the delay vector
:func:`repro.sim.delays.delay_vector` ``(delay, delayed)``, and every
engine tier runs it so: each tier has one k-agent round loop
(:func:`_reference_run` here, :func:`repro.sim.compiled._compiled_run`,
:func:`repro.sim.traced._traced_run`), reporting a :class:`JointRun`.
The gathering entry points (:mod:`repro.sim.multi`) and the rendezvous
entry points are thin adapters over it; :func:`_rendezvous` is the one
rendezvous front end (argument checks, the round-0 meeting, the symmetry
exit, the outcome).  A loop counts edge crossings when k == 2 and
records the round's actions only while a :class:`~repro.sim.trace.Trace`
is recorded.

Certification of *non*-meeting: for finite-state (automaton) agents the
joint configuration ``(pos_i, state_i, obs_i)`` after a round determines
the entire future; if a configuration recurs with no meeting in between,
the execution is periodic and the agents provably never meet.  The
engine detects this when ``certify=True`` and every agent exposes a
hashable ``state`` attribute (explicit automata do).  For any agent, a
``certify=True`` rendezvous with delay 0 and no faults first asks for a
:class:`~repro.sim.certificates.SymmetryCertificate` (the paper's Fact
1.1): if a port-preserving automorphism carries one start to the other,
the run returns certified-never before round 1, with
``rounds_executed == 0``, ``crossings == 0`` and unexecuted agent clones.
The front end applies that rule for every tier, so their verdicts agree.

Faults (:mod:`repro.sim.faults`) run in the same loop: a fault-free run
is the empty plan.  The loop re-reads the plan only at its event rounds
(:meth:`~repro.sim.faults.FaultPlan.events`), where the labeling and
the frozen agents change.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..agents.observations import NULL_PORT, STAY, AgentBase, resolve_action
from ..errors import SimulationError
from ..records import Record
from ..trees.tree import Tree
from .delays import delay_vector
from .faults import _NO_FAULTS, FaultPlan, _segments
from .trace import RoundRecord, Trace

__all__ = ["RendezvousOutcome", "run_rendezvous"]


class _AgentState(Record):
    __slots__ = ("agent", "pos", "start_round", "started", "in_port")

    def __init__(self, agent: AgentBase, pos: int, start_round: int) -> None:
        self.agent = agent
        self.pos = pos
        self.start_round = start_round
        self.started = False
        self.in_port = NULL_PORT  # pending observation for the next step

    def config_key(self) -> tuple:
        # Certification keys are only formed once both agents have started,
        # so the started flag is constant there and carries no information.
        state = getattr(self.agent, "state", None)
        return (self.pos, state, self.in_port)


class RendezvousOutcome(NamedTuple):
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


class JointRun(NamedTuple):
    """What a tier's k-agent loop reports (rounds 1.. of a run whose
    agents do not all share a node at round 0).

    ``crossings`` counts rounds in which two agents swapped nodes over
    an edge, kept when k == 2 (0 otherwise).  ``agents`` are the tier's
    final agents: executed clones on the reference tier, state-set
    clones on the compiled tier, fresh clones on the traced tier.
    """

    gathered: bool
    round: Optional[int]
    rounds_executed: int
    positions: tuple[int, ...]
    largest: int  # max #agents co-located at the end of a round
    certified_never: bool
    crossings: int
    agents: tuple


def _rendezvous(
    tree: Tree,
    prototype: AgentBase,
    start1: int,
    start2: int,
    delay: int,
    delayed: int,
    max_rounds: int,
    certify: bool,
    record_trace: bool,
    faults,
    run,
) -> RendezvousOutcome:
    """The rendezvous front end shared by every tier: ``run`` is the
    tier's k-agent loop, called with the k=2 delay vector."""
    plan = FaultPlan.coerce(faults) or _NO_FAULTS
    plan.validate_for(2)
    if not (0 <= start1 < tree.n and 0 <= start2 < tree.n):
        raise SimulationError("start nodes outside the tree")
    if delay < 0:
        raise SimulationError("delay must be >= 0")
    if delayed not in (1, 2):
        raise SimulationError("'delayed' must be 1 or 2")

    trace = Trace(start1, start2) if record_trace else None
    if start1 == start2:
        return RendezvousOutcome(
            True, 0, start1, 0, False, 0, trace,
            (prototype.clone(), prototype.clone()),
        )
    if certify and delay == 0 and not plan:
        from .certificates import symmetry_certificate

        if symmetry_certificate(tree, start1, start2) is not None:
            return RendezvousOutcome(
                False, None, None, 0, True, 0, trace,
                (prototype.clone(), prototype.clone()),
            )
    out = run(
        tree, prototype, (start1, start2), delay_vector(delay, delayed), plan,
        max_rounds, certify, trace,
    )
    return RendezvousOutcome(
        out.gathered, out.round, out.positions[0] if out.gathered else None,
        out.rounds_executed, out.certified_never, out.crossings, trace,
        out.agents, plan.crashed_by(out.rounds_executed),
    )


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
    return _rendezvous(
        tree, prototype, start1, start2, delay, delayed, max_rounds, certify,
        record_trace, faults, _reference_run,
    )


def _reference_run(
    tree: Tree,
    prototype: AgentBase,
    starts,
    delays,
    plan: FaultPlan,
    max_rounds: int,
    certify: bool,
    trace: Optional[Trace],
) -> JointRun:
    """The reference k-agent loop (the oracle every tier is checked
    against): agent i starts at ``starts[i]`` after ``delays[i]``
    rounds, under ``plan``."""
    clones = tuple(prototype.clone() for _ in starts)
    agents = [
        _AgentState(clone, pos, delay)
        for clone, pos, delay in zip(clones, starts, delays)
    ]
    k = len(agents)
    pos = list(starts)
    largest = max(map(pos.count, pos))
    pair = k == 2
    px, py = starts[0], starts[-1]  # the previous round's positions when k == 2
    crossings = 0
    acts = [STAY] * k  # filled only while a trace is recorded

    # Certification starts at the first fully post-start round past the
    # plan's horizon: the round after the last agent executed its start
    # action and the last fault was active.  The joint configuration
    # only becomes a pure function of the previous one from that point
    # on (the start action is driven by the start rule, not the step
    # rule, and faults are external inputs), and the compiled tier's
    # cycle detection anchors on the same round, keeping the tiers'
    # verdicts aligned.
    certifiable = certify and all(
        getattr(clone, "state", None) is not None for clone in clones
    )
    first_joint = max(*delays, plan.horizon) + 1
    config_key = _AgentState.config_key
    seen: set[tuple] = set()

    for rounds, cur, frozen in _segments(plan.events(tree), max_rounds):
        active = [(i, a) for i, a in enumerate(agents) if i not in frozen]
        for i in frozen:
            acts[i] = STAY
        for rnd in rounds:
            # Each agent's action depends only on its own state, so moving
            # agents one by one equals computing every action first.
            for i, a in active:
                act = _step(cur, a, rnd)
                pos[i] = a.pos
                if trace is not None:
                    acts[i] = act
            if trace is not None:
                trace.append(RoundRecord(rnd, pos[0], pos[1], acts[0], acts[1]))
            if pair:
                x, y = pos
                if x == py and y == px and x != y:
                    crossings += 1
                px, py = x, y
            if pos.count(pos[0]) == k:
                return JointRun(
                    True, rnd, rnd, tuple(pos), k, False, crossings,
                    clones,
                )
            # Short of gathering, only a cluster larger than ``largest``
            # raises it, and that leaves at most k - largest distinct nodes.
            if largest < k - 1 and k - len(set(pos)) >= largest:
                largest = max(map(pos.count, pos))
            if certifiable and rnd > first_joint:
                key = (*map(config_key, agents),)
                if key in seen:
                    return JointRun(
                        False, None, rnd, tuple(pos), largest, True, crossings,
                        clones,
                    )
                seen.add(key)

    return JointRun(
        False, None, max_rounds, tuple(pos), largest, False, crossings,
        clones,
    )


def _step(tree: Tree, a: _AgentState, rnd: int) -> int:
    """Execute agent ``a``'s part of global round ``rnd`` (1-based) on
    ``tree``; return its resolved action."""
    degree = tree.degree(a.pos)
    if a.started:
        raw = a.agent.step(a.in_port, degree)
    elif rnd > a.start_round:
        a.started = True
        raw = a.agent.start(degree)
    else:
        return STAY  # asleep: it has not moved, so in_port is still NULL_PORT
    action = resolve_action(raw, degree)
    if action == STAY:
        a.in_port = NULL_PORT
    else:
        a.pos, a.in_port = tree.move(a.pos, action)
    return action
