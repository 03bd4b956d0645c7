"""The fault-model layer: crash-stop, transient pauses, adversarial relabeling.

The paper's adversary controls the start delay θ and the port labeling.
This module widens the adversary with three *runtime* fault families and
threads them through every execution engine with reference/compiled
parity as the correctness gate:

- :class:`CrashFault` — crash-stop: from its round on the agent executes
  nothing, forever.  A crashed agent still occupies its node, so meeting
  a crashed agent counts (rendezvous only asks that both agents share a
  node at the end of a round).
- :class:`PauseFault` — a transient freeze: for ``duration`` rounds the
  agent executes nothing (its automaton state *and* its pending entry
  port are preserved — time dilation, not observation loss).  A pause
  covering an agent's would-be start round defers the start.
- :class:`RelabelFault` — before the actions of its round, the adversary
  re-draws the port labeling with a seeded RNG.  Node identities are
  untouched; only ports change.  The draw is *automorphism-respecting*:
  candidates are resampled (bounded attempts) until the relabeled tree
  agrees with the base labeling on whether a nontrivial port-preserving
  automorphism exists, so a relabel attack cannot smuggle a tree across
  the symmetric/asymmetric frontier the paper's feasibility
  characterization (Def. 1.2) is built on.

Certification stays sound because every fault plan has a finite
``horizon`` (the last round any fault is active).  Past
``max(first fully-started round, horizon)`` the joint configuration is
again a pure function of its predecessor — crashed agents are constant,
pauses have expired, the labeling is final — so both the reference
``seen``-set and the compiled Brent anchor simply begin *after* that
round, at the same round on both backends, preserving the parity
contract (``met`` / ``meeting_round`` / ``meeting_node`` /
``certified_never`` identical; ``rounds_executed`` on certified-never
may differ).

The exact sweeps have no faulted twins: the gathering solver
(:func:`repro.sim.gathering_solver.solve_gathering`) takes the plan
itself, and :func:`solve_gathering_faulted` is that solver with a plan
required.  Each delay vector simulates its faulted prefix through the
horizon (:func:`_iter_compiled_faulted`), then resolves the reached
configuration against a fate memo shared across the whole grid — the
post-horizon dynamics (final labeling, crashed agents frozen by
:func:`_frozen_steppers`) are choice-independent, so the memo is valid
grid-wide and the solver stays exact.  A delay sweep is the k=2 case
(:mod:`repro.sim.delays`), so :func:`solve_all_delays_faulted` is the
same solver over the k=2 delay vectors.

Outcomes gain a ``crashed`` field (the agents whose crash had fired by
the final executed round) and the sweep verdicts a ``crashed`` flag, so
"never meets *because a fault killed an agent*" is certified distinctly
from healthy never-meeting all the way up to the scenario rows
(verdict ``certified-never-crash``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..agents.automaton import Automaton
from ..agents.observations import STAY, AgentBase
from ..errors import SimulationError
from ..trees.automorphism import is_symmetric_labeling
from ..trees.labelings import random_relabel
from ..trees.tree import Tree
from .compiled import _INVALID, _final_agents, _make_stepper, compile_agent
from .delays import DelayVerdict, delay_vector, sweep_choices, to_delay_verdicts
from .engine import RendezvousOutcome, _agent_action, _AgentState, _execute
from .gathering_solver import GatheringVerdict, solve_gathering
from .multi import GatheringOutcome, _validate
from .trace import RoundRecord, Trace

__all__ = [
    "CrashFault",
    "PauseFault",
    "RelabelFault",
    "FaultPlan",
    "run_rendezvous_faulted",
    "run_rendezvous_faulted_compiled",
    "run_gathering_faulted",
    "run_gathering_faulted_reference",
    "run_gathering_faulted_compiled",
    "solve_all_delays_faulted",
    "solve_gathering_faulted",
]

_NEVER = (False, -1)
_RELABEL_ATTEMPTS = 32


@dataclass(frozen=True, slots=True)
class CrashFault:
    """Agent ``agent`` (0-based) crash-stops at round ``round`` (1-based):
    that round and every later one it executes nothing, but keeps
    occupying its node."""

    agent: int
    round: int


@dataclass(frozen=True, slots=True)
class PauseFault:
    """Agent ``agent`` freezes for rounds ``round .. round+duration-1``:
    no automaton step, no move, pending entry port preserved."""

    agent: int
    round: int
    duration: int = 1


@dataclass(frozen=True, slots=True)
class RelabelFault:
    """Before round ``round``'s actions the ports are re-drawn with
    ``random.Random(seed)`` (automorphism-respecting; node ids fixed)."""

    round: int
    seed: int = 0


@dataclass(frozen=True)
class FaultPlan:
    """One adversary's complete fault schedule for a run or sweep.

    Plans are immutable, picklable (they ride inside batch jobs and
    scenario params) and JSON round-trippable.  An empty plan is falsy,
    so every engine treats ``faults=FaultPlan()`` like ``faults=None``.
    """

    crashes: tuple[CrashFault, ...] = ()
    pauses: tuple[PauseFault, ...] = ()
    relabels: tuple[RelabelFault, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "crashes",
            tuple(sorted(self.crashes, key=lambda c: (c.round, c.agent))),
        )
        object.__setattr__(
            self,
            "pauses",
            tuple(sorted(self.pauses, key=lambda p: (p.round, p.agent))),
        )
        object.__setattr__(
            self, "relabels", tuple(sorted(self.relabels, key=lambda r: r.round))
        )
        for c in self.crashes:
            if c.agent < 0 or c.round < 1:
                raise SimulationError(
                    "crash faults need agent >= 0 and round >= 1"
                )
        crashed_agents = [c.agent for c in self.crashes]
        if len(set(crashed_agents)) != len(crashed_agents):
            raise SimulationError("at most one crash fault per agent")
        for p in self.pauses:
            if p.agent < 0 or p.round < 1 or p.duration < 1:
                raise SimulationError(
                    "pause faults need agent >= 0, round >= 1, duration >= 1"
                )
        by_agent: dict[int, list[PauseFault]] = {}
        for p in self.pauses:
            by_agent.setdefault(p.agent, []).append(p)
        for plist in by_agent.values():
            for a, b in zip(plist, plist[1:]):
                if b.round < a.round + a.duration:
                    raise SimulationError(
                        "pause faults for one agent must not overlap"
                    )
        rounds = [r.round for r in self.relabels]
        if len(set(rounds)) != len(rounds):
            raise SimulationError("at most one relabel fault per round")
        for r in self.relabels:
            if r.round < 1:
                raise SimulationError("relabel faults need round >= 1")

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.crashes or self.pauses or self.relabels)

    @property
    def horizon(self) -> int:
        """The last round any fault is active; 0 for the empty plan.
        Past it the joint dynamics are autonomous again."""
        ends = [0]
        ends.extend(c.round for c in self.crashes)
        ends.extend(p.round + p.duration - 1 for p in self.pauses)
        ends.extend(r.round for r in self.relabels)
        return max(ends)

    @property
    def max_agent_index(self) -> int:
        agents = [-1]
        agents.extend(c.agent for c in self.crashes)
        agents.extend(p.agent for p in self.pauses)
        return max(agents)

    def validate_for(self, num_agents: int) -> None:
        if self.max_agent_index >= num_agents:
            raise SimulationError(
                f"fault plan names agent {self.max_agent_index} but the "
                f"run has {num_agents} agents (indices 0..{num_agents - 1})"
            )

    def frozen_in_round(self, agent: int, rnd: int) -> bool:
        """Does agent ``agent`` execute nothing in round ``rnd``?"""
        for c in self.crashes:
            if c.agent == agent and rnd >= c.round:
                return True
        for p in self.pauses:
            if p.agent == agent and p.round <= rnd < p.round + p.duration:
                return True
        return False

    def crashed_by(self, rnd: int) -> tuple[int, ...]:
        """Agents whose crash has fired by the end of round ``rnd``."""
        return tuple(sorted({c.agent for c in self.crashes if c.round <= rnd}))

    # -- relabeling ---------------------------------------------------

    def labeling_schedule(self, tree: Tree) -> list[tuple[int, Tree]]:
        """``[(first_round, labeled_tree), ...]`` — the tree in force from
        each round on.  Deterministic in ``(tree, plan)``; the base
        labeling always opens the schedule at round 1."""
        schedule = [(1, tree)]
        if not self.relabels:
            return schedule
        base_symmetric = is_symmetric_labeling(tree)
        cur = tree
        for rf in self.relabels:
            cur = _respectful_relabel(cur, base_symmetric, rf.seed)
            schedule.append((rf.round, cur))
        return schedule

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {}
        if self.crashes:
            out["crashes"] = [[c.agent, c.round] for c in self.crashes]
        if self.pauses:
            out["pauses"] = [[p.agent, p.round, p.duration] for p in self.pauses]
        if self.relabels:
            out["relabels"] = [[r.round, r.seed] for r in self.relabels]
        return out

    @classmethod
    def from_json(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise SimulationError(
                f"fault plan payload must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"crashes", "pauses", "relabels"}
        if unknown:
            raise SimulationError(
                f"unknown fault plan keys: {sorted(unknown)}"
            )
        try:
            return cls(
                crashes=tuple(
                    CrashFault(int(a), int(r)) for a, r in payload.get("crashes", ())
                ),
                pauses=tuple(
                    PauseFault(int(a), int(r), int(d))
                    for a, r, d in payload.get("pauses", ())
                ),
                relabels=tuple(
                    RelabelFault(int(r), int(s))
                    for r, s in payload.get("relabels", ())
                ),
            )
        except (TypeError, ValueError) as exc:
            raise SimulationError(f"malformed fault plan payload: {exc}") from exc

    @classmethod
    def parse_many(cls, specs: Sequence[str]) -> "FaultPlan":
        """Build a plan from CLI fault strings:

        - ``crash:AGENT@ROUND``
        - ``pause:AGENT@ROUND:DURATION`` (duration defaults to 1)
        - ``relabel@ROUND:SEED`` (seed defaults to 0)
        """
        crashes, pauses, relabels = [], [], []
        for spec in specs:
            try:
                if spec.startswith("crash:"):
                    agent, _, rnd = spec[len("crash:"):].partition("@")
                    crashes.append(CrashFault(int(agent), int(rnd)))
                elif spec.startswith("pause:"):
                    agent, _, rest = spec[len("pause:"):].partition("@")
                    rnd, _, dur = rest.partition(":")
                    pauses.append(
                        PauseFault(int(agent), int(rnd), int(dur) if dur else 1)
                    )
                elif spec.startswith("relabel@"):
                    rnd, _, seed = spec[len("relabel@"):].partition(":")
                    relabels.append(
                        RelabelFault(int(rnd), int(seed) if seed else 0)
                    )
                else:
                    raise ValueError("unknown fault kind")
            except (TypeError, ValueError) as exc:
                raise SimulationError(
                    f"cannot parse fault {spec!r} "
                    "(expected crash:AGENT@ROUND, pause:AGENT@ROUND:DURATION "
                    f"or relabel@ROUND:SEED): {exc}"
                ) from exc
        return cls(tuple(crashes), tuple(pauses), tuple(relabels))

    @classmethod
    def coerce(cls, value) -> Optional["FaultPlan"]:
        """Liberal constructor for spec params and CLI surfaces.

        ``None`` and empty plans come back as ``None`` so callers can
        branch on truthiness; accepts a plan, a JSON object, a fault
        string, or a list of fault strings.
        """
        if value is None:
            return None
        if isinstance(value, FaultPlan):
            return value or None
        if isinstance(value, dict):
            return cls.from_json(value) or None
        if isinstance(value, str):
            return cls.parse_many([value]) or None
        if isinstance(value, (list, tuple)) and all(
            isinstance(s, str) for s in value
        ):
            return cls.parse_many(value) or None
        raise SimulationError(
            f"cannot build a fault plan from {type(value).__name__}"
        )


def _respectful_relabel(tree: Tree, base_symmetric: bool, seed: int) -> Tree:
    """A seeded random relabeling preserving the base labeling's
    symmetry class (bounded resampling; falls back to the input)."""
    rng = random.Random(seed)
    for _ in range(_RELABEL_ATTEMPTS):
        cand = random_relabel(tree, rng)
        if is_symmetric_labeling(cand) == base_symmetric:
            return cand
    return tree


def _as_plan(faults) -> FaultPlan:
    plan = FaultPlan.coerce(faults)
    if plan is None:
        raise SimulationError("the faulted engines need a non-empty fault plan")
    return plan


# ----------------------------------------------------------------------
# Reference (oracle) loops
# ----------------------------------------------------------------------

def run_rendezvous_faulted(
    tree: Tree,
    prototype: AgentBase,
    start1: int,
    start2: int,
    *,
    faults,
    delay: int = 0,
    delayed: int = 2,
    max_rounds: int = 1_000_000,
    certify: bool = False,
    record_trace: bool = False,
) -> RendezvousOutcome:
    """:func:`repro.sim.engine.run_rendezvous` under a fault plan.

    Rendezvous agent 1 is fault-plan agent 0, agent 2 is agent 1.
    Frozen rounds are recorded as ``STAY`` in the trace; certification
    begins after ``max(first fully-started round, plan horizon)``.
    """
    plan = _as_plan(faults)
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

    certifiable = certify and all(
        getattr(a.agent, "state", None) is not None for a in (a1, a2)
    )
    cert_start = max(max(a1.start_round, a2.start_round) + 1, plan.horizon + 1)
    schedule = plan.labeling_schedule(tree)
    seg = 0
    cur = schedule[0][1]
    seen: set[tuple] = set()
    crossings = 0

    for rnd in range(1, max_rounds + 1):
        while seg + 1 < len(schedule) and schedule[seg + 1][0] <= rnd:
            seg += 1
            cur = schedule[seg][1]
        prev1, prev2 = a1.pos, a2.pos
        f1 = plan.frozen_in_round(0, rnd)
        f2 = plan.frozen_in_round(1, rnd)
        act1 = STAY if f1 else _agent_action(cur, a1, rnd)
        act2 = STAY if f2 else _agent_action(cur, a2, rnd)
        if not f1:
            _execute(cur, a1, act1)
        if not f2:
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
        if certifiable and rnd > cert_start:
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


def run_gathering_faulted(
    tree: Tree,
    prototype: AgentBase,
    starts: Sequence[int],
    *,
    faults,
    delays: Optional[Sequence[int]] = None,
    max_rounds: int = 1_000_000,
    certify: bool = False,
) -> GatheringOutcome:
    """Faulted gathering with the usual engine dispatch (compiled for
    finite-state automata, reference loop otherwise)."""
    if isinstance(prototype, Automaton):
        return run_gathering_faulted_compiled(
            tree, prototype, starts, faults=faults,
            delays=delays, max_rounds=max_rounds, certify=certify,
        )
    return run_gathering_faulted_reference(
        tree, prototype, starts, faults=faults,
        delays=delays, max_rounds=max_rounds, certify=certify,
    )


def run_gathering_faulted_reference(
    tree: Tree,
    prototype: AgentBase,
    starts: Sequence[int],
    *,
    faults,
    delays: Optional[Sequence[int]] = None,
    max_rounds: int = 1_000_000,
    certify: bool = False,
) -> GatheringOutcome:
    """The oracle gathering loop under a fault plan (agent i is
    fault-plan agent i)."""
    plan = _as_plan(faults)
    delay_list = _validate(tree, starts, delays)
    plan.validate_for(len(starts))
    agents = [
        _AgentState(prototype.clone(), pos, d)
        for pos, d in zip(starts, delay_list)
    ]
    k = len(agents)

    def cluster_size() -> int:
        counts: dict[int, int] = {}
        for a in agents:
            counts[a.pos] = counts.get(a.pos, 0) + 1
        return max(counts.values())

    largest = cluster_size()
    if largest == k:
        return GatheringOutcome(
            True, 0, agents[0].pos, 0, tuple(a.pos for a in agents), largest
        )

    certifiable = certify and all(
        getattr(a.agent, "state", None) is not None for a in agents
    )
    cert_start = max(max(delay_list) + 1, plan.horizon + 1)
    schedule = plan.labeling_schedule(tree)
    seg = 0
    cur = schedule[0][1]
    seen: set[tuple] = set()

    for rnd in range(1, max_rounds + 1):
        while seg + 1 < len(schedule) and schedule[seg + 1][0] <= rnd:
            seg += 1
            cur = schedule[seg][1]
        for i, a in enumerate(agents):
            if plan.frozen_in_round(i, rnd):
                continue
            _execute(cur, a, _agent_action(cur, a, rnd))
        size = cluster_size()
        largest = max(largest, size)
        if size == k:
            return GatheringOutcome(
                True, rnd, agents[0].pos, rnd, tuple(a.pos for a in agents),
                largest, False, plan.crashed_by(rnd),
            )
        if certifiable and rnd > cert_start:
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


# ----------------------------------------------------------------------
# Compiled loops
# ----------------------------------------------------------------------

def _iter_compiled_faulted(
    schedule: list[tuple[int, Tree]],
    plan: FaultPlan,
    compileds: list,
    starts: list[int],
    start_rounds: list[int],
    max_rounds: int,
):
    """Flat-table faulted stepping, one yield per executed round:
    ``(rnd, pos, st, ip, started, acts)`` — the lists are live (mutated
    in place), ``acts`` records ``STAY`` for frozen agents.
    ``schedule`` is ``plan.labeling_schedule(tree)``, taken once by the
    caller (a sweep steps many prefixes under one plan).

    Relabel segments swap the move tables only: the transition tables
    are keyed on ``(stride, degree set)``, both labeling-invariant, so
    one compilation serves every segment.
    """
    k = len(starts)
    tables = [t.flat_move_tables() for _, t in schedule]
    seg = 0
    stride, deg, move_to, move_in = tables[0]
    width = stride + 1
    nxts = [c.next_state for c in compileds]
    acts_t = [c.action for c in compileds]
    start_acts = [c.start_action for c in compileds]
    s0s = [c.initial_state for c in compileds]

    pos = list(starts)
    st = [0] * k
    ip = [0] * k  # entry-port indices (in_port + 1; 0 == NULL_PORT)
    started = [False] * k
    acts = [STAY] * k
    freezable = {f.agent for f in (*plan.crashes, *plan.pauses)}

    for rnd in range(1, max_rounds + 1):
        while seg + 1 < len(schedule) and schedule[seg + 1][0] <= rnd:
            seg += 1
            stride, deg, move_to, move_in = tables[seg]
        for i in range(k):
            if i in freezable and plan.frozen_in_round(i, rnd):
                acts[i] = STAY
                continue
            if started[i]:
                d = deg[pos[i]]
                idx = (st[i] * width + ip[i]) * width + d
                s2 = nxts[i][idx]
                if s2 == _INVALID:
                    compileds[i].automaton.transition(st[i], ip[i] - 1, d)
                    raise SimulationError("invalid transition entry")  # pragma: no cover
                st[i] = s2
                a = acts_t[i][idx]
            elif rnd > start_rounds[i]:
                started[i] = True
                st[i] = s0s[i]
                a = start_acts[i][deg[pos[i]]]
            else:
                a = STAY
            acts[i] = a
            if a == STAY:
                ip[i] = 0
            else:
                base = pos[i] * stride + a
                pos[i] = move_to[base]
                ip[i] = move_in[base] + 1
        yield rnd, pos, st, ip, started, acts


def run_rendezvous_faulted_compiled(
    tree: Tree,
    prototype: Automaton,
    start1: int,
    start2: int,
    *,
    faults,
    delay: int = 0,
    delayed: int = 2,
    max_rounds: int = 1_000_000,
    certify: bool = False,
    record_trace: bool = False,
    prototype2: Optional[Automaton] = None,
) -> RendezvousOutcome:
    """Table-driven twin of :func:`run_rendezvous_faulted`; Brent
    certification anchored after ``max(first joint round, horizon)`` —
    the same round the reference's ``seen``-set starts at."""
    plan = _as_plan(faults)
    plan.validate_for(2)
    if not isinstance(prototype, Automaton):
        raise SimulationError("compiled backend requires a finite-state Automaton")
    if prototype2 is not None and not isinstance(prototype2, Automaton):
        raise SimulationError("compiled backend requires a finite-state Automaton")
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
            _final_agents(prototype, 0, False, 0, False, prototype2),
        )

    compiled = compile_agent(prototype, tree)
    compiled2 = compiled if prototype2 is None else compile_agent(prototype2, tree)
    sr1 = delay if delayed == 1 else 0
    sr2 = delay if delayed == 2 else 0
    cert_start = max(max(sr1, sr2) + 1, plan.horizon + 1)

    prev1, prev2 = start1, start2
    crossings = 0
    anchor: Optional[tuple] = None
    steps = 0
    power = 1

    rounds = _iter_compiled_faulted(
        plan.labeling_schedule(tree), plan, [compiled, compiled2],
        [start1, start2], [sr1, sr2], max_rounds,
    )
    pos, st, ip, started = [start1, start2], [0, 0], [0, 0], [False, False]
    for rnd, pos, st, ip, started, acts in rounds:
        if trace is not None:
            trace.append(RoundRecord(rnd, pos[0], pos[1], acts[0], acts[1]))
        if pos[0] == prev2 and pos[1] == prev1 and pos[0] != pos[1]:
            crossings += 1
        if pos[0] == pos[1]:
            return RendezvousOutcome(
                True, rnd, pos[0], rnd, False, crossings, trace,
                _final_agents(
                    prototype, st[0], started[0], st[1], started[1], prototype2
                ),
                plan.crashed_by(rnd),
            )
        if certify and rnd > cert_start:
            config = (pos[0], st[0], ip[0], pos[1], st[1], ip[1])
            if config == anchor:
                return RendezvousOutcome(
                    False, None, None, rnd, True, crossings, trace,
                    _final_agents(
                        prototype, st[0], started[0], st[1], started[1], prototype2
                    ),
                    plan.crashed_by(rnd),
                )
            steps += 1
            if steps == power:
                anchor = config
                steps = 0
                power <<= 1
        prev1, prev2 = pos[0], pos[1]

    return RendezvousOutcome(
        False, None, None, max_rounds, False, crossings, trace,
        _final_agents(prototype, st[0], started[0], st[1], started[1], prototype2),
        plan.crashed_by(max_rounds),
    )


def run_gathering_faulted_compiled(
    tree: Tree,
    prototype: Automaton,
    starts: Sequence[int],
    *,
    faults,
    delays: Optional[Sequence[int]] = None,
    max_rounds: int = 1_000_000,
    certify: bool = False,
) -> GatheringOutcome:
    """Table-driven twin of :func:`run_gathering_faulted_reference`."""
    plan = _as_plan(faults)
    if not isinstance(prototype, Automaton):
        raise SimulationError("compiled gathering requires a finite-state Automaton")
    delay_list = _validate(tree, starts, delays)
    plan.validate_for(len(starts))
    k = len(starts)
    compiled = compile_agent(prototype, tree)

    def cluster_size(positions) -> int:
        counts: dict[int, int] = {}
        for p in positions:
            counts[p] = counts.get(p, 0) + 1
        return max(counts.values())

    largest = cluster_size(starts)
    if largest == k:
        return GatheringOutcome(True, 0, starts[0], 0, tuple(starts), largest)

    cert_start = max(max(delay_list) + 1, plan.horizon + 1)
    anchor: Optional[tuple] = None
    steps = 0
    power = 1

    rounds = _iter_compiled_faulted(
        plan.labeling_schedule(tree), plan, [compiled] * k, list(starts),
        delay_list, max_rounds,
    )
    pos = list(starts)
    for rnd, pos, st, ip, started, _acts in rounds:
        size = cluster_size(pos)
        largest = max(largest, size)
        if size == k:
            return GatheringOutcome(
                True, rnd, pos[0], rnd, tuple(pos), largest, False,
                plan.crashed_by(rnd),
            )
        if certify and rnd > cert_start:
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


# ----------------------------------------------------------------------
# Exact faulted sweep solvers
# ----------------------------------------------------------------------

def _frozen_steppers(compileds, final_tree, crashed_agents):
    """Per-agent post-horizon steppers on the final labeling; crashed
    agents step by identity (they are constant forever)."""
    def identity(p: int, s: int, i: int) -> tuple[int, int, int]:
        return p, s, i

    return [
        identity if i in crashed_agents else _make_stepper(c, final_tree)
        for i, c in enumerate(compileds)
    ]


def solve_all_delays_faulted(
    tree: Tree,
    prototype: Automaton,
    start1: int,
    start2: int,
    *,
    max_delay: int,
    faults,
    delayed_sides: Sequence[int] = (1, 2),
    max_configs: int = 4_000_000,
    prototype2: Optional[Automaton] = None,
) -> list[DelayVerdict]:
    """:func:`repro.sim.compiled.solve_all_delays` under a fault plan:
    :func:`solve_gathering_faulted` over the sweep's k=2 delay vectors
    (:mod:`repro.sim.delays`).  Still exact: every verdict is ``met`` or
    ``certified_never``."""
    choices = sweep_choices(max_delay, delayed_sides)
    verdicts = solve_gathering_faulted(
        tree, prototype, (start1, start2),
        [delay_vector(theta, side) for theta, side in choices],
        faults=faults, max_configs=max_configs,
        prototypes=None if prototype2 is None else (prototype, prototype2),
    )
    return to_delay_verdicts(choices, verdicts)


def solve_gathering_faulted(
    tree: Tree,
    prototype: Automaton,
    starts: Sequence[int],
    delay_vectors: Sequence[Sequence[int]],
    *,
    faults,
    max_configs: int = 4_000_000,
    prototypes: Optional[Sequence[Automaton]] = None,
) -> list[GatheringVerdict]:
    """:func:`repro.sim.gathering_solver.solve_gathering` under a
    (non-empty) fault plan: faulted prefixes per delay vector, then one
    grid-wide fate memo over the post-horizon dynamics.  Still exact:
    every verdict is ``gathered`` or ``certified_never``."""
    return solve_gathering(
        tree, prototype, starts, delay_vectors, faults=_as_plan(faults),
        max_configs=max_configs, prototypes=prototypes,
    )
