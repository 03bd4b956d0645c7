"""The fault-model layer: crash-stop, transient pauses, adversarial relabeling.

The paper's adversary controls the start delay θ and the port labeling.
This module widens the adversary with three *runtime* fault families.
It owns the plan types; every execution engine takes a plan through
``faults=`` and runs it in its one round loop, with reference/compiled
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

The loops consult a plan only at its event rounds
(:meth:`FaultPlan.events`): each event gives the labeling in force and
the frozen agents until the next one, and the loops run the rounds
between two events as one segment (:func:`_segments`), so within a
segment a plan costs a frozen flag per agent and nothing else.  A
fault-free run is the empty plan: one segment from round 1 with the
base labeling and nobody frozen.

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

The exact sweeps take the plan the same way: the gathering solver
(:func:`repro.sim.gathering_solver.solve_gathering`) steps each delay
vector's faulted prefix through the horizon with the k-agent table
stepper, then resolves the reached configuration against a fate memo
shared across the whole grid — the post-horizon dynamics (final
labeling, crashed agents frozen) are choice-independent, so the memo is
valid grid-wide and the solver stays exact.
:func:`solve_gathering_faulted` is that solver with a plan required, and
a delay sweep is the k=2 case (:mod:`repro.sim.delays`), so
:func:`solve_all_delays_faulted` is the same solver over the k=2 delay
vectors.

Outcomes gain a ``crashed`` field (the agents whose crash had fired by
the final executed round) and the sweep verdicts a ``crashed`` flag, so
"never meets *because a fault killed an agent*" is certified distinctly
from healthy never-meeting all the way up to the scenario rows
(verdict ``certified-never-crash``).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from ..agents.automaton import Automaton
from ..errors import SimulationError
from ..records import Record
from ..trees.automorphism import is_symmetric_labeling
from ..trees.labelings import random_relabel
from ..trees.tree import Tree
from .delays import DelayVerdict, delay_vector, sweep_choices, to_delay_verdicts

if TYPE_CHECKING:
    from .gathering_solver import GatheringVerdict

__all__ = [
    "CrashFault",
    "PauseFault",
    "RelabelFault",
    "FaultPlan",
    "solve_all_delays_faulted",
    "solve_gathering_faulted",
]

_RELABEL_ATTEMPTS = 32


class CrashFault(NamedTuple):
    """Agent ``agent`` (0-based) crash-stops at round ``round`` (1-based):
    that round and every later one it executes nothing, but keeps
    occupying its node."""

    agent: int
    round: int


class PauseFault(NamedTuple):
    """Agent ``agent`` freezes for rounds ``round .. round+duration-1``:
    no automaton step, no move, pending entry port preserved."""

    agent: int
    round: int
    duration: int = 1


class RelabelFault(NamedTuple):
    """Before round ``round``'s actions the ports are re-drawn with
    ``random.Random(seed)`` (automorphism-respecting; node ids fixed)."""

    round: int
    seed: int = 0


class FaultPlan(Record, frozen=True):
    """One adversary's complete fault schedule for a run or sweep.

    Plans are frozen (assigning a field raises), picklable (they ride
    inside batch jobs and scenario params) and JSON round-trippable.  An empty plan is falsy,
    so ``faults=FaultPlan()`` and ``faults=None`` give identical runs.
    """

    __slots__ = ("crashes", "pauses", "relabels")

    def __init__(
        self,
        crashes: Sequence[CrashFault] = (),
        pauses: Sequence[PauseFault] = (),
        relabels: Sequence[RelabelFault] = (),
    ) -> None:
        crashes = tuple(sorted(crashes, key=lambda c: (c.round, c.agent)))
        pauses = tuple(sorted(pauses, key=lambda p: (p.round, p.agent)))
        relabels = tuple(sorted(relabels, key=lambda r: r.round))
        set_ = object.__setattr__
        set_(self, "crashes", crashes)
        set_(self, "pauses", pauses)
        set_(self, "relabels", relabels)
        for c in crashes:
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
        # Plain loops: every run reads this, and the empty plan should
        # cost next to nothing.
        end = 0
        for c in self.crashes:
            end = max(end, c.round)
        for p in self.pauses:
            end = max(end, p.round + p.duration - 1)
        for r in self.relabels:
            end = max(end, r.round)
        return end

    @property
    def max_agent_index(self) -> int:
        top = -1
        for f in self.crashes + self.pauses:
            top = max(top, f.agent)
        return top

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

    def events(self, tree: Tree) -> list[tuple[int, Tree, frozenset[int]]]:
        """``[(first_round, labeled_tree, frozen_agents), ...]`` — from
        each entry's round until the next entry's, the labeling in force
        and the agents that execute nothing; nothing changes in between.
        The last entry holds forever (crashed agents stay frozen).  The
        empty plan is the single entry ``(1, tree, frozenset())``."""
        if not self:
            return [(1, tree, frozenset())]
        rounds = {1}
        rounds.update(c.round for c in self.crashes)
        for p in self.pauses:
            rounds.update((p.round, p.round + p.duration))
        schedule = self.labeling_schedule(tree)
        rounds.update(r for r, _ in schedule)
        agents = {f.agent for f in (*self.crashes, *self.pauses)}
        out = []
        seg = 0
        for rnd in sorted(rounds):
            while seg + 1 < len(schedule) and schedule[seg + 1][0] <= rnd:
                seg += 1
            frozen = frozenset(a for a in agents if self.frozen_in_round(a, rnd))
            out.append((rnd, schedule[seg][1], frozen))
        return out

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


# The plan of a fault-free run: engines run ``faults=None`` as this.
_NO_FAULTS = FaultPlan()


def _segments(events, max_rounds: int):
    """``events`` (:meth:`FaultPlan.events`) as the round loops run
    them: ``[(rounds, labeled_tree, frozen_agents), ...]`` with
    ``rounds`` the range of rounds ``<= max_rounds`` each entry holds
    for; entries past ``max_rounds`` are dropped."""
    out = []
    for i, (first, labeled, frozen) in enumerate(events):
        if first > max_rounds:
            break
        stop = events[i + 1][0] if i + 1 < len(events) else max_rounds + 1
        out.append((range(first, min(stop, max_rounds + 1)), labeled, frozen))
    return out


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
        raise SimulationError("the faulted solvers need a non-empty fault plan")
    return plan


# ----------------------------------------------------------------------
# Exact faulted sweep solvers
# ----------------------------------------------------------------------

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
    from .gathering_solver import solve_gathering

    return solve_gathering(
        tree, prototype, starts, delay_vectors, faults=_as_plan(faults),
        max_configs=max_configs, prototypes=prototypes,
    )
