"""The exact k-agent gathering solver: joint-configuration recurrence.

Gathering with per-agent start delays (§1.3) decided for a whole grid of
delay vectors in one reachability pass over the product configuration
graph: for finite-state agents, the joint configuration — every agent's
``(position, automaton state, entry port)`` — after a fully-started
round determines the entire future, so each configuration's fate
(*gathers after d more rounds* / *provably never gathers*) is computed
once and shared across every delay vector of the grid.

For one delay vector ``(θ_0, ..., θ_{k-1})`` the solver:

1. replays the staggered prefix, rounds ``1 .. max(max(θ), horizon) +
   1``, with the k-agent table stepper of
   :func:`repro.sim.multi.run_gathering_compiled` (agents are still
   waking up and faults may still fire, so the configuration is not yet
   a pure function of its predecessor), checking gathering after every
   round — ``horizon`` is the fault plan's last active round, 0 without
   faults;
2. from the configuration reached after that round walks the
   deterministic product configuration graph (final labeling, crashed
   agents frozen), memoizing each visited configuration's fate in a
   dictionary shared across *all* delay vectors of the call.

One body serves fault-free and faulted grids:
:func:`repro.sim.faults.solve_gathering_faulted` is this solver with a
fault plan.  A two-agent delay sweep is the k=2 case — delay vectors
``(0, θ)`` / ``(θ, 0)``, see :mod:`repro.sim.delays` — and the faulted
delay sweep runs here as such.  The fault-free delay sweep keeps its own
solver, :func:`repro.sim.compiled.solve_all_delays`, which shares each
runner's solo prefix across every θ instead of replaying one staggered
prefix per vector, and is several times faster on k=2 grids.

Because the product graph is finite, every verdict is exact: exactly one
of ``gathered`` / ``certified_never`` holds — the sweep executors never
have to report a round-budget exhaustion as an answer.  ``max_configs``
is a guard against pathological state-space blowups (k-agent spaces grow
as ``(n·K·(Δ+1))^k``), not a round budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..agents.automaton import Automaton
from ..errors import BudgetExceededError, SimulationError
from ..trees.tree import Tree
from .compiled import _make_stepper, compile_agent
from .faults import _NO_FAULTS, FaultPlan
from .multi import _table_rounds, _validate

__all__ = ["GatheringVerdict", "solve_gathering"]

_NEVER = (False, -1)


@dataclass(frozen=True, slots=True)
class GatheringVerdict:
    """Fate of one per-agent delay vector.

    :func:`solve_gathering` always decides (the product configuration
    graph is finite): exactly one of ``gathered`` / ``certified_never``
    is true in its output.  The budgeted sweep path
    (``Backend.sweep_gathering`` over per-run engines) may return a
    verdict with *neither* flag set — an undecided round-budget
    exhaustion, which callers must never treat as a non-gathering proof.
    """

    delays: tuple[int, ...]
    gathered: bool
    gathering_round: Optional[int]
    certified_never: bool
    # Did a crash fault fire by this vector's final decided round?
    # Always False for fault-free sweeps (see DelayVerdict.crashed).
    crashed: bool = False


def _check_grid(tree, prototype, starts, delay_vectors, prototypes):
    """A gathering grid's ``(starts, per-agent automata, delay vectors)``,
    validated — the argument checks every gathering solver shares."""
    starts = list(starts)
    protos = list(prototypes) if prototypes is not None else [prototype] * len(starts)
    if len(protos) != len(starts):
        raise SimulationError("'prototypes' must align with 'starts'")
    for p in protos:
        if not isinstance(p, Automaton):
            raise SimulationError(
                "the gathering solver requires finite-state Automaton agents"
            )
    return starts, protos, [list(_validate(tree, starts, vec)) for vec in delay_vectors]


def _frozen_steppers(compileds, final_tree, crashed_agents):
    """Per-agent post-horizon steppers on the final labeling; crashed
    agents step by identity (they are constant forever)."""
    def identity(p: int, s: int, i: int) -> tuple[int, int, int]:
        return p, s, i

    return [
        identity if i in crashed_agents else _make_stepper(c, final_tree)
        for i, c in enumerate(compileds)
    ]


def _fate_resolver(steppers, max_configs: int):
    """The grid-wide fate memo over the product configuration graph.

    ``steppers[i]`` advances agent i's ``(position, state, entry port)``
    by one round; a joint configuration is the agent-major concatenation
    of those triples.  The returned ``resolve(config)`` gives the fate of
    a configuration reached after a fully-started round: ``(True, d)`` —
    gathers ``d`` rounds later — or ``(False, -1)`` — provably never.
    Every configuration on a walked path is memoized, so delay vectors
    whose trajectories re-enter known configurations cost nothing more.
    Raises :class:`~repro.errors.BudgetExceededError` past
    ``max_configs`` distinct configurations.
    """
    k = len(steppers)
    slots = [(step, 3 * i) for i, step in enumerate(steppers)]
    # verdict[config] = (True, d): gathers d rounds after reaching config;
    #                   (False, -1): provably never gathers from config.
    verdict: dict[tuple, tuple[bool, int]] = {}

    def resolve(config: tuple) -> tuple[bool, int]:
        path: list[tuple] = []
        on_path: dict[tuple, int] = {}
        cur = config
        while True:
            known = verdict.get(cur)
            if known is not None:
                res = known
                break
            # every agent on one node (first vs last: the cheap reject)
            if cur[0] == cur[-3] and cur[::3].count(cur[0]) == k:
                res = (True, 0)
                verdict[cur] = res
                break
            if cur in on_path:  # fresh cycle, and no gathering on it
                res = _NEVER
                break
            on_path[cur] = len(path)
            path.append(cur)
            if len(verdict) + len(path) > max_configs:
                raise BudgetExceededError(
                    f"gathering solver exceeded max_configs={max_configs}"
                )
            nxt: tuple = ()
            for step, j in slots:
                nxt += step(cur[j], cur[j + 1], cur[j + 2])
            cur = nxt
        met, dist = res
        if met:
            for c in reversed(path):
                dist += 1
                verdict[c] = (True, dist)
        else:
            for c in path:
                verdict[c] = _NEVER
        return verdict[config]

    return resolve


def solve_gathering(
    tree: Tree,
    prototype: Automaton,
    starts: Sequence[int],
    delay_vectors: Sequence[Sequence[int]],
    *,
    max_configs: int = 4_000_000,
    prototypes: Optional[Sequence[Automaton]] = None,
    faults=None,
) -> list[GatheringVerdict]:
    """Decide gathering for every per-agent delay vector, exactly.

    ``delay_vectors[j][i]`` is agent i's start delay in the j-th
    adversary choice; each vector must have one entry per start.
    Verdicts come back in ``delay_vectors`` order.  Raises
    :class:`~repro.errors.BudgetExceededError` if more than
    ``max_configs`` distinct joint configurations are explored (a guard,
    not a round budget — the solver is otherwise exact) and
    :class:`SimulationError` if ``prototype`` is not a finite-state
    :class:`~repro.agents.automaton.Automaton`.

    ``prototypes`` (default: ``prototype`` for every agent) gives agent
    i its own automaton — the heterogeneous seam traced lowering
    (:mod:`repro.sim.traced`) feeds per-(tree, start) tables through.
    ``faults`` (an optional :class:`~repro.sim.faults.FaultPlan`)
    applies one fault schedule to every vector; verdicts then carry
    ``crashed``.
    """
    plan = FaultPlan.coerce(faults) or _NO_FAULTS
    starts, protos, vectors = _check_grid(
        tree, prototype, starts, delay_vectors, prototypes
    )
    plan.validate_for(len(starts))
    k = len(starts)

    compileds = [compile_agent(p, tree) for p in protos]
    events = plan.events(tree)
    crashed_agents = {c.agent for c in plan.crashes}
    has_crashes = bool(crashed_agents)
    # The last event's labeling is the final one.
    resolve = _fate_resolver(
        _frozen_steppers(compileds, events[-1][1], crashed_agents), max_configs
    )

    out: list[GatheringVerdict] = []
    for delays in vectors:
        key = tuple(delays)
        if len(set(starts)) == 1:
            out.append(GatheringVerdict(key, True, 0, False))
            continue
        # Staggered (and faulted) prefix: rounds 1 .. max(max(delays),
        # horizon) + 1.  After the last of these every surviving agent
        # has started, every pause has expired and the labeling is
        # final, so the joint configuration is a pure function of its
        # predecessor.
        prefix = max(max(delays), plan.horizon) + 1
        met_at: Optional[int] = None
        pos = st = ip = None
        for rnd, pos, st, ip in _table_rounds(
            events, compileds, starts, delays, prefix
        ):
            if pos[0] == pos[-1] and pos.count(pos[0]) == k:
                met_at = rnd
                break
        if met_at is not None:
            out.append(GatheringVerdict(
                key, True, met_at, False, bool(plan.crashed_by(met_at))
            ))
            continue
        met, dist = resolve(tuple(x for i in range(k) for x in (pos[i], st[i], ip[i])))
        if met:
            out.append(GatheringVerdict(key, True, prefix + dist, False, has_crashes))
        else:
            out.append(GatheringVerdict(key, False, None, True, has_crashes))
    return out
