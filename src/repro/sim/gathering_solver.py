"""The exact k-agent gathering solver: joint-configuration recurrence.

Gathering with per-agent start delays (§1.3) decided for a whole grid of
delay vectors in one reachability pass over the product configuration
graph: for finite-state agents, the joint configuration — every agent's
``(position, automaton state, entry port)`` — after a fully-started
round determines the entire future, so each configuration's fate
(*gathers after d more rounds* / *provably never gathers*) is computed
once and shared across every delay vector of the grid.

For one delay vector ``(θ_0, ..., θ_{k-1})`` the solver:

1. plays the staggered prefix, rounds ``1 .. max(max(θ), horizon) +
   1`` (agents are still waking up and faults may still fire, so the
   configuration is not yet a pure function of its predecessor),
   checking gathering after every round — ``horizon`` is the fault
   plan's last active round, 0 without faults;
2. from the configuration reached after that round walks the
   deterministic product configuration graph (final labeling, crashed
   agents frozen), memoizing each visited configuration's fate in a
   dictionary shared across *all* delay vectors of the call.

Without faults an agent's moves depend only on its own start, so the
prefixes share one solo run per agent slot (:class:`_Solo`): agent i
started after round θ_i is, after round r, where its solo run is after
``r - θ_i`` rounds.  Each slot's solo run is stepped once for the grid,
only as far as some vector reads it, and a vector's prefix is read off
the solo runs: before every agent has started, the agents can only
gather on the start node of the last one to wake, and the first round
they do is found through each solo run's per-node visit index.  A
two-agent delay sweep — delay vectors ``(0, θ)`` / ``(θ, 0)``, see
:mod:`repro.sim.delays` — thus costs O(Θ) prefix steps, not O(Θ²).
A fault plan acts on absolute rounds, so faulted grids replay each
vector's prefix with the k-agent table stepper of
:func:`repro.sim.multi.run_gathering_compiled`.

One body serves fault-free and faulted grids, and every delay sweep:
:func:`repro.sim.faults.solve_gathering_faulted` is this solver with a
fault plan, and :func:`repro.sim.compiled.solve_all_delays` (faulted or
not) is this solver over the sweep's k=2 delay vectors.

Because the product graph is finite, every verdict is exact: exactly one
of ``gathered`` / ``certified_never`` holds — the sweep executors never
have to report a round-budget exhaustion as an answer.  ``max_configs``
is a guard against pathological state-space blowups (k-agent spaces grow
as ``(n·K·(Δ+1))^k``), not a round budget.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

from ..agents.automaton import Automaton
from ..agents.observations import STAY
from ..errors import BudgetExceededError, SimulationError
from ..records import TupleRecord, tuple_new
from ..trees.tree import Tree
from .compiled import _make_stepper, _table_rounds, compile_agent
from .faults import _NO_FAULTS, FaultPlan
from .multi import _validate

__all__ = ["GatheringVerdict", "solve_gathering"]

_NEVER = (False, -1)


class GatheringVerdict(TupleRecord):
    """Fate of one per-agent delay vector.

    :func:`solve_gathering` always decides (the product configuration
    graph is finite): exactly one of ``gathered`` / ``certified_never``
    is true in its output.  The budgeted sweep path
    (``Backend.sweep_gathering`` over per-run engines) may return a
    verdict with *neither* flag set — an undecided round-budget
    exhaustion, which callers must never treat as a non-gathering proof.
    """

    __slots__ = ()

    def __new__(
        cls,
        delays: tuple[int, ...],
        gathered: bool,
        gathering_round: Optional[int],
        certified_never: bool,
        # Did a crash fault fire by this vector's final decided round?
        # Always False for fault-free sweeps (see DelayVerdict.crashed).
        crashed: bool = False,
    ):
        return tuple_new(cls, (
            delays, gathered, gathering_round, certified_never, crashed,
        ))


def _check_grid(tree, prototype, start_sets, delay_vectors, prototypes):
    """A gathering grid's ``(start sets, per-agent automata, delay
    vectors)``, validated — the argument checks every gathering solver
    shares.  Every start set has one node per agent slot; vectors come
    back as tuples."""
    start_sets = [tuple(starts) for starts in start_sets]
    k = len(start_sets[0]) if start_sets else 0
    protos = list(prototypes) if prototypes is not None else [prototype] * k
    if any(len(starts) != k for starts in start_sets):
        raise SimulationError("every start set needs one node per agent")
    if len(protos) != k:
        raise SimulationError("'prototypes' must align with 'starts'")
    for p in protos:
        if not isinstance(p, Automaton):
            raise SimulationError(
                "the gathering solver requires finite-state Automaton agents"
            )
    vectors = list(map(tuple, delay_vectors))
    if vectors:
        for starts in start_sets:
            _validate(tree, starts, None)
        if set(map(len, vectors)) != {k} or min(map(min, vectors)) < 0:
            raise SimulationError("delays must align with starts and be >= 0")
    return start_sets, protos, vectors


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
        known = verdict.get(config)
        if known is not None:
            return known
        path: dict[tuple, int] = {}  # the walk so far: config -> its step
        room = max_configs - len(verdict)
        cur = config
        while True:
            # every agent on one node (first vs last: the cheap reject)
            if cur[0] == cur[-3] and cur[::3].count(cur[0]) == k:
                res = (True, 0)
                verdict[cur] = res
                break
            step = len(path)
            if path.setdefault(cur, step) != step:  # a fresh cycle, no gathering on it
                res = _NEVER
                break
            if step >= room:
                raise BudgetExceededError(
                    f"gathering solver exceeded max_configs={max_configs}"
                )
            nxt: tuple = ()
            for advance, j in slots:
                nxt += advance(cur[j], cur[j + 1], cur[j + 2])
            cur = nxt
            known = verdict.get(cur)
            if known is not None:
                res = known
                break
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


class _Solo:
    """One agent slot's solo run, stepped on demand and shared by every
    delay vector of a fault-free grid.

    ``configs[t]`` is the agent's ``(position, state, entry port)``
    after its t-th active round (``configs[0]`` is unused: before its
    first round an agent sleeps on its start node), and ``visits[v]``
    lists, ascending, the stepped t at which it stands on node ``v``.
    The run is stepped only when a vector reads past its end, so an
    invalid transition raises exactly when some vector's own prefix
    would have executed it.
    """

    __slots__ = ("configs", "visits", "step")

    def __init__(self, first: tuple[int, int, int], step):
        self.configs = [None, first]
        self.visits = {first[0]: [1]}
        self.step = step

    def seek(self, node: int, lo: int, hi: int) -> Optional[int]:
        """The first t in ``[lo, hi]`` with the agent on ``node`` after
        its t-th round, or ``None`` — stepping no further than that t
        (or ``hi``).  ``seek(-1, 0, t)`` just steps through round t."""
        times = self.visits.get(node)
        if times:
            i = bisect_left(times, lo)
            if i < len(times):
                return times[i] if times[i] <= hi else None
        configs, visits, step = self.configs, self.visits, self.step
        cfg = configs[-1]
        for t in range(len(configs), hi + 1):
            cfg = step(*cfg)
            configs.append(cfg)
            seen = visits.get(cfg[0])
            if seen is None:
                visits[cfg[0]] = [t]
            else:
                seen.append(t)
            if cfg[0] == node and t >= lo:
                return t
        return None


def _start_config(compiled, tree: Tree, node: int) -> tuple[int, int, int]:
    """An agent's ``(position, state, entry port)`` after its start
    round from ``node``."""
    stride, deg, move_to, move_in = tree.flat_move_tables()
    a = compiled.start_action[deg[node]]
    if a == STAY:
        return node, compiled.initial_state, 0
    base = node * stride + a
    return move_to[base], compiled.initial_state, move_in[base] + 1


def _shared_prefix(starts: Sequence[int], solos: Sequence[_Solo]):
    """Fault-free prefixes read off shared solo runs (see the module
    docstring).  ``prefix(delays)`` returns ``(rnd, None)`` when the k
    agents gather at round ``rnd`` before all have started, else
    ``(rnd, entry)``: the joint configuration after round
    ``rnd = max(delays) + 1``.

    Through round ``max(delays)`` the last agent to wake still sleeps on
    its start node, so an earlier gathering happens there, and only once
    every agent starting elsewhere is up.  The agents then leapfrog to
    their first common round on that node: a sleeping agent (its start
    is that node) is on it, an awake one at its next visit.
    """
    agents = [(i, solo, solo.configs) for i, solo in enumerate(solos)]
    away = {node: [a for a in agents if starts[a[0]] != node] for node in starts}

    def prefix(delays):
        last = max(delays)
        node = starts[delays.index(last)]
        rnd = 1
        movers = away[node]
        for i, _solo, _configs in movers:
            if delays[i] >= rnd:
                rnd = delays[i] + 1
        if starts.count(node) > 1:  # agents that wake on the node, then leave it
            movers = movers + [
                a for a in agents if starts[a[0]] == node and delays[a[0]] < last
            ]
        runner = agreed = 0
        while rnd <= last:
            i, solo, _configs = movers[runner]
            d = delays[i]
            if rnd > d:
                # up to round last + 1, which the entry reads anyway
                t = solo.seek(node, rnd - d, last + 1 - d)
                if t is None or t + d > last:
                    break
                if t + d != rnd:
                    rnd, agreed = t + d, 0
            agreed += 1
            if agreed == len(movers):
                return rnd, None
            runner = (runner + 1) % len(movers)
        rnd = last + 1
        entry = ()
        for i, solo, configs in agents:
            t = rnd - delays[i]
            if t >= len(configs):
                solo.seek(-1, 0, t)
            entry += configs[t]
        return rnd, entry

    return prefix


def _replayed_prefix(events, compileds, starts: Sequence[int], horizon: int):
    """Faulted prefixes: a fault plan acts on absolute rounds, so each
    vector replays rounds ``1 .. max(max(delays), horizon) + 1`` with the
    k-agent table stepper (same contract as :func:`_shared_prefix`)."""
    k = len(starts)
    width = compileds[0].stride + 1

    def prefix(delays):
        last = max(max(delays), horizon) + 1
        pos = list(starts)
        rows = [c.initial_state * width for c in compileds]
        for rnd in _table_rounds(events, compileds, delays, last, pos, rows):
            if pos[0] == pos[-1] and pos.count(pos[0]) == k:
                return rnd, None
        return last, tuple(
            x for p, row in zip(pos, rows) for x in (p, *divmod(row, width))
        )

    return prefix


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
    (starts,), protos, vectors = _check_grid(
        tree, prototype, [starts], delay_vectors, prototypes
    )
    plan.validate_for(len(starts))
    if len(set(starts)) == 1:
        return [GatheringVerdict(key, True, 0, False) for key in vectors]

    compileds = [compile_agent(p, tree) for p in protos]
    events = plan.events(tree)
    crashed_agents = {c.agent for c in plan.crashes}
    has_crashes = bool(crashed_agents)
    # The last event's labeling is the final one.
    steppers = _frozen_steppers(compileds, events[-1][1], crashed_agents)
    resolve = _fate_resolver(steppers, max_configs)
    if plan:
        prefix = _replayed_prefix(events, compileds, starts, plan.horizon)
    else:
        prefix = _shared_prefix(starts, [
            _Solo(_start_config(c, tree, node), step)
            for c, step, node in zip(compileds, steppers, starts)
        ])

    out: list[GatheringVerdict] = []
    for key in vectors:
        # After the prefix's last round every surviving agent has
        # started, every pause has expired and the labeling is final, so
        # the joint configuration is a pure function of its predecessor.
        rnd, entry = prefix(key)
        if entry is None:
            out.append(GatheringVerdict(
                key, True, rnd, False, has_crashes and bool(plan.crashed_by(rnd))
            ))
            continue
        met, dist = resolve(entry)
        if met:
            out.append(GatheringVerdict(key, True, rnd + dist, False, has_crashes))
        else:
            out.append(GatheringVerdict(key, False, None, True, has_crashes))
    return out
