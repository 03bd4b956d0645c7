"""Compiled table-driven simulation backend.

The reference engine (:mod:`repro.sim.engine`) is written for clarity: it
re-dispatches through ``AgentBase.step`` every round, re-queries
``tree.degree`` / ``tree.move``, and certifies non-meeting with an
unbounded per-run ``seen`` set.  Every experiment in the reproduction —
the Theorem 4.1 sweeps, the exhaustive small-tree verification, the lower
bound certifications — bottoms out in that loop, so this module *lowers*
a ``(Tree, finite-state agent)`` pair into flat integer tables and steps
the joint configuration with array indexing only:

- the tree contributes its cached flat navigation tables
  (:meth:`repro.trees.tree.Tree.flat_move_tables`);
- an :class:`~repro.agents.automaton.Automaton` is compiled into a flat
  ``(state, in_port, degree) -> (resolved action, next state)`` table by
  :func:`compile_agent` (memoized per automaton × tree shape);
- :func:`_compiled_run` replays the exact reference semantics over
  those tables for k agents (:func:`run_rendezvous_compiled` is its
  k=2 run, :func:`repro.sim.multi.run_gathering_compiled` any k),
  replacing the ``seen``-set certificate with Brent cycle detection on
  the deterministic joint successor — O(1) memory instead of
  O(rounds).  Like the reference engine it has one loop: a fault plan
  (:mod:`repro.sim.faults`) swaps move tables and frozen flags at its
  event rounds, and a fault-free run is the empty plan;
- :func:`solve_all_delays` decides *every* delay θ ∈ [0, Θ] (and both
  delayed-agent choices) as the k=2 case of the exact gathering solver
  (:func:`repro.sim.gathering_solver.solve_gathering`): one shared
  reachability pass over the product configuration graph, in which
  trajectories for different delays re-enter the same joint
  configurations, so each configuration's fate (meets after k rounds /
  provably never) is computed once and spliced into every later delay.

:func:`run_rendezvous_fast` is the dispatch point the analysis and
lower-bound layers use: compiled backend for automata, reference engine
for arbitrary ``AgentBase`` programs.  Register programs become
compiled-backend citizens through the lowering subsystem
(:mod:`repro.agents.lowering` for explicit-automaton enumeration,
:mod:`repro.sim.traced` for per-(tree, start) solo traces) — the
scenario backends route grid workloads there.  The reference engine
remains the oracle; the parity property suites assert identical
verdicts.

Verdict parity contract: ``met``, ``meeting_round``, ``meeting_node`` and
``certified_never`` agree with the reference engine (given budgets large
enough for both to decide).  ``rounds_executed`` on a certified-never
outcome may differ — Brent's anchor detects the cycle at a different (but
boundedly larger) round than the first-repeat ``seen`` set.
"""

from __future__ import annotations

import weakref
from typing import Optional, Sequence

from ..agents.automaton import Automaton
from ..agents.observations import STAY, AgentBase, resolve_action
from ..agents.program import AgentProgram
from ..errors import SimulationError
from ..trees.tree import Tree
from .delays import DelayVerdict, delay_vector, sweep_choices, to_delay_verdicts
from .engine import JointRun, RendezvousOutcome, _rendezvous, run_rendezvous
from .faults import FaultPlan, _segments
from .trace import RoundRecord, Trace

__all__ = [
    "CompiledAgent",
    "compile_agent",
    "supports_compilation",
    "run_rendezvous_compiled",
    "run_rendezvous_fast",
    "DelayVerdict",
    "solve_all_delays",
]

_INVALID = -2  # table sentinel: the live transition raised for this input


class CompiledAgent:
    """Flat transition tables for one automaton on one tree shape.

    The table shape depends only on the tree's maximum degree ``stride``
    and its set of occurring degrees, so one compilation is reused across
    every run on trees of the same shape (notably: all relabelings).

    Index layout: for state ``s``, entry port ``ip`` (``-1`` for a null
    observation) and node degree ``d``::

        idx = (s * (stride + 1) + (ip + 1)) * (stride + 1) + d
        next_state[idx], action[idx]

    ``action`` is the *resolved* action: ``STAY`` or a concrete port
    ``< d`` (the ``λ(s') mod d`` rule is baked in at compile time).
    Entries whose live transition raised hold ``_INVALID`` in
    ``next_state``; hitting one at run time re-invokes the automaton so
    the genuine error surfaces exactly as it would in the reference
    engine.
    """

    __slots__ = ("automaton", "stride", "next_state", "action", "start_action", "initial_state")

    def __init__(self, automaton: Automaton, stride: int, degrees: frozenset[int]):
        self.automaton = automaton
        self.stride = stride
        self.initial_state = automaton.initial_state
        width = stride + 1
        size = automaton.num_states * width * width
        nxt = [_INVALID] * size
        act = [STAY] * size
        output = automaton.output
        for s in range(automaton.num_states):
            for d in degrees:
                for ip in range(-1, d):
                    try:
                        s2 = automaton.transition(s, ip, d)
                    # repro-lint: disable=RPR002 -- table-build probe over every (state, port, degree) cell: unreachable cells may raise anything; the _INVALID sentinel re-runs the automaton live so the genuine error surfaces if ever hit
                    except Exception:
                        continue  # keep the sentinel; re-raised live if hit
                    idx = (s * width + (ip + 1)) * width + d
                    nxt[idx] = s2
                    act[idx] = resolve_action(output[s2], d)
        self.next_state = nxt
        self.action = act
        self.start_action = tuple(
            resolve_action(output[automaton.initial_state], d) for d in range(width)
        )


def supports_compilation(prototype: AgentBase):
    """Can ``prototype`` be lowered to transition tables?

    Three answers (the first two truthy, so boolean callers keep
    working):

    - ``"native"`` — a finite-state :class:`Automaton`: compiles
      directly to flat tables;
    - ``"lowerable"`` — a bounded-register
      :class:`~repro.agents.program.AgentProgram`: the lowering
      subsystem (:mod:`repro.agents.lowering` /
      :mod:`repro.sim.traced`) can turn it into an explicit automaton
      or per-(tree, start) traced tables;
    - ``False`` — an arbitrary duck-typed agent: reference engine only.
    """
    if isinstance(prototype, Automaton):
        return "native"
    if isinstance(prototype, AgentProgram):
        return "lowerable"
    return False


# Compilations are memoized per live automaton object: the weak keying
# keeps the cache out of pickles (multiprocessing fan-out) and lets table
# memory die with the automaton.
_COMPILE_CACHE: "weakref.WeakKeyDictionary[Automaton, dict]" = weakref.WeakKeyDictionary()


def compile_agent(automaton: Automaton, tree: Tree) -> CompiledAgent:
    """Compile (and memoize) ``automaton`` against ``tree``'s shape."""
    stride, deg, _move_to, _move_in = tree.flat_move_tables()
    key = (stride, frozenset(deg))
    try:
        cache = _COMPILE_CACHE.setdefault(automaton, {})
    except TypeError:  # pragma: no cover - automaton not weak-referenceable
        return CompiledAgent(automaton, key[0], key[1])
    compiled = cache.get(key)
    if compiled is None:
        compiled = CompiledAgent(automaton, key[0], key[1])
        cache[key] = compiled
    return compiled


def _make_stepper(compiled: CompiledAgent, tree: Tree):
    """One started-agent round over the flat tables:
    ``(pos, state, ip-index) -> successor``.

    The exact solver (:func:`repro.sim.gathering_solver.solve_gathering`)
    steps solo runs and joint configurations with it; the k-agent table
    stepper (:func:`_table_rounds`) keeps an inlined copy for speed.
    """
    stride, deg, move_to, move_in = tree.flat_move_tables()
    width = stride + 1
    nxt, act = compiled.next_state, compiled.action
    automaton = compiled.automaton

    def step_one(pos: int, st: int, ip: int) -> tuple[int, int, int]:
        d = deg[pos]
        idx = (st * width + ip) * width + d
        s2 = nxt[idx]
        if s2 == _INVALID:
            automaton.transition(st, ip - 1, d)  # raises the real error
            raise SimulationError("invalid transition entry")  # pragma: no cover
        a = act[idx]
        if a == STAY:
            return pos, s2, 0
        base = pos * stride + a
        return move_to[base], s2, move_in[base] + 1

    return step_one


def run_rendezvous_compiled(
    tree: Tree,
    prototype: Automaton,
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
    """Table-driven replay of :func:`repro.sim.engine.run_rendezvous`:
    the k=2 run of this tier's k-agent loop (:func:`_compiled_run`).

    Semantics are identical to the reference engine, including the
    symmetry certificate before round 1; non-meeting certification by
    recurrence uses Brent cycle detection on the joint configuration
    (O(1) memory) instead of a ``seen`` set.  ``outcome.agents`` are
    clones carrying the final automaton states.
    """
    if not isinstance(prototype, Automaton):
        raise SimulationError("compiled backend requires a finite-state Automaton")
    return _rendezvous(
        tree, prototype, start1, start2, delay, delayed, max_rounds, certify,
        record_trace, faults, _compiled_run,
    )


def _compiled_run(
    tree: Tree,
    prototype: Automaton,
    starts,
    delays,
    plan: FaultPlan,
    max_rounds: int,
    certify: bool,
    trace: Optional[Trace],
) -> JointRun:
    """The compiled tier's k-agent loop (the :class:`JointRun` contract
    of :func:`repro.sim.engine._reference_run`) over
    :func:`_table_rounds`.

    ``certify`` uses Brent cycle detection on the joint configuration —
    O(1) memory, same verdicts as the reference's ``seen``-set (the
    round a certificate fires at may differ).  It anchors after
    ``max(first joint round, horizon)``, the round the reference's
    ``seen``-set starts at.
    """
    k = len(starts)
    compiled = compile_agent(prototype, tree)
    width = compiled.stride + 1
    pos = list(starts)
    rows = [compiled.initial_state * width] * k
    largest = max(map(pos.count, pos))
    pair = k == 2
    px, py = starts[0], starts[-1]  # the previous round's positions when k == 2
    crossings = 0
    acts = [STAY] * k if trace is not None else None
    first_joint = max(*delays, plan.horizon) + 1
    # Brent cycle detection state.
    anchor: Optional[tuple] = None
    steps = 0
    power = 1

    for rnd in _table_rounds(
        plan.events(tree), [compiled] * k, delays, max_rounds, pos, rows, acts
    ):
        if pair:
            x, y = pos
            if x == py and y == px and x != y:
                crossings += 1
            px, py = x, y
        if trace is not None:
            trace.append(RoundRecord(rnd, pos[0], pos[1], acts[0], acts[1]))
        if pos.count(pos[0]) == k:
            return JointRun(
                True, rnd, rnd, tuple(pos), k, False, crossings,
                _state_set(prototype, rows, width),
            )
        # Short of gathering, only a cluster larger than ``largest``
        # raises it, and that leaves at most k - largest distinct nodes.
        if largest < k - 1 and k - len(set(pos)) >= largest:
            largest = max(map(pos.count, pos))
        if certify and rnd > first_joint:
            config = (*pos, *rows)
            if config == anchor:
                return JointRun(
                    False, None, rnd, tuple(pos), largest, True, crossings,
                    _state_set(prototype, rows, width),
                )
            steps += 1
            if steps == power:
                anchor = config
                steps = 0
                power <<= 1
    return JointRun(
        False, None, max_rounds, tuple(pos), largest, False, crossings,
        _state_set(prototype, rows, width),
    )


def _state_set(prototype: Automaton, rows, width: int) -> tuple:
    """Clones carrying the final automaton states (of the table rows
    ``rows``), like the reference tier's executed agents."""
    agents = tuple(prototype.clone() for _ in rows)
    for agent, row in zip(agents, rows):
        agent.state = row // width
    return agents


def _table_rounds(
    events: list,
    compileds: list,
    start_rounds: Sequence[int],
    max_rounds: int,
    pos: list,
    rows: list,
    acts: Optional[list] = None,
):
    """The k-agent table stepper: steps the joint configuration ``pos``
    / ``rows`` (the caller's lists, updated in place) and yields each
    executed round's index.

    Agent i runs ``compileds[i]`` from node ``pos[i]`` and starts after
    round ``start_rounds[i]``.  ``rows[i]`` is its transition-table row,
    ``state * (stride + 1) + entry-port index`` (in_port + 1; 0 ==
    NULL_PORT), with its automaton's initial state until it starts.
    ``acts`` (when given) receives each agent's resolved action of the
    round, ``STAY`` while asleep or frozen.

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
    width = compileds[0].stride + 1
    agents = [
        (i, c.next_state, c.action, c.start_action, start_rounds[i])
        for i, c in enumerate(compileds)
    ]
    started = [False] * len(agents)

    for rounds, cur, frozen in _segments(events, max_rounds):
        stride, deg, move_to, move_in = cur.flat_move_tables()
        active = [agent for agent in agents if agent[0] not in frozen]
        if acts is not None:
            for i in frozen:
                acts[i] = STAY
        for rnd in rounds:
            for i, nxt, act, start_act, start_round in active:
                p = pos[i]
                if started[i]:
                    idx = rows[i] * width + deg[p]
                    s2 = nxt[idx]
                    if s2 == _INVALID:
                        st, ip = divmod(rows[i], width)
                        compileds[i].automaton.transition(st, ip - 1, deg[p])
                        raise SimulationError("invalid transition entry")  # pragma: no cover
                    a = act[idx]
                elif rnd > start_round:
                    started[i] = True
                    s2 = rows[i] // width
                    a = start_act[deg[p]]
                else:
                    continue  # asleep: it has not moved, no entry port
                if a == STAY:
                    rows[i] = s2 * width
                else:
                    base = p * stride + a
                    pos[i] = move_to[base]
                    rows[i] = s2 * width + move_in[base] + 1
                if acts is not None:
                    acts[i] = a
            yield rnd


def run_rendezvous_fast(
    tree: Tree,
    prototype: AgentBase,
    start1: int,
    start2: int,
    **kwargs,
) -> RendezvousOutcome:
    """Backend dispatch: compiled tables for finite-state automata, the
    reference engine for everything else.

    Accepts exactly the keyword arguments of
    :func:`repro.sim.engine.run_rendezvous`.  Force the reference engine
    by calling it directly.

    Register programs ("lowerable") deliberately take the reference
    engine here: a *single* fresh run gains nothing from tracing (the
    trace is built by interpreting the very run it would replay), and
    the reference outcome carries the executed agents' registers.  Grid
    workloads that reuse (tree, start) pairs route through the scenario
    backends, whose compiled path shares traces across runs
    (:mod:`repro.sim.traced`).
    """
    if supports_compilation(prototype) == "native":
        return run_rendezvous_compiled(tree, prototype, start1, start2, **kwargs)
    return run_rendezvous(tree, prototype, start1, start2, **kwargs)


# ----------------------------------------------------------------------
# The batched all-delays solver
# ----------------------------------------------------------------------


def solve_all_delays(
    tree: Tree,
    prototype: Automaton,
    start1: int,
    start2: int,
    *,
    max_delay: int,
    delayed_sides: Sequence[int] = (1, 2),
    max_configs: int = 4_000_000,
    prototype2: Optional[Automaton] = None,
    faults=None,
) -> list[DelayVerdict]:
    """Decide every delay θ ∈ [0, max_delay] in one shared reachability pass.

    The sweep is the k=2 gathering grid over its (θ, side) choices
    (:mod:`repro.sim.delays`), decided by
    :func:`repro.sim.gathering_solver.solve_gathering`: each agent's
    solo run is stepped once and read by every θ, and configuration
    fates are memoized in one dictionary shared across all delays *and
    both sides*, so the total work is proportional to the number of
    distinct joint configurations reached — not to Θ × (rounds per run)
    as with per-delay simulation.

    Returns verdicts in the :func:`repro.sim.delays.sweep_choices` order
    (θ-major, θ = 0 once).  Raises :class:`~repro.errors.BudgetExceededError`
    if more than ``max_configs`` distinct configurations are explored (a
    guard, not a round budget — the solver is otherwise exact).

    ``prototype2`` (default: ``prototype``) is agent 2's automaton — the
    heterogeneous-agent seam used by traced lowering
    (:mod:`repro.sim.traced`).  ``faults`` (an optional
    :class:`~repro.sim.faults.FaultPlan`) applies one fault schedule to
    every choice; verdicts then carry ``crashed``.
    """
    from .gathering_solver import solve_gathering  # it imports this module

    choices = sweep_choices(max_delay, delayed_sides)
    verdicts = solve_gathering(
        tree, prototype, (start1, start2),
        [delay_vector(theta, side) for theta, side in choices],
        max_configs=max_configs,
        prototypes=None if prototype2 is None else (prototype, prototype2),
        faults=faults,
    )
    return to_delay_verdicts(choices, verdicts)
