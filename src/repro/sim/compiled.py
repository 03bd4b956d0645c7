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
- :func:`run_rendezvous_compiled` replays the exact reference semantics
  over those tables, replacing the ``seen``-set certificate with Brent
  cycle detection on the deterministic joint successor — O(1) memory
  instead of O(rounds).  Like the reference engine it has one loop: a
  fault plan (:mod:`repro.sim.faults`) swaps move tables and frozen
  flags at its event rounds, and a fault-free run is the empty plan;
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
from .engine import RendezvousOutcome, run_rendezvous
from .faults import _NO_FAULTS, FaultPlan, _segments
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
    steps solo runs and joint configurations with it; the per-round
    simulation loops keep their hand-inlined copies for speed.
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


def _final_agents(
    prototype: Automaton,
    s1: int,
    started1: bool,
    s2: int,
    started2: bool,
    prototype2: Optional[Automaton] = None,
) -> tuple[Automaton, Automaton]:
    """Clones carrying the final automaton states, like the reference
    engine's outcome.agents."""
    a1, a2 = prototype.clone(), (prototype2 or prototype).clone()
    if started1:
        a1.state = s1
    if started2:
        a2.state = s2
    return a1, a2


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
    prototype2: Optional[Automaton] = None,
    faults=None,
) -> RendezvousOutcome:
    """Table-driven replay of :func:`repro.sim.engine.run_rendezvous`.

    Semantics are identical to the reference engine, including the
    symmetry certificate before round 1; non-meeting certification by
    recurrence uses Brent cycle detection on the joint configuration
    (O(1) memory) instead of a ``seen`` set.

    ``prototype2`` (default: ``prototype``) lets the two agents run
    different automata — the seam the lowering subsystem
    (:mod:`repro.sim.traced`) uses to feed per-(tree, start) traced
    tables through the product machinery.  The classic rendezvous
    problem (two *identical* agents) simply leaves it unset.

    ``faults`` (an optional :class:`~repro.sim.faults.FaultPlan`) runs
    in this same loop: at each event round the move tables switch to the
    labeling in force — the transition tables are keyed on ``(stride,
    degree set)``, both labeling-invariant, so one compilation serves
    every labeling — and the frozen flags are re-read.  Brent
    certification anchors after ``max(first joint round, horizon)``,
    the round the reference's ``seen``-set starts at.
    """
    plan = FaultPlan.coerce(faults) or _NO_FAULTS
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
    if certify and delay == 0 and not plan and prototype2 is None:
        from .certificates import symmetry_certificate

        if symmetry_certificate(tree, start1, start2) is not None:
            return RendezvousOutcome(
                False, None, None, 0, True, 0, trace,
                _final_agents(prototype, 0, False, 0, False),
            )

    compiled = compile_agent(prototype, tree)
    compiled2 = compiled if prototype2 is None else compile_agent(prototype2, tree)
    width = compiled.stride + 1
    nxt, act = compiled.next_state, compiled.action
    nxt2, act2_t = compiled2.next_state, compiled2.action
    start_act = compiled.start_action
    start_act2 = compiled2.start_action
    s0 = compiled.initial_state
    s0_2 = compiled2.initial_state
    automaton = compiled.automaton
    automaton2 = compiled2.automaton

    sr1 = delay if delayed == 1 else 0
    sr2 = delay if delayed == 2 else 0
    first_joint = max(sr1, sr2, plan.horizon) + 1

    pos1, pos2 = start1, start2
    st1 = st2 = 0  # automaton states (meaningless until started)
    ip1 = ip2 = 0  # entry-port *indices* (in_port + 1; 0 == NULL_PORT)
    started1 = started2 = False

    crossings = 0
    # Brent cycle detection state.
    anchor: Optional[tuple] = None
    steps = 0
    power = 1

    for rounds, cur, frozen in _segments(plan.events(tree), max_rounds):
        stride, deg, move_to, move_in = cur.flat_move_tables()
        f1, f2 = 0 in frozen, 1 in frozen
        for rnd in rounds:
            prev1, prev2 = pos1, pos2

            # -- agent 1 (frozen: no step, no move, entry port kept) ---------
            if f1:
                act1 = STAY
            else:
                if started1:
                    d = deg[pos1]
                    idx = (st1 * width + ip1) * width + d
                    s2_ = nxt[idx]
                    if s2_ == _INVALID:
                        automaton.transition(st1, ip1 - 1, d)  # raises the real error
                        raise SimulationError("invalid transition entry")  # pragma: no cover
                    st1 = s2_
                    a = act[idx]
                elif rnd > sr1:
                    started1 = True
                    st1 = s0
                    a = start_act[deg[pos1]]
                else:
                    a = STAY
                act1 = a
                if a == STAY:
                    ip1 = 0
                else:
                    base = pos1 * stride + a
                    pos1 = move_to[base]
                    ip1 = move_in[base] + 1

            # -- agent 2 -----------------------------------------------------
            if f2:
                act2 = STAY
            else:
                if started2:
                    d = deg[pos2]
                    idx = (st2 * width + ip2) * width + d
                    s2_ = nxt2[idx]
                    if s2_ == _INVALID:
                        automaton2.transition(st2, ip2 - 1, d)
                        raise SimulationError("invalid transition entry")  # pragma: no cover
                    st2 = s2_
                    a = act2_t[idx]
                elif rnd > sr2:
                    started2 = True
                    st2 = s0_2
                    a = start_act2[deg[pos2]]
                else:
                    a = STAY
                act2 = a
                if a == STAY:
                    ip2 = 0
                else:
                    base = pos2 * stride + a
                    pos2 = move_to[base]
                    ip2 = move_in[base] + 1

            # -- bookkeeping (reference order: trace, crossing, meet, certify)
            if trace is not None:
                trace.append(RoundRecord(rnd, pos1, pos2, act1, act2))
            if pos1 == prev2 and pos2 == prev1 and pos1 != pos2:
                crossings += 1
            if pos1 == pos2:
                return RendezvousOutcome(
                    True, rnd, pos1, rnd, False, crossings, trace,
                    _final_agents(prototype, st1, started1, st2, started2, prototype2),
                    plan.crashed_by(rnd),
                )
            if certify and rnd > first_joint:
                config = (pos1, st1, ip1, pos2, st2, ip2)
                if config == anchor:
                    return RendezvousOutcome(
                        False, None, None, rnd, True, crossings, trace,
                        _final_agents(prototype, st1, started1, st2, started2, prototype2),
                        plan.crashed_by(rnd),
                    )
                steps += 1
                if steps == power:
                    anchor = config
                    steps = 0
                    power <<= 1

    return RendezvousOutcome(
        False, None, None, max_rounds, False, crossings, trace,
        _final_agents(prototype, st1, started1, st2, started2, prototype2),
        plan.crashed_by(max_rounds),
    )


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
