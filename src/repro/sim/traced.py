"""Route B lowering: solo-run JIT traces for register programs.

A rendezvous (or gathering) agent never observes its partners — agents
interact only by *being at the same node*, which ends the run.  On a
fixed tree, a deterministic agent's whole observation sequence is
therefore determined by its own movement: the joint execution is just k
independent **solo runs** compared round by round.  This module exploits
that:

- :class:`SoloTrace` lazily records one agent's solo run from one start
  node — resolved action and position per round — extending on demand
  and detecting *lassos*: the program returning (it waits forever) or
  its machine state recurring (Brent cycle detection over
  :func:`repro.agents.lowering.machine_state_key`, with a cheap
  ``(position, entry port, register values)`` proxy filter so the full
  frame freeze runs only on candidate rounds);
- :class:`TraceCache` shares traces across runs keyed by (prototype,
  tree, start) — the grid workloads (exhaustive verification, success
  sweeps) re-decide many pairs over few distinct starts, so each start's
  interpreted run is paid once and every further pair replays integer
  tables;
- :func:`run_rendezvous_traced` / :func:`run_gathering_traced` replay
  the reference-engine semantics over traces, both through the one
  k-agent loop :func:`_traced_run` (identical ``met`` /
  ``meeting_round`` / ``meeting_node`` verdicts; certification compares
  folded trace indices once every agent is past its trace's recorded
  prefix), and :func:`run_pairs_traced` decides a delay-0 pair grid as
  one certified rendezvous run per pair;
- :func:`traced_automaton` rolls a lassoed trace into a genuine
  :class:`~repro.agents.automaton.Automaton` (a chain with a back edge),
  and :func:`sweep_delays_traced` / :func:`sweep_gathering_traced` feed
  those per-start automata straight into the exact product-configuration
  solvers (:func:`repro.sim.compiled.solve_all_delays`,
  :func:`repro.sim.gathering_solver.solve_gathering`) through their
  heterogeneous-prototype seam.

Failure is graceful by construction: ``met`` verdicts never depend on
machine-state keys (the trace *is* the executed prefix), an unlassoed
trace simply leaves a run undecided at its round budget exactly like the
reference engine, and the sweep entry points raise
:class:`~repro.errors.BudgetExceededError` /
:class:`~repro.errors.LoweringError` for the scenario backends to catch
and degrade to budgeted per-run execution.

Outcome contract: traced outcomes carry *fresh* (unexecuted) agent
clones in ``outcome.agents`` — the executed register account of a traced
run lives in the shared trace, not in per-run clones.  Callers that need
executed registers (the memory experiments) measure a solo replay
(:func:`repro.core.memory.measure_memory`), which is identical by the
same solo-determinism argument.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..agents.automaton import Automaton
from ..agents.lowering import machine_state_key
from ..agents.observations import NULL_PORT, STAY, AgentBase
from ..agents.program import AgentProgram
from ..errors import BudgetExceededError, LoweringError, SimulationError
from ..trees.tree import Tree
from .compiled import solve_all_delays
from .delays import DelayVerdict, met_at_start, sweep_choices
from .engine import JointRun, RendezvousOutcome, _rendezvous
from .gathering_solver import GatheringVerdict, solve_gathering
from .multi import GatheringOutcome, _gathering
from .trace import RoundRecord, Trace

__all__ = [
    "SoloTrace",
    "MirrorTrace",
    "TraceCache",
    "solo_trace",
    "ensure_lasso",
    "traced_automaton",
    "lasso_automaton",
    "TracedAutomaton",
    "run_rendezvous_traced",
    "run_gathering_traced",
    "run_pairs_traced",
    "sweep_delays_traced",
    "sweep_gathering_traced",
]

ACTIVE = "active"
FINISHED = "finished"
CYCLED = "cycled"

#: Default cap on the rounds a sweep may spend lassoing one trace.
DEFAULT_TRACE_BUDGET = 1_000_000


def _buffer(top: int, items: Sequence[int] = ()):
    """A typed :class:`array.array` of the narrowest signed typecode that
    holds ``-1 .. top``, seeded with ``items``.  Appending a value outside
    it raises ``OverflowError``; it never wraps.  ``array`` is imported
    here, not at module load, so a process that never records a trace
    does not map the extension module."""
    from array import array

    for code in "bhiq":
        buf = array(code)
        if top < 1 << (8 * buf.itemsize - 1):
            buf.extend(items)
            return buf
    raise SimulationError(f"no array typecode holds {top}")


class SoloTrace:
    """One agent's lazily-extended solo run from one start node.

    ``actions[t-1]`` / ``positions[t]`` are the resolved action taken
    and node occupied after round ``t`` (``positions[0]`` is the start),
    held in typed :class:`array.array` buffers sized to the tree (one
    byte a round on trees under 128 nodes, against a list's 8-byte
    pointer).
    ``status`` is ``"active"`` (more rounds available on demand),
    ``"finished"`` (the program returned: null moves forever), or
    ``"cycled"`` (machine + environment state after round
    ``cycle_start + cycle_len`` provably equals the state after round
    ``cycle_start``); the latter two make every future round foldable in
    O(1) via :meth:`fold`.
    """

    # No strong reference back to the tree: the cache weak-keys entries on
    # tree objects, and a value->key reference would pin them forever.
    __slots__ = (
        "start", "agent", "actions", "positions", "status",
        "cycle_start", "cycle_len",
        "_pos", "_in_port", "_started", "_use_keys",
        "_deg", "_stride", "_move_to", "_move_in",
        "_anchor_pos", "_anchor_ip", "_anchor_regs", "_anchor_key",
        "_anchor_round", "_brent_steps", "_brent_power",
        "_registry", "_intern", "_last_dist", "_link", "_link_round",
        "source", "_mapping", "_automaton",
    )

    def __init__(
        self,
        tree: Tree,
        prototype: AgentBase,
        start: int,
        *,
        merge_registry: Optional[dict] = None,
        intern: Optional[dict] = None,
    ) -> None:
        if not (0 <= start < tree.n):
            raise SimulationError("start node outside the tree")
        self.start = start
        self.agent = prototype.clone()
        self._stride, self._deg, self._move_to, self._move_in = (
            tree.flat_move_tables()
        )
        # actions are STAY (-1) or a port below the maximum degree
        self.actions = _buffer(self._stride)
        self.positions = _buffer(tree.n - 1, (start,))
        self.status = ACTIVE
        self.cycle_start: Optional[int] = None
        self.cycle_len: Optional[int] = None
        self._pos = start
        self._in_port = NULL_PORT
        self._started = False
        self._use_keys = isinstance(self.agent, AgentProgram)
        self._anchor_pos = -1
        self._anchor_ip = -2
        self._anchor_regs: Optional[tuple] = None
        self._anchor_key = None
        self._anchor_round = 0
        self._brent_steps = 0
        # First anchor at round 128: traces that meet quickly (the vast
        # majority in grid workloads) never pay a frame freeze at all.
        self._brent_power = 128
        # Suffix merging (see extend): registry of distinguished machine
        # states shared with the sibling traces of this (prototype, tree).
        self._registry = merge_registry if self._use_keys else None
        # Frames and register triples the suffix-merge keys of this trace
        # share with its siblings' (machine_state_key's ``intern``).  Only
        # those keys use it: each one either enters the registry or equals
        # a key already there, so the table holds nothing the registry
        # does not (but the first frames of a freeze that fails, once a
        # trace: the failure ends its merging).  Brent keys are compared
        # and dropped (the anchor at the next power of two) and intern
        # into tables of their own.
        self._intern = {} if intern is None else intern
        self._last_dist = 0
        self._link: Optional[tuple] = None  # (source trace, round offset)
        self._link_round = 0
        self._automaton: Optional["TracedAutomaton"] = None

    # -- recording ----------------------------------------------------------
    @property
    def rounds_recorded(self) -> int:
        return len(self.actions)

    @property
    def complete(self) -> bool:
        """Every future round is determined (finished or cycled)."""
        return self.status != ACTIVE

    def extend(self, upto: int) -> None:
        """Record rounds until ``rounds_recorded >= upto`` or the trace
        lassos; a no-op on complete traces.

        Cycle detection is Brent's algorithm on the full (environment,
        machine) state, gated to stay off the hot path: per round only
        the two ``(position, entry port)`` integers are compared against
        the anchor; on a hit the register values are compared next, and
        the frame freeze (:func:`machine_state_key`) — the only
        expensive probe — runs solely on full proxy matches, so a false
        collision costs one freeze and never a wrong cycle.  An
        unfreezable machine state disables detection; the trace stays
        honestly "active" (it can extend, it just can never certify).

        **Suffix merging.**  Sibling traces of one (prototype, tree)
        share a registry of *distinguished* machine states — sampled by
        a phase-free rolling hash of the recent movement, so two traces
        walking the same steady-state loop sample the same states no
        matter when each entered it.  When this trace reaches a state
        another trace already recorded, their futures are identical
        (same machine state, same node, same pending observation), so
        the trace *links*: all further rounds are copied from the
        sibling instead of re-interpreting the program.  This is the
        mechanism that decides a whole tree's pair grid from a handful
        of interpreted suffixes (the Theorem 4.1 agent's steady-state
        loop depends only on (ν, ℓ, central port), not on the start).
        """
        if self._link is not None:
            self._extend_linked(upto)
            return
        if self.status != ACTIVE:
            return
        agent = self.agent
        deg, stride = self._deg, self._stride
        move_to, move_in = self._move_to, self._move_in
        add_action = self.actions.append
        add_position = self.positions.append
        is_program = isinstance(agent, AgentProgram)
        pos = self._pos
        in_port = self._in_port
        started = self._started
        step = agent.step
        regs_values = agent.registers._values if is_program else None
        use_keys = self._use_keys
        anchor_pos = self._anchor_pos
        anchor_ip = self._anchor_ip
        brent_steps = self._brent_steps
        brent_power = self._brent_power
        registry = self._registry
        intern = self._intern
        last_dist = self._last_dist
        rnd = len(self.actions)
        try:
            while rnd < upto:
                d = deg[pos]
                if started:
                    raw = step(in_port, d)
                else:
                    raw = agent.start(d)
                    started = True
                    # start() installs a fresh register bank
                    if is_program:
                        regs_values = agent.registers._values
                if raw == STAY or d == 0:
                    a = STAY
                    in_port = NULL_PORT
                else:
                    a = raw % d
                    base = pos * stride + a
                    pos = move_to[base]
                    in_port = move_in[base]
                add_action(a)
                add_position(pos)
                rnd += 1
                if is_program and agent._done:
                    # The program returned: this round's action was the
                    # final STAY; it waits at its node forever.
                    self.status = FINISHED
                    break
                if (
                    registry is not None
                    and pos == 0
                    and rnd >= 512  # short traces never pay for sampling
                    and rnd - last_dist >= 64
                ):
                    # Phase-free distinguished-state sampling: trigger on
                    # visits to node 0 (pure machine/environment state, no
                    # round index), thin with a hash of the register
                    # values, and only then pay the frame freeze.  Two
                    # traces running the same steady-state loop sample the
                    # same states regardless of when each entered it.
                    rv = (
                        tuple(regs_values.values())
                        if regs_values is not None
                        else ()
                    )
                    if (hash(rv) ^ in_port) & 7 == 0:
                        last_dist = rnd
                        try:
                            key = (
                                pos, in_port, machine_state_key(agent, intern)
                            )
                        # repro-lint: disable=RPR002 -- in-trace downgrade, not a verdict: an unfreezable machine state only disables cross-trace suffix sharing; the trace keeps interpreting and certification is unaffected
                        except LoweringError:
                            registry = self._registry = None
                        else:
                            ent = registry.get(key)
                            if ent is None:
                                registry[key] = (self, rnd)
                            elif ent[0] is self:
                                # revisited own distinguished state: cycle
                                self.status = CYCLED
                                self.cycle_start = ent[1]
                                self.cycle_len = rnd - ent[1]
                                break
                            else:
                                # identical machine state in a sibling
                                # trace: futures coincide — link to its
                                # interpreting root and copy (None: the
                                # chain leads back here; keep interpreting)
                                link = self._resolve_link(ent[0], ent[1], rnd)
                                if link is not None:
                                    self._link = link
                                    self._link_round = rnd
                                    break
                if use_keys:
                    if (
                        pos == anchor_pos
                        and in_port == anchor_ip
                        and tuple(regs_values.values()) == self._anchor_regs
                    ):
                        try:
                            key = machine_state_key(agent)
                        # repro-lint: disable=RPR002 -- in-trace downgrade, not a verdict: unfreezable state only disables Brent machine-state lassoing for this trace; no certificate is ever claimed without it
                        except LoweringError:
                            use_keys = self._use_keys = False
                            continue
                        if key == self._anchor_key:
                            self.status = CYCLED
                            self.cycle_start = self._anchor_round
                            self.cycle_len = rnd - self._anchor_round
                            break
                    brent_steps += 1
                    if brent_steps == brent_power:
                        try:
                            self._anchor_key = machine_state_key(agent)
                        # repro-lint: disable=RPR002 -- in-trace downgrade, not a verdict: unfreezable state only disables Brent machine-state lassoing for this trace; no certificate is ever claimed without it
                        except LoweringError:
                            use_keys = self._use_keys = False
                            continue
                        anchor_pos = self._anchor_pos = pos
                        anchor_ip = self._anchor_ip = in_port
                        self._anchor_regs = tuple(regs_values.values())
                        self._anchor_round = rnd
                        brent_steps = 0
                        brent_power <<= 1
        finally:
            # Keep the resumable state consistent even if the agent raises
            # (the genuine protocol error must surface like the reference
            # engine's, with the trace intact up to the failing round).
            self._pos = pos
            self._in_port = in_port
            self._started = started
            self._brent_steps = brent_steps
            self._brent_power = brent_power
            self._last_dist = last_dist
        if self._link is not None and len(self.actions) < upto:
            self._extend_linked(upto)

    def _resolve_link(self, other: "SoloTrace", ornd: int, rnd: int):
        """The (root trace, offset) this trace should link to, or ``None``.

        Follows ``other``'s own link chain to its interpreting root,
        accumulating offsets, and refuses a link whose root is this very
        trace — two sibling traces must never link to each other (the
        mutual ``extend`` recursion would never terminate).  Chains are
        flattened at link time, so they stay acyclic by induction.
        """
        root, off = other, ornd - rnd
        while root._link is not None:
            nxt, noff = root._link
            off += noff
            root = nxt
        if root is self:
            return None
        return root, off

    def _extend_linked(self, upto: int) -> None:
        """Copy rounds from the linked sibling trace (zero interpretation).

        ``self(t) == source(t + off)`` for every ``t >= _link_round``, so
        extension is slice copies over the source's raw region; the
        sibling's lasso (finish or cycle) carries over with its round
        indices shifted into this trace.  A cycle whose shifted range
        reaches past the source's recorded rounds is completed through
        the source's *fold* — the source never records past its own
        lasso, so the wrap-around region is copied element-wise.
        """
        src, off = self._link
        if src.status == ACTIVE and len(src.actions) < upto + off:
            src.extend(upto + off)
        sa, sp = src.actions, src.positions
        m = len(self.actions)
        stop = min(upto, len(sa) - off)
        if stop > m:
            self.actions.extend(sa[m + off:stop + off])
            self.positions.extend(sp[m + 1 + off:stop + 1 + off])
        if src.status == FINISHED:
            if len(self.actions) == len(sa) - off:
                self.status = FINISHED
        elif src.status == CYCLED:
            lam = src.cycle_len
            c_self = max(src.cycle_start - off, self._link_round)
            m = len(self.actions)
            while m < c_self + lam:  # wrap past the source's raw region
                idx = src.fold(m + 1 + off)
                self.actions.append(sa[idx - 1])
                self.positions.append(sp[idx])
                m += 1
            self.status = CYCLED
            self.cycle_start = c_self
            self.cycle_len = lam

    # -- folded access ------------------------------------------------------
    def fold(self, t: int) -> int:
        """Map active-round index ``t >= 0`` onto a recorded index."""
        m = len(self.actions)
        if t <= m:
            return t
        if self.status == FINISHED:
            return m
        if self.status == CYCLED:
            c, lam = self.cycle_start, self.cycle_len
            return c + ((t - c - 1) % lam) + 1
        raise SimulationError(
            "trace not extended this far; call extend() first"
        )  # pragma: no cover - callers extend before folding

    def position_after(self, t: int) -> int:
        """Node occupied after the agent's ``t``-th active round."""
        return self.positions[self.fold(t)]

    def action_at(self, t: int) -> int:
        """Resolved action of the agent's ``t``-th active round
        (``t >= 1``)."""
        m = len(self.actions)
        if t > m and self.status == FINISHED:
            return STAY
        return self.actions[self.fold(t) - 1]


class MirrorTrace(SoloTrace):
    """A solo trace derived from its automorphic image — for free.

    On a tree with a (necessarily involutive) port-preserving
    automorphism ``f``, anonymity makes the run from ``f(s)`` the
    ``f``-image of the run from ``s``: degrees and ports agree along the
    mapped trajectory, so the observation and action sequences are
    *identical* and positions map pointwise — the very argument behind
    Fact 1.1's impossibility.  Deriving the mirror costs zero
    interpreted rounds, which is exactly what the hard symmetric
    instances (near-mirror pairs on symmetric lines, the Fact 1.1
    checks) need: their two traces are built once, not twice.

    The mirror keeps its own action/position buffers (the source's
    typecodes), synced from the source on :meth:`extend`, so every
    consumer invariant (``len(positions) == len(actions) + 1``) holds at
    read time.
    """

    __slots__ = ()  # source/_mapping live in SoloTrace.__slots__

    def __init__(self, source: SoloTrace, mapping: dict) -> None:
        self.source = source
        self._mapping = mapping
        self.start = mapping[source.start]
        self.agent = None  # never interpreted: the source is
        self.actions = source.actions[:0]  # empty, the source's typecode
        self.positions = source.positions[:0]
        self.positions.append(self.start)
        self.status = ACTIVE
        self.cycle_start = None
        self.cycle_len = None
        self._automaton = None
        self._sync()

    def _sync(self) -> None:
        src = self.source
        m = len(self.actions)
        if m < len(src.actions):
            self.actions.extend(src.actions[m:])
            f = self._mapping.__getitem__
            self.positions.extend(map(f, src.positions[m + 1:]))
        self.status = src.status
        self.cycle_start = src.cycle_start
        self.cycle_len = src.cycle_len

    def extend(self, upto: int) -> None:
        src = self.source
        if src.status == ACTIVE and len(src.actions) < upto:
            src.extend(upto)
        self._sync()


class TraceCache:
    """Traces shared across runs, keyed (prototype, tree, start).

    Weak keying on both the prototype and the tree keeps trace memory
    tied to the objects' lifetimes and the cache out of pickles (the
    multiprocessing fan-out never ships it).  When the tree carries a
    port-preserving automorphism ``f`` and the trace from ``f(start)``
    is already cached, the new trace is derived as its
    :class:`MirrorTrace` instead of being interpreted again.
    """

    def __init__(self) -> None:
        import weakref

        self._by_proto: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._automorphisms: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def _automorphism(self, tree: Tree) -> Optional[dict]:
        try:
            hit = self._automorphisms.get(tree, "miss")
        except TypeError:  # pragma: no cover - tree not weak-referenceable
            return None
        if hit == "miss":
            from ..trees.automorphism import port_preserving_automorphism

            hit = port_preserving_automorphism(tree)
            self._automorphisms[tree] = hit
        return hit

    def get(self, tree: Tree, prototype: AgentBase, start: int) -> SoloTrace:
        import weakref

        from ..telemetry import current as _telemetry

        t = _telemetry()
        try:
            per_tree = self._by_proto.get(prototype)
            if per_tree is None:
                per_tree = weakref.WeakKeyDictionary()
                self._by_proto[prototype] = per_tree
        except TypeError:  # prototype not weak-referenceable
            if t.enabled:
                t.count("trace.cache.uncacheable")
            return SoloTrace(tree, prototype, start)
        entry = per_tree.get(tree)
        if entry is None:
            # (traces by start, distinguished-state registry, the intern
            # table of every machine-state key the traces make)
            entry = ({}, {}, {})
            per_tree[tree] = entry
        traces, registry, intern = entry
        trace = traces.get(start)
        if trace is None:
            f = self._automorphism(tree)
            if f is not None and f.get(start, start) != start:
                src = traces.get(f[start])
                if type(src) is SoloTrace:  # never chain mirrors
                    trace = MirrorTrace(src, f)
                    if t.enabled:
                        t.count("trace.cache.mirror")
            if trace is None:
                trace = SoloTrace(
                    tree, prototype, start,
                    merge_registry=registry, intern=intern,
                )
                if t.enabled:
                    t.count("trace.cache.miss")
            traces[start] = trace
        elif t.enabled:
            t.count("trace.cache.hit")
        return trace

    def clear(self) -> None:
        self._by_proto.clear()
        self._automorphisms.clear()


#: The process-wide default cache (benchmarks clear it for fresh timings).
GLOBAL_TRACE_CACHE = TraceCache()


def solo_trace(tree: Tree, prototype: AgentBase, start: int) -> SoloTrace:
    """The cached solo trace of ``prototype`` from ``start``."""
    return GLOBAL_TRACE_CACHE.get(tree, prototype, start)


def ensure_lasso(trace: SoloTrace, budget: int = DEFAULT_TRACE_BUDGET) -> SoloTrace:
    """Extend ``trace`` until it lassos (finished/cycled) or raise
    :class:`~repro.errors.BudgetExceededError` at ``budget`` rounds."""
    if not trace.complete:
        trace.extend(budget)
    if not trace.complete:
        raise BudgetExceededError(
            f"solo trace from start {trace.start} found no lasso within "
            f"{budget} rounds"
        )
    return trace


class TracedAutomaton(Automaton):
    """A lassoed solo trace rolled into an explicit automaton.

    State ``t`` emits the trace's round-``t+1`` action; transitions
    ignore the observation (the trace already fixed every observation
    the agent will see from its start node) and walk the chain, with the
    lasso's back edge closing the cycle.  Only valid for the (tree,
    start) the trace was recorded on — exactly the per-(tree, start)
    action table the exact solvers consume.
    """

    #: Traced transitions ignore the observation, so the automaton's
    #: behavior is fully specified by a single placeholder observation —
    #: the alphabet the minimization engine refines over.
    alphabet = ((NULL_PORT, 1),)

    def __init__(self, trace: SoloTrace) -> None:
        m = trace.rounds_recorded
        if m == 0 or not trace.complete:
            raise SimulationError("traced_automaton needs a lassoed trace")
        if trace.status == CYCLED:
            back = trace.cycle_start
        else:  # FINISHED: the last recorded action is the absorbing STAY
            back = m - 1
        nxt = [min(t + 1, m - 1) for t in range(m)]
        nxt[m - 1] = back
        self._next = nxt
        self.back = back
        self.trace_start = trace.start
        self.trace_status = trace.status
        super().__init__(
            m, lambda s, _ip, _d: self._next[s], list(trace.actions), 0
        )

    def clone(self) -> "TracedAutomaton":
        fresh = TracedAutomaton.__new__(TracedAutomaton)
        fresh._next = self._next
        fresh.back = self.back
        fresh.trace_start = self.trace_start
        fresh.trace_status = self.trace_status
        fresh.num_states = self.num_states
        fresh.output = self.output
        fresh.initial_state = self.initial_state
        fresh._fn = self._fn
        fresh._table = self._table
        fresh.state = self.initial_state
        return fresh

    def __repr__(self) -> str:
        return (
            f"TracedAutomaton(start={self.trace_start}, K={self.num_states}, "
            f"{self.trace_status})"
        )


def traced_automaton(trace: SoloTrace) -> TracedAutomaton:
    """Roll a lassoed trace into its per-(tree, start) automaton."""
    return TracedAutomaton(trace)


def lasso_automaton(
    trace: SoloTrace, budget: int = DEFAULT_TRACE_BUDGET
) -> TracedAutomaton:
    """The (cached) exported lasso automaton of a trace.

    Lassoes the trace if needed (raising
    :class:`~repro.errors.BudgetExceededError` like :func:`ensure_lasso`)
    and memoizes the rolled automaton on the trace object: the exact
    sweeps and the program-memory atlas ask for the same automaton for
    every sweep over the same (prototype, tree, start), and the roll
    should be paid once per trace, not once per consumer.  Consumers
    clone before running, so the shared instance is never mutated.
    """
    cached = trace._automaton
    if cached is not None:
        return cached
    ensure_lasso(trace, budget)
    automaton = TracedAutomaton(trace)
    trace._automaton = automaton
    return automaton


# ----------------------------------------------------------------------
# Traced joint runs (the compiled backend's path for register programs)
# ----------------------------------------------------------------------


def _fresh_agents(prototype: AgentBase, count: int) -> tuple:
    return tuple(prototype.clone() for _ in range(count))


def run_rendezvous_traced(
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
) -> RendezvousOutcome:
    """Replay the reference rendezvous semantics over solo traces: the
    k=2 run of :func:`_traced_run`.

    Verdict parity follows the compiled backend's contract (``met`` /
    ``meeting_round`` / ``meeting_node`` / ``certified_never`` identical
    to the reference engine; ``rounds_executed`` of a certified run may
    differ).  A delay-0 symmetric instance is certified before round 1
    from its :class:`~repro.sim.certificates.SymmetryCertificate`, as on
    every tier.  ``outcome.agents`` are fresh clones (see the module
    docstring).
    """
    return _rendezvous(
        tree, prototype, start1, start2, delay, delayed, max_rounds, certify,
        record_trace, None, _traced_run,
    )


def run_gathering_traced(
    tree: Tree,
    prototype: AgentBase,
    starts: Sequence[int],
    *,
    delays: Optional[Sequence[int]] = None,
    max_rounds: int = 1_000_000,
    certify: bool = False,
) -> GatheringOutcome:
    """Replay the reference gathering semantics over k solo traces."""
    return _gathering(
        tree, prototype, starts, delays, max_rounds, certify, None, _traced_run
    )


def run_pairs_traced(
    tree: Tree,
    prototype: AgentBase,
    pairs: Sequence[tuple[int, int]],
    *,
    max_rounds: int,
):
    """Decide delay-0 rendezvous for many start pairs over shared traces.

    Each pair is one certified :func:`run_rendezvous_traced` run, so a
    row equals that run's ``met`` / ``meeting_round`` /
    ``certified_never`` field for field, symmetric pairs included.  The
    grid workloads (success sweeps, exhaustive verification) re-use few
    distinct starts across many pairs: the trace cache records each
    start's solo run once and further pairs replay it.  Returns
    :class:`~repro.sim.kernel.PairVerdict` rows.
    """
    from .kernel import PairVerdict

    rows = []
    for u, v in pairs:
        out = run_rendezvous_traced(
            tree, prototype, u, v, max_rounds=max_rounds, certify=True
        )
        rows.append(PairVerdict(out.met, out.meeting_round, out.certified_never))
    return rows


def _traced_run(
    tree: Tree,
    prototype: AgentBase,
    starts,
    delays,
    plan,
    max_rounds: int,
    certify: bool,
    trace: Optional[Trace],
) -> JointRun:
    """The traced tier's k-agent loop (the :class:`JointRun` contract of
    :func:`repro.sim.engine._reference_run`; fault-free, ``plan`` is
    the empty plan) over the shared solo traces, from round 1 at the
    start nodes.

    Certification compares folded trace indices, and only in rounds
    where every agent's index lies past its trace's recorded prefix:
    that round is fixed by the traces' lassos, not by how far earlier
    runs happened to extend the shared traces, so a run certifies at
    the same round whatever the cache held before it.  An unlassoed
    trace leaves the run honestly undecided at the budget.
    """
    k = len(starts)
    traces = [solo_trace(tree, prototype, s) for s in starts]
    pos = list(starts)
    largest = max(map(pos.count, pos))
    pair = k == 2
    px, py = pos[0], pos[-1]  # the previous round's positions when k == 2
    crossings = 0
    acts = [STAY] * k  # filled only while a trace is recorded
    first_joint = max(*delays, plan.horizon) + 1
    anchor = None
    steps = 0
    power = 1

    # live buffers: extend() appends in place, so these stay current
    actions = [tr.actions for tr in traces]
    positions = [tr.positions for tr in traces]
    folded = [0] * k
    agents = range(k)
    for rnd in range(1, max_rounds + 1):
        past = 0  # agents whose index lies past their recorded prefix
        for i in agents:
            a = rnd - delays[i]  # the agent's active-round index (<= 0: asleep)
            if a >= 1:
                acts_i = actions[i]
                if a > len(acts_i):
                    tr = traces[i]
                    if tr.status == ACTIVE:
                        # 64 rounds a call: extend's setup is paid per
                        # call, and rounds recorded ahead change no verdict
                        tr.extend(a + 63)
                    if a > len(acts_i):  # lassoed short of a: fold
                        a = tr.fold(a)
                        past += 1
                folded[i] = a
                pos[i] = positions[i][a]
                if trace is not None:
                    acts[i] = acts_i[a - 1]
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
                _fresh_agents(prototype, k),
            )
        # Short of gathering, only a cluster larger than ``largest``
        # raises it, and that leaves at most k - largest distinct nodes.
        if largest < k - 1 and k - len(set(pos)) >= largest:
            largest = max(map(pos.count, pos))
        if certify and rnd > first_joint and past == k:
            config = tuple(folded)
            if config == anchor:
                return JointRun(
                    False, None, rnd, tuple(pos), largest, True, crossings,
                    _fresh_agents(prototype, k),
                )
            steps += 1
            if steps == power:
                anchor = config
                steps = 0
                power <<= 1
    return JointRun(
        False, None, max_rounds, tuple(pos), largest, False, crossings,
        _fresh_agents(prototype, k),
    )


# ----------------------------------------------------------------------
# Exact sweeps over traced tables
# ----------------------------------------------------------------------


def sweep_delays_traced(
    tree: Tree,
    prototype: AgentBase,
    start1: int,
    start2: int,
    *,
    max_delay: int,
    sides: Sequence[int] = (1, 2),
    trace_budget: int = DEFAULT_TRACE_BUDGET,
    max_configs: int = 4_000_000,
    solver=None,
) -> list[DelayVerdict]:
    """Decide a whole delay sweep for a register program, exactly.

    Both starts' solo traces are lassoed once and rolled into
    per-(tree, start) automata; the batched product-configuration solver
    then decides every (θ, delayed side) choice over those tables.
    ``solver`` substitutes a :func:`~repro.sim.compiled.solve_all_delays`
    drop-in (the backends pass the kernel auto-dispatcher here).
    Raises :class:`~repro.errors.BudgetExceededError` (no lasso within
    ``trace_budget``, or solver guard) or
    :class:`~repro.errors.LoweringError` — callers degrade to budgeted
    per-run execution.
    """
    choices = sweep_choices(max_delay, sides)  # validate before tracing
    if start1 == start2:  # met at round 0 under every adversary choice
        return met_at_start(choices)
    a1 = lasso_automaton(solo_trace(tree, prototype, start1), trace_budget)
    a2 = lasso_automaton(solo_trace(tree, prototype, start2), trace_budget)
    solve = solver if solver is not None else solve_all_delays
    return solve(
        tree, a1, start1, start2,
        max_delay=max_delay, delayed_sides=tuple(sides),
        max_configs=max_configs, prototype2=a2,
    )


def sweep_gathering_traced(
    tree: Tree,
    prototype: AgentBase,
    starts: Sequence[int],
    delay_vectors: Sequence[Sequence[int]],
    *,
    trace_budget: int = DEFAULT_TRACE_BUDGET,
    max_configs: int = 4_000_000,
    solver=None,
) -> list[GatheringVerdict]:
    """Decide a whole gathering grid for a register program, exactly
    (cf. :func:`sweep_delays_traced`; ``solver`` substitutes a
    :func:`~repro.sim.gathering_solver.solve_gathering` drop-in)."""
    starts = list(starts)
    automata = [
        lasso_automaton(solo_trace(tree, prototype, s), trace_budget)
        for s in starts
    ]
    solve = solver if solver is not None else solve_gathering
    return solve(
        tree, automata[0], starts, delay_vectors,
        max_configs=max_configs, prototypes=automata,
    )


