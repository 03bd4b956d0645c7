"""Register-program agents: bounded-memory programs driven as generators.

The upper-bound algorithm of Theorem 4.1 is far more readable as a program
with a handful of bounded counters than as an explicit transition table, so
this module provides the *register machine* view of an agent:

- an :class:`AgentProgram` wraps a generator function (a *routine*).  A
  routine yields either an int action (``STAY`` or a port) and receives
  the next observation ``(in_port, degree)``, or a :class:`Walk` — one
  whole basic walk (§2.2) as a single instruction — and receives the
  walk's final observation plus the rounds it took,
  ``(in_port, degree, rounds)``;
- a :class:`Registers` bank records every bounded counter the program
  declares, giving both the *analytic* memory cost (sum of declared bit
  widths — what the paper's O(log ℓ + log log n) statement counts) and the
  *empirical* one (bits for the largest values actually stored);
- :class:`Ctx` + :func:`move`/:func:`stay`/:func:`walk` give subroutines
  imperative syntax (``yield from move(ctx, port)``) while staying
  round-accurate.

A routine may also yield a :class:`Block` — a fixed run of instructions
(walks and int moves) whose end node, edge count and register effects
depend only on the start node and the block's key.  It receives either
the block's final observation ``(in_port, degree, rounds)``, when the
driver jumped it, or ``None``, and then runs the block's instructions
itself.

Two drivers run routines.  ``AgentProgram.start``/``step`` answer every
:class:`Block` with ``None`` and expand every :class:`Walk` round by
round, so the simulation engines, the lowering passes and the traced
tier see exactly the per-round actions and register writes of the
equivalent ``stay``/``move`` loop.  :func:`drive` runs one routine
*alone* on a tree, steps int actions through the tree's flat move
tables and jumps each walk, and each block, whole through per-call
tables — the solo replay the memory experiments measure.

When the generator returns, the agent is considered to *wait forever* (the
rendezvous algorithms end by waiting at a node).
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Generator
from typing import Any, Optional, Union

from ..errors import AgentProtocolError
from ..records import Record, TupleRecord, tuple_new
from ..telemetry import current as _telemetry
from .observations import NULL_PORT, STAY

__all__ = [
    "Registers",
    "Ctx",
    "Walk",
    "Block",
    "move",
    "stay",
    "walk",
    "AgentProgram",
    "ProgramFactory",
    "Drive",
    "drive",
]


class Walk(Record, frozen=True):
    """One basic-walk instruction: ``bw``/``cbw`` until ``arrivals``
    arrivals at nodes of degree != 2, at speed ``1/speed``.

    Executed round by round it is: idle ``speed-1`` rounds before every
    move; leave the current node by ``port`` (mod its degree); at each
    node reached, continue by ``(in_port + delta) % degree``.  Every
    arrival at a node of degree != 2 counts — and sets
    ``registers[counter]`` to the count so far when ``counter`` is
    given — and the walk stops at the ``arrivals``-th.  ``delta`` is
    ``+1`` (basic walk) or ``-1`` (counter basic walk); either way a
    degree-2 node is passed straight through, which is what lets
    :func:`drive` share one hop table across both directions.
    """

    __slots__ = ("port", "delta", "arrivals", "speed", "counter")

    def __init__(
        self,
        port: int,
        delta: int,
        arrivals: int,
        speed: int = 1,
        counter: Optional[str] = None,
    ) -> None:
        if delta not in (1, -1):
            raise AgentProtocolError(f"walk delta must be +1 or -1, got {delta}")
        if arrivals < 1 or speed < 1:
            raise AgentProtocolError(
                f"walk needs arrivals >= 1 and speed >= 1, got {arrivals} "
                f"and {speed}"
            )
        set_ = object.__setattr__
        set_(self, "port", port)
        set_(self, "delta", delta)
        set_(self, "arrivals", arrivals)
        set_(self, "speed", speed)
        set_(self, "counter", counter)


class Block:
    """A fixed run of instructions, jumped whole by :func:`drive`.

    ``routine(ctx, registers, speed)`` restarts the routine that yields
    the block: it yields this block first and, answered ``None``, runs
    the block's instructions — walks, int moves or both — and returns.
    They all run at speed ``1/speed`` (a block of int moves has speed
    1), and their end node, edge count and register writes depend only
    on the start node and ``key`` — so ``drive`` can run them once at
    speed 1 and replay them at every speed.  The routine declares every
    register it writes.  One kind exists: a traversal of the rendezvous
    path P (walks, keyed ``("P", ...)``).  A single closed walk needs no
    block: ``drive``'s walk memo already jumps it (Synchro's inserted
    Explo-bis is one).
    """

    __slots__ = ("key", "routine", "speed")

    def __init__(self, key: Any, routine: Callable[..., Any], speed: int = 1) -> None:
        self.key = key
        self.routine = routine
        self.speed = speed


# A routine yields int actions and receives observations (in_port, degree),
# yields a Walk and receives (in_port, degree, rounds) once it is done, or
# yields a Block and receives the same triple or None (run it yourself).
Routine = Generator[Union[int, Walk, Block], Optional[tuple], Any]


class Registers:
    """A bank of named bounded counters with bit accounting.

    ``declare(name, bound)`` registers a counter taking values in
    ``0 .. bound`` (inclusive) and costs ``bound.bit_length()`` bits
    (at least 1), i.e. ``ceil(log2(bound+1))`` computed exactly.
    Assignments through ``__setitem__`` are range-checked, so a program that
    exceeds its declared memory fails loudly instead of silently cheating
    the memory model.
    """

    def __init__(self) -> None:
        self._bounds: dict[str, int] = {}
        self._values: dict[str, int] = {}
        self._peaks: dict[str, int] = {}

    def declare(self, name: str, bound: int, initial: int = 0) -> None:
        if bound < 0:
            raise AgentProtocolError(f"register {name!r}: bound must be >= 0")
        if name in self._bounds:
            # Re-declaration widens the register (used by doubling schemes).
            self._bounds[name] = max(self._bounds[name], bound)
        else:
            self._bounds[name] = bound
            self._peaks[name] = 0
        self[name] = initial

    def __setitem__(self, name: str, value: int) -> None:
        bound = self._bounds.get(name)
        if bound is None:
            raise AgentProtocolError(f"register {name!r} was never declared")
        if not (0 <= value <= bound):
            raise AgentProtocolError(
                f"register {name!r} = {value} exceeds declared bound {bound}"
            )
        self._values[name] = value
        if value > self._peaks[name]:
            self._peaks[name] = value

    def __getitem__(self, name: str) -> int:
        return self._values[name]

    # -- lowering support ---------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, int]]:
        """A restorable copy of the full bank: bounds, values *and* peaks.

        ``restore`` puts all three back, so peak accounting rewinds with
        the values.  This is the bank-capture API for exploratory
        tooling (notebooks, instrumented drivers that try a branch and
        back out); the lowering passes themselves identify machine
        states through :meth:`state_key` and re-derive successors by
        replaying fresh clones — a generator cannot be forked, so a
        register snapshot alone can never restore a machine state.
        """
        return {
            "bounds": dict(self._bounds),
            "values": dict(self._values),
            "peaks": dict(self._peaks),
        }

    def restore(self, snapshot: dict[str, dict[str, int]]) -> None:
        """Restore a bank previously captured by :meth:`snapshot`."""
        self._bounds = dict(snapshot["bounds"])
        self._values = dict(snapshot["values"])
        self._peaks = dict(snapshot["peaks"])

    def release(self, name: str) -> None:
        """Forget a register's *value* while keeping its memory account.

        The paper's agents reuse their bounded memory between stages; a
        program that is done with a counter releases it so that two
        machine states differing only in dead stage-local values compare
        equal (:meth:`state_key`) — which is what lets the lowering
        subsystem share trace suffixes across start nodes.  The declared
        bound and the recorded peak stay: releasing never shrinks the
        analytic or empirical memory account.
        """
        if name not in self._bounds:
            raise AgentProtocolError(f"register {name!r} was never declared")
        self._values.pop(name, None)

    def state_key(self) -> tuple:
        """Hashable key of the *generator-visible* bank state.

        Covers every declared register's current bound (re-declaration
        widening changes which assignments are legal, so bounds are
        behavior) and current value (``None`` once released).  Peaks are
        excluded: they are accounting the program can never read, so two
        machine states that differ only in peaks behave identically
        forever.
        """
        return tuple(
            (name, self._bounds[name], self._values.get(name))
            for name in sorted(self._bounds)
        )

    def bits_declared(self) -> int:
        """Analytic memory: sum of declared register widths, in bits."""
        return sum(max(1, b.bit_length()) for b in self._bounds.values())

    def bits_used(self) -> int:
        """Empirical memory: widths needed for the peak values stored."""
        return sum(max(1, p.bit_length()) for p in self._peaks.values())

    def effects(self) -> tuple:
        """Every register as ``(name, bound, peak, value)``; ``value`` is
        ``None`` once released.  Run on a block's scratch bank, these are
        the block's register effects (:meth:`apply`)."""
        return tuple(
            (name, bound, self._peaks[name], self._values.get(name))
            for name, bound in self._bounds.items()
        )

    def apply(self, effects: tuple) -> None:
        """Fold :meth:`effects` into this bank as if the block had run
        here: bounds widen, peaks rise, final values are set."""
        bounds, peaks, values = self._bounds, self._peaks, self._values
        for name, bound, peak, value in effects:
            if bound > bounds.get(name, -1):
                bounds[name] = bound
            if peak > peaks.get(name, -1):
                peaks[name] = peak
            if value is None:
                values.pop(name, None)
            else:
                values[name] = value

    def report(self) -> dict[str, tuple[int, int]]:
        """Per-register ``(declared bound, peak value)``."""
        return {k: (self._bounds[k], self._peaks[k]) for k in sorted(self._bounds)}


class Ctx(Record):
    """The walker's current observation, shared across subroutines."""

    __slots__ = ("in_port", "degree", "rounds")

    def __init__(self, in_port: int, degree: int, rounds: int = 0) -> None:
        self.in_port = in_port
        self.degree = degree
        self.rounds = rounds


def move(ctx: Ctx, port: int) -> Routine:
    """Take one step through ``port`` (mod degree); update ``ctx``."""
    obs = yield port
    ctx.in_port, ctx.degree = obs
    ctx.rounds += 1


def stay(ctx: Ctx, rounds: int = 1) -> Routine:
    """Make ``rounds`` null moves."""
    for _ in range(rounds):
        obs = yield STAY
        ctx.in_port, ctx.degree = obs
        ctx.rounds += 1


def walk(
    ctx: Ctx,
    port: int,
    delta: int = 1,
    arrivals: int = 1,
    speed: int = 1,
    counter: Optional[str] = None,
) -> Routine:
    """Run one :class:`Walk`; update ``ctx`` to its final observation.

    ``arrivals == 0`` is the empty walk: no round passes.
    """
    if arrivals == 0:
        return
    ctx.in_port, ctx.degree, rounds = yield Walk(port, delta, arrivals, speed, counter)
    ctx.rounds += rounds


ProgramFactory = Callable[..., Routine]


class AgentProgram:
    """Adapter: a generator program behind the :class:`AgentBase` protocol.

    A :class:`Block` the routine yields is answered ``None`` at once, so
    the routine runs its walks.  A :class:`Walk` is expanded here, one
    round per ``step``: the expansion state (the walk, the port of the
    pending move, arrivals done, idle rounds left, whether the last round
    moved) lives on the adapter, and the routine resumes only on the
    walk's final observation.

    Parameters
    ----------
    factory:
        Called as ``factory(start_degree, registers, *args, **kwargs)``;
        must return a routine generator.
    """

    def __init__(self, factory: ProgramFactory, *args: Any, **kwargs: Any) -> None:
        self._factory = factory
        self._args = args
        self._kwargs = kwargs
        self._gen: Optional[Routine] = None
        self._done = False
        self._walk: Optional[Walk] = None
        self.registers = Registers()

    # -- AgentBase protocol -------------------------------------------------
    def start(self, degree: int) -> int:
        self._gen = self.routine(degree)
        self._done = False
        self._walk = None
        return self._resume(None)  # send(None) starts a fresh generator

    def step(self, in_port: int, degree: int) -> int:
        if self._walk is not None:
            return self._walk_step(in_port, degree)
        if self._done or self._gen is None:
            return STAY
        return self._resume((in_port, degree))

    def clone(self) -> "AgentProgram":
        return AgentProgram(self._factory, *self._args, **self._kwargs)

    def routine(self, degree: int) -> Routine:
        """A fresh, unstarted routine over a fresh register bank.

        ``start`` drives it round by round; :func:`drive` runs it solo.
        """
        self.registers = Registers()
        return self._factory(degree, self.registers, *self._args, **self._kwargs)

    # -- walk expansion -----------------------------------------------------
    def _resume(self, obs: Optional[tuple]) -> int:
        try:
            action = self._gen.send(obs)  # type: ignore[union-attr]
            while action.__class__ is Block:
                action = self._gen.send(None)  # type: ignore[union-attr]
        except StopIteration:
            self._done = True
            return STAY
        if action.__class__ is Walk:
            return self._begin(action)
        return action

    def _begin(self, w: Walk) -> int:
        self._walk = w
        self._port = w.port
        self._seen = 0
        self._idle = w.speed - 1
        self._walk_rounds = 0
        return self._walk_action()

    def _walk_step(self, in_port: int, degree: int) -> int:
        w = self._walk
        self._walk_rounds += 1
        if self._moved:
            if degree != 2:
                self._seen += 1
                if w.counter is not None:
                    self.registers[w.counter] = self._seen
                if self._seen == w.arrivals:
                    self._walk = None
                    return self._resume((in_port, degree, self._walk_rounds))
            self._port = (in_port + w.delta) % degree
            self._idle = w.speed - 1
        return self._walk_action()

    def _walk_action(self) -> int:
        """Idle while idle rounds are left, else make the pending move."""
        if self._idle:
            self._idle -= 1
            self._moved = False
            return STAY
        self._moved = True
        return self._port

    @property
    def walk_state(self) -> Optional[tuple]:
        """Hashable expansion state of the walk in progress (``None``
        between instructions): the walk, the port of the pending move,
        arrivals done, idle rounds left and whether the last round moved.
        The rounds spent so far are excluded — accounting the program
        never reads, like ``Ctx.rounds``."""
        if self._walk is None:
            return None
        return (self._walk, self._port, self._seen, self._idle, self._moved)

    # -- introspection ------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once the program returned (the agent waits forever)."""
        return self._done

    @property
    def generator(self) -> Optional[Routine]:
        """The live routine generator (``None`` before :meth:`start`).

        Exposed for the lowering subsystem
        (:mod:`repro.agents.lowering`), which freezes the generator's
        frame chain into machine-state keys; ordinary simulation code
        should drive the agent through ``start``/``step`` only.
        """
        return self._gen

    def memory_bits_declared(self) -> int:
        return self.registers.bits_declared()

    def memory_bits_used(self) -> int:
        return self.registers.bits_used()

    def __repr__(self) -> str:
        name = getattr(self._factory, "__name__", "program")
        return f"AgentProgram({name})"


class Drive(TupleRecord):
    """Outcome of :func:`drive`: the routine's return value (``None``
    unless it finished), the rounds driven, the final node, and whether
    the routine returned within the round budget."""

    __slots__ = ()

    def __new__(cls, value: Any, rounds: int, node: int, finished: bool):
        return tuple_new(cls, (value, rounds, node, finished))


_DRIVE_COUNTERS = (
    "drive.walk.jump",
    "drive.walk.edges",
    "drive.block.jump",
    "drive.block.build",
    "drive.block.expand",
)


def _walk_edges(tree, u: int, port: int, delta: int, arrivals: int):
    """Yield ``(node, in_port, arrivals so far)`` after each edge of the
    walk leaving ``u`` by ``port``."""
    stride, deg, move_to, move_in = tree.flat_move_tables()
    seen = 0
    while True:
        i = u * stride + port
        u, in_port = move_to[i], move_in[i]
        d = deg[u]
        if d != 2:
            seen += 1
        yield u, in_port, seen
        if seen == arrivals:
            return
        port = (in_port + delta) % d


def _hop(tree, u: int, port: int) -> tuple[int, int, int]:
    """``(v, in_port, edges)``: leave ``u`` by ``port`` and cross the
    degree-2 chain to the next node ``v`` of degree != 2."""
    edges = 0
    for v, in_port, _seen in _walk_edges(tree, u, port, 1, 1):
        edges += 1
    return v, in_port, edges


def _walk_end(tree, hops: dict, u: int, port: int, delta: int, arrivals: int):
    """``(v, in_port, edges)`` at the end of a walk: one hop per arrival,
    each looked up in (or added to) ``hops``."""
    deg = tree.degree_table
    edges = 0
    for _ in range(arrivals):
        if (u, port) not in hops:
            hops[(u, port)] = _hop(tree, u, port)
        u, in_port, hop_edges = hops[(u, port)]
        edges += hop_edges
        port = (in_port + delta) % deg[u]
    return u, in_port, edges


def drive(
    tree,
    start: int,
    routine: Routine,
    registers: Registers,
    *,
    max_rounds: Optional[int] = None,
    trail: Optional[list] = None,
) -> Drive:
    """Run ``routine`` alone on ``tree`` from ``start``.

    ``registers`` is the bank the routine writes (walk counters are set
    on it).  ``max_rounds`` caps the rounds; a routine that has not
    returned by then is cut (``finished`` False).  Every round's node is
    appended to ``trail`` when one is given.

    Int actions are interpreted one round each, through the tree's flat
    move tables (:meth:`~repro.trees.tree.Tree.flat_move_tables`) and
    its degree table; each still passes ``resolve_action`` once.  A
    :class:`Walk` is resolved whole through two tables built on the fly
    for this call: a hop table ``(u, port) -> (v, in_port, edges)``
    across degree-2 chains, and a walk memo ``(u, port, delta,
    arrivals) -> (v, in_port, edges)`` — O(arrivals) the first time,
    O(1) on every repeat (Synchro's inserted Explo-bis, one closed walk
    per branching arrival, is resolved once per node).  The walk is
    charged ``edges * speed`` rounds and sets its counter once, to
    ``arrivals``: within a walk the counter only increases, so its peak
    and the range check match per-arrival writes.  A walk the budget
    ends inside (or a walk whose nodes ``trail`` records) is followed
    edge by edge instead, which is exact because no register changes
    between arrivals.

    A :class:`Block` is resolved through a block memo ``(u, key) -> (v,
    in_port, edges, effects)``.  As in the walk memo the speed is left
    out of the key: on a miss a nested ``drive`` runs the block's
    instructions once, at speed 1, on a scratch register bank (sharing
    this call's hop table and walk memo, which hold for any speed on the
    same tree; the block memo stays its own), and every
    hit charges ``edges * speed`` rounds, folds the scratch bank's
    effects into ``registers`` (:meth:`Registers.apply`: bounds widen,
    peaks rise, final values are set) and sends ``(in_port, degree,
    rounds)``.  So a block the routine repeats from one node (a traversal
    of P from the same extremity of C, at every prime speed) runs once
    per call and node.  A block the budget would end inside or finds
    spent, and every block while ``trail`` is recorded, is answered
    ``None``, and the routine runs the block itself — exactly what
    ``AgentProgram.step`` does with every block.

    With telemetry on, the call reports its ``drive.*`` counters once:
    walks jumped (``walk.jump``) and followed edge by edge
    (``walk.edges``), blocks jumped (``block.jump``), built on a memo
    miss (``block.build``) and answered ``None`` (``block.expand``).  A
    nested build reports its own walks.
    """
    return _drive(tree, start, routine, registers, max_rounds, trail, {}, {})


def _drive(
    tree,
    start: int,
    routine: Routine,
    registers: Registers,
    max_rounds: Optional[int],
    trail: Optional[list],
    hops: dict,  # (u, port) -> (v, in_port, edges)
    walks: dict,  # (u, port, delta, arrivals) -> (v, in_port, edges)
) -> Drive:
    """:func:`drive` over a hop table and walk memo the caller owns
    (a block build passes the enclosing call's)."""
    # Bound per call, not at import: profilers count the interpreted
    # rounds by rebinding ``observations.resolve_action``.
    from .observations import resolve_action

    stride, deg, move_to, move_in = tree.flat_move_tables()
    budget = sys.maxsize if max_rounds is None else max_rounds
    blocks: dict = {}  # (u, block key) -> (v, in_port, edges, effects)
    walk_jump = walk_edges = block_jump = block_build = block_expand = 0
    pos = start
    rounds = 0
    try:
        action = next(routine)
        while rounds < budget:
            if action.__class__ is Block:
                if trail is None:
                    key = (pos, action.key)
                    if key not in blocks:
                        scratch = Registers()
                        ctx = Ctx(NULL_PORT, deg[pos])
                        # Restart the routine past its own block: the nested
                        # drive's first step answers that block None.
                        expansion = action.routine(ctx, scratch, 1)
                        next(expansion)
                        run = _drive(
                            tree, pos, expansion, scratch, None, None, hops, walks
                        )
                        if not run.rounds:
                            raise AgentProtocolError(f"block {action.key!r} moved no edge")
                        blocks[key] = (run.node, ctx.in_port, run.rounds, scratch.effects())
                        block_build += 1
                    v, ip, edges, effects = blocks[key]
                    cost = edges * action.speed
                    if rounds + cost <= budget:
                        registers.apply(effects)
                        pos = v
                        rounds += cost
                        block_jump += 1
                        action = routine.send((ip, deg[v], cost))
                        continue
                block_expand += 1
                action = routine.send(None)
                continue
            if action.__class__ is not Walk:
                d = deg[pos]
                a = resolve_action(action, d)
                if a == STAY:
                    obs: tuple = (NULL_PORT, d)
                else:
                    i = pos * stride + a
                    pos = move_to[i]
                    obs = (move_in[i], deg[pos])
                rounds += 1
                if trail is not None:
                    trail.append(pos)
                action = routine.send(obs)
                continue
            w = action
            port = w.port % deg[pos]
            speed = w.speed
            if trail is None:
                key = (pos, port, w.delta, w.arrivals)
                if key not in walks:
                    walks[key] = _walk_end(tree, hops, *key)
                v, ip, edges = walks[key]
                cost = edges * speed
                if rounds + cost <= budget:
                    if w.counter is not None:
                        registers[w.counter] = w.arrivals
                    pos = v
                    rounds += cost
                    walk_jump += 1
                    action = routine.send((ip, deg[v], cost))
                    continue
            # Edge by edge: record the trail, or stop where the budget ends.
            walk_edges += 1
            begun = rounds
            seen = 0
            for v, ip, arrived in _walk_edges(tree, pos, port, w.delta, w.arrivals):
                if rounds + speed > budget:
                    break
                if trail is not None:
                    trail.extend([pos] * (speed - 1))
                    trail.append(v)
                pos = v
                rounds += speed
                seen = arrived
            if seen and w.counter is not None:
                registers[w.counter] = seen
            if seen < w.arrivals:  # cut: idle out the budget's last rounds
                if trail is not None:
                    trail.extend([pos] * (budget - rounds))
                rounds = budget
                break
            action = routine.send((ip, deg[pos], rounds - begun))
        # Out of rounds: answer a pending block None, as ``step`` does, so
        # the register writes the block makes before its first walk
        # happen here too.
        while action.__class__ is Block:
            block_expand += 1
            action = routine.send(None)
    except StopIteration as stop:
        value, finished = stop.value, True
    else:
        value, finished = None, False
    t = _telemetry()
    if t.enabled:
        tally = (walk_jump, walk_edges, block_jump, block_build, block_expand)
        for name, n in zip(_DRIVE_COUNTERS, tally):
            if n:
                t.count(name, n)
    return Drive(value, rounds, pos, finished)
