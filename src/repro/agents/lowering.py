"""Lowering bounded-register programs to explicit automata (route A).

The upper-bound agents of the reproduction (the Theorem 4.1 agent, the
arbitrary-delay baseline) are :class:`~repro.agents.program.AgentProgram`
generators — readable, but opaque to the compiled table-driven backend
(:mod:`repro.sim.compiled`), which wants a finite-state
:class:`~repro.agents.automaton.Automaton`.  This module closes that gap
by *state enumeration*: a deterministic program suspended at a ``yield``
is a machine state, and driving fresh clones through every observation
``(in_port, degree)`` of a degree alphabet enumerates the reachable
machine-state graph into an explicit (possibly large, but finite)
automaton.

Machine states are identified by :func:`machine_state_key`: the
generator's ``yield from`` frame chain (code object + instruction
offset), the expansion state of a basic walk in progress, plus a
structural freeze of every frame's locals — with the
register bank contributing through
:meth:`~repro.agents.program.Registers.state_key` (bounds + values;
peaks are accounting the program cannot read) and ``Ctx.rounds``
excluded for the same reason.  Anything the freezer cannot prove
hashable-and-complete raises :class:`~repro.errors.LoweringError`:
lowering *fails loudly* rather than conflating distinct states.

Known limitation (documented, guarded): CPython keeps ``for``-loop
iterators on the frame's value stack, which is not introspectable.  For
loops over ``range`` / literal tuples the iterator position is a
function of the visible loop variable, so the key is faithful; a program
iterating over a stateful iterable held *outside* its locals could
alias two distinct states.  The hypothesis parity suite
(``tests/properties/test_lowering_parity.py``) holds the lowered
automaton to reference-engine behavior, and the route-B solo tracer
(:mod:`repro.sim.traced`) never relies on key completeness for
correctness of ``met`` verdicts — keys only ever *close cycles*.

Enumeration is bounded by ``state_budget`` / ``step_budget``; exhaustion
raises :class:`~repro.errors.BudgetExceededError` so callers (the
scenario backends) fail over to route B tracing or to the reference
engine — never a crash, never a silent wrong answer.
"""

from __future__ import annotations

import weakref
from collections import deque
from collections.abc import Iterable
from typing import Optional

from ..errors import AgentProtocolError, BudgetExceededError, LoweringError
from ..trees.tree import Tree
from .automaton import Automaton
from .observations import STAY
from .program import AgentProgram, Ctx, Registers

__all__ = [
    "machine_state_key",
    "lower_to_automaton",
    "lowered_for",
    "LoweredAutomaton",
]

_FINISHED_KEY = ("finished",)
_MAX_FREEZE_DEPTH = 24
#: Types ``_freeze`` returns unchanged; a dict's keys and values of these
#: exact types skip the call (frame locals are mostly names and ints).
_SCALARS = frozenset({type(None), bool, int, float, str, bytes})


def _freeze(
    value,
    memo: dict,
    intern: dict,
    stack: tuple[int, ...] = (),
    depth: int = 0,
):
    """Canonical hashable form of one frame local.

    ``memo`` (``id -> (object, frozen form, depth)``, one per key)
    freezes each register bank, ``Ctx``, record and plain object once
    however many frames or attributes reach it; every later visit gets
    the same frozen object.  A memo entry exists only once its object
    froze completely, so a memo hit can never hide a cycle.  An entry
    is used at most as deep as the object first froze (a register bank
    or ``Ctx`` has nothing below it, so at any depth): deeper, the
    object is frozen again (the entry keeps its first frozen object),
    so the depth limit falls exactly where it would without the memo.
    ``intern`` (see :func:`machine_state_key`) shares frozen register
    banks and their ``(name, bound, value)`` triples across keys.

    Raises :class:`LoweringError` for anything whose future behavior the
    frozen form might not determine (live iterators, paused generators,
    cyclic object graphs, unknown extension types).
    """
    if depth > _MAX_FREEZE_DEPTH:
        raise LoweringError("machine state freeze exceeded the depth limit")
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    # Memo entries hold their object, so no other object can take over
    # its id while the key is built.
    hit = memo.get(id(value))
    if hit is not None and depth <= hit[2]:
        return hit[1]
    if isinstance(value, Registers):
        # bounds + values; peaks are accounting the program cannot read
        get = intern.setdefault
        frozen = ("Registers", tuple([get(t, t) for t in value.state_key()]))
        frozen = get(frozen, frozen)
        memo[id(value)] = (value, frozen, _MAX_FREEZE_DEPTH)
        return frozen
    if isinstance(value, Ctx):
        # rounds is write-only accounting (program.py increments, nothing
        # reads it); excluding it is what lets perpetual walkers cycle
        frozen = ("Ctx", value.in_port, value.degree)
        memo[id(value)] = (value, frozen, _MAX_FREEZE_DEPTH)
        return frozen
    if isinstance(value, Tree):
        # trees never mutate after construction (lazy nav caches aside),
        # so object identity is a sound and cheap key
        return ("Tree", id(value))
    if isinstance(value, range):
        return ("range", value.start, value.stop, value.step)
    names = getattr(type(value), "_fields", None)
    if names is not None:
        # a record (repro.records.TupleRecord or Record): tagged with
        # its type, so records of different types never share a key
        if id(value) in stack:
            raise LoweringError("cyclic object state cannot be frozen")
        inner = stack + (id(value),)
        fields = tuple(
            (name, _freeze(getattr(value, name), memo, intern, inner, depth + 1))
            for name in names
        )
        frozen = (type(value).__qualname__, fields) if hit is None else hit[1]
        memo[id(value)] = (value, frozen, depth)
        return frozen
    if isinstance(value, tuple):
        return tuple(_freeze(v, memo, intern, stack, depth + 1) for v in value)
    if isinstance(value, list):
        return (
            "list",
            tuple(_freeze(v, memo, intern, stack, depth + 1) for v in value),
        )
    if isinstance(value, (set, frozenset)):
        frozen = sorted(
            (_freeze(v, memo, intern, stack, depth + 1) for v in value), key=repr
        )
        return ("set", tuple(frozen))
    if isinstance(value, dict):
        # Sort by the keys' repr only: keys are small (local names, node
        # ids); sorting by the frozen values' repr would rebuild huge
        # strings from nested tuples on every freeze.
        depth += 1
        if depth > _MAX_FREEZE_DEPTH and value:
            # the entries skip the call below, but not the depth limit
            raise LoweringError("machine state freeze exceeded the depth limit")
        items = [
            (
                repr(k),
                k if type(k) in _SCALARS else _freeze(k, memo, intern, stack, depth),
                v if type(v) in _SCALARS else _freeze(v, memo, intern, stack, depth),
            )
            for k, v in value.items()
        ]
        items.sort(key=lambda kv: kv[0])
        return ("dict", tuple((k, v) for _r, k, v in items))
    if callable(value) and hasattr(value, "__qualname__"):
        frozen_self = getattr(value, "__self__", None)
        if frozen_self is not None:
            return (
                "method",
                value.__qualname__,
                _freeze(frozen_self, memo, intern, stack, depth + 1),
            )
        return ("fn", getattr(value, "__module__", ""), value.__qualname__)
    if hasattr(value, "gi_frame") or hasattr(value, "__next__"):
        raise LoweringError(
            f"cannot freeze live iterator/generator state ({type(value).__name__})"
        )
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        if id(value) in stack:
            raise LoweringError("cyclic object state cannot be frozen")
        inner = stack + (id(value),)
        frozen = tuple(
            (name, _freeze(val, memo, intern, inner, depth + 1))
            for name, val in sorted(attrs.items())
        )
        frozen = (type(value).__qualname__, frozen) if hit is None else hit[1]
        memo[id(value)] = (value, frozen, depth)
        return frozen
    raise LoweringError(
        f"cannot freeze frame local of type {type(value).__name__}"
    )


def machine_state_key(agent: AgentProgram, intern: Optional[dict] = None) -> tuple:
    """Hashable identity of a suspended program's machine state.

    The key walks the generator's ``yield from`` delegation chain,
    contributing ``(code identity, instruction offset, frozen locals)``
    per frame, plus the expansion state of a
    :class:`~repro.agents.program.Walk` in progress
    (:attr:`~repro.agents.program.AgentProgram.walk_state`).  A finished
    agent maps to the single absorbing "wait forever" state.  Raises :class:`LoweringError` when some frame
    state cannot be frozen faithfully.

    Every object the frames share (the register bank, ``Ctx``, a
    navigator) is frozen once per key, not once per frame.  ``intern``
    is a table the caller owns for the keys it keeps: equal frames,
    frozen register banks and register triples of different keys become
    one shared object (the traced tier passes one table per (prototype,
    tree), lowering one per run); without one, the key interns into a
    table of its own.  Neither changes key equality.
    """
    if not isinstance(agent, AgentProgram):
        raise LoweringError("machine states are defined for AgentProgram only")
    if agent.finished or agent.generator is None:
        return _FINISHED_KEY
    if intern is None:
        intern = {}
    frames = []
    memo: dict = {}
    gen = agent.generator
    outermost = True
    while gen is not None:
        frame = getattr(gen, "gi_frame", None)
        if frame is None:
            if hasattr(gen, "gi_code"):  # exhausted sub-generator
                frames.append(("done", gen.gi_code.co_name))
                break
            raise LoweringError(
                f"cannot key non-generator delegation target "
                f"({type(gen).__name__})"
            )
        code = frame.f_code
        locs = frame.f_locals
        if outermost:
            # The factory's first positional parameter is the start
            # degree (the AgentProgram calling convention).  It is a
            # constant within any one run, so stripping it never breaks
            # trace cycle detection; route-A lowering replays *every*
            # start degree at every expansion, so a program whose later
            # behavior genuinely branches on it still fails loudly.
            # Only the outermost frame is eligible — an argument-less
            # outer generator must not push the strip onto inner frames.
            if code.co_argcount >= 1:
                locs = {
                    k: v for k, v in locs.items() if k != code.co_varnames[0]
                }
            outermost = False
        entry = (
            code.co_filename,
            code.co_firstlineno,
            code.co_name,
            frame.f_lasti,
            _freeze(locs, memo, intern),
        )
        frames.append(intern.setdefault(entry, entry))
        gen = getattr(gen, "gi_yieldfrom", None)
    # Inside a Walk the routine stays suspended at the walk's yield while
    # AgentProgram expands it round by round; the expansion state is the
    # rest of the machine state.
    return ("suspended", tuple(frames), agent.walk_state)


class LoweredAutomaton(Automaton):
    """An explicit automaton produced by lowering a register program.

    Behaves exactly like a table :class:`Automaton` over its
    ``alphabet`` of ``(in_port, degree)`` observations, and raises
    :class:`~repro.errors.AgentProtocolError` for observations outside
    it — running a lowered agent on a tree with degrees the lowering
    never enumerated must fail loudly, not silently keep state.
    """

    def __init__(
        self,
        table: dict[tuple[int, int, int], int],
        output: Iterable[int],
        alphabet: Iterable[tuple[int, int]],
        initial_state: int = 0,
        source: str = "program",
    ) -> None:
        self.lowered_table = dict(table)
        self.alphabet = frozenset(tuple(o) for o in alphabet)
        self.source = source
        out = list(output)

        def fn(state: int, in_port: int, degree: int) -> int:
            if (in_port, degree) not in self.alphabet:
                raise AgentProtocolError(
                    f"lowered automaton ({self.source}) has no transition for "
                    f"observation ({in_port}, {degree}); re-lower with the "
                    f"right degree alphabet"
                )
            return self.lowered_table.get((state, in_port, degree), state)

        super().__init__(len(out), fn, out, initial_state)

    def clone(self) -> "LoweredAutomaton":
        fresh = LoweredAutomaton(
            self.lowered_table, self.output, self.alphabet,
            self.initial_state, self.source,
        )
        return fresh

    def __reduce__(self):
        # The transition closure is not picklable; the automaton is fully
        # determined by its constructor arguments (cf. LineAutomaton).
        return (
            LoweredAutomaton,
            (
                self.lowered_table,
                self.output,
                tuple(sorted(self.alphabet)),
                self.initial_state,
                self.source,
            ),
            {"state": self.state},
        )

    def __repr__(self) -> str:
        return (
            f"LoweredAutomaton({self.source!r}, K={self.num_states}, "
            f"bits={self.memory_bits})"
        )


def _observation_alphabet(degrees: Iterable[int]) -> list[tuple[int, int]]:
    degs = sorted({int(d) for d in degrees if int(d) >= 1})
    if not degs:
        raise LoweringError("lowering needs at least one degree >= 1")
    return [(ip, d) for d in degs for ip in range(-1, d)]


def lower_to_automaton(
    prototype: AgentProgram,
    degrees: Iterable[int],
    *,
    state_budget: int = 512,
    step_budget: int = 250_000,
) -> LoweredAutomaton:
    """Enumerate a program's reachable machine states into an automaton.

    ``degrees`` is the node-degree alphabet the automaton must cover
    (typically ``tree.degrees()``; degree 0 — the one-node tree, where
    every action resolves to a null move anyway — is ignored).  States
    are ``(machine_state_key, emitted raw action)`` pairs, so the
    automaton's ``λ`` is well-defined by construction; successors are
    found by replaying fresh clones along each state's discovery path.

    Raises
    ------
    LoweringError
        The program's machine state cannot be captured (unfreezable
        locals), or its start behavior genuinely depends on the start
        degree in a way no single automaton can express.
    BudgetExceededError
        More than ``state_budget`` states or ``step_budget`` generator
        steps were needed.  Callers fail over to route B
        (:mod:`repro.sim.traced`) or the reference engine.
    """
    if not isinstance(prototype, AgentProgram):
        raise LoweringError("route-A lowering requires an AgentProgram")
    alphabet = _observation_alphabet(degrees)
    degs = sorted({d for _ip, d in alphabet})
    steps = 0
    intern: dict = {}  # shared by every key this run keeps in ``ids``

    def spend(cost: int) -> None:
        nonlocal steps
        steps += cost
        if steps > step_budget:
            raise BudgetExceededError(
                f"lowering exceeded step_budget={step_budget}"
            )

    # ---- the start round ------------------------------------------------
    # An automaton's first action λ(s0) cannot read the start degree, and
    # its first transition cannot recover it either, so the program's
    # start behavior must be degree-uniform.  Programs that overwrite
    # their view of the degree with the first observation (every Ctx
    # program does) merge one observation later; until the machine keys
    # merge at the root, every expansion replays every start degree and
    # requires identical successors — a later branch on the start degree
    # surfaces as a LoweringError, never a silently wrong automaton.
    start_actions = []
    start_keys = []
    for d0 in degs:
        clone = prototype.clone()
        spend(1)
        start_actions.append(clone.start(d0))
        start_keys.append(machine_state_key(clone, intern))
    if len(set(start_actions)) != 1:
        raise LoweringError(
            "start action depends on the start degree; no automaton can "
            "express it (route B tracing handles such programs per tree)"
        )
    start_action = start_actions[0]
    merged_at_root = len(set(start_keys)) == 1
    root_seeds = [degs[0]] if merged_at_root else degs

    if start_keys[0] == _FINISHED_KEY and merged_at_root:
        # The program returned immediately: a single wait-forever state.
        return LoweredAutomaton({}, [STAY], alphabet, 0, _source_of(prototype))

    # ---- BFS over (machine key, emitted action) states -------------------
    # ident -> state id; id 0 is the (possibly still unmerged) root.
    ids: dict[tuple, int] = {}
    outputs: list[int] = [start_action]
    paths: list[Optional[tuple]] = [()]
    done: list[bool] = [start_keys[0] == _FINISHED_KEY]
    table: dict[tuple[int, int, int], int] = {}

    queue = deque([0])
    while queue:
        state = queue.popleft()
        if done[state]:
            continue  # wait-forever: default keep-state + STAY output
        path = paths[state]
        for ip, d in alphabet:
            ident = None
            for seed in root_seeds:
                clone = prototype.clone()
                spend(len(path) + 2)
                clone.start(seed)
                for pip, pd in path:
                    clone.step(pip, pd)
                action = clone.step(ip, d)
                successor = (machine_state_key(clone, intern), action)
                if ident is None:
                    ident = successor
                elif successor != ident:
                    raise LoweringError(
                        "start-degree branches failed to merge after one "
                        "observation; the program is not automaton-expressible"
                    )
            key, action = ident
            nxt = ids.get(ident)
            if nxt is None:
                nxt = len(outputs)
                if nxt + 1 > state_budget:
                    raise BudgetExceededError(
                        f"lowering exceeded state_budget={state_budget}"
                    )
                ids[ident] = nxt
                outputs.append(action)
                paths.append(path + ((ip, d),))
                done.append(key == _FINISHED_KEY)
                queue.append(nxt)
            table[(state, ip, d)] = nxt
    return LoweredAutomaton(
        table, outputs, alphabet, 0, _source_of(prototype)
    )


def _source_of(prototype: AgentProgram) -> str:
    return repr(prototype)


# Lowering is pure in (prototype, degree alphabet, budgets): the atlas grid
# re-lowers the same prototypes across trees (every line shares the degree
# alphabet {1, 2}), so outcomes — including refusals — are memoized.  Weak
# keying ties cache lifetime to the prototype object and keeps the cache
# out of pickles, exactly like the compiled-table cache.
_LOWERING_CACHE: "weakref.WeakKeyDictionary[AgentProgram, dict]" = (
    weakref.WeakKeyDictionary()
)


def lowered_for(
    prototype: AgentProgram,
    degrees: Iterable[int],
    *,
    state_budget: int = 512,
    step_budget: int = 250_000,
) -> LoweredAutomaton:
    """Memoized :func:`lower_to_automaton`.

    Failures are cached too: a program that refuses to lower over an
    alphabet (start-degree dependence, unfreezable state) or trips a
    budget will do so again for the same inputs, and the atlas grid must
    not pay the enumeration once per tree.  The cached exception is
    re-raised each time.
    """
    from ..telemetry import current as _telemetry

    t = _telemetry()
    alphabet = tuple(_observation_alphabet(degrees))
    key = (alphabet, state_budget, step_budget)
    try:
        per_proto = _LOWERING_CACHE.get(prototype)
    except TypeError:  # not weak-referenceable: lower uncached
        if t.enabled:
            t.count("lowering.memo.uncacheable")
        return lower_to_automaton(
            prototype, (d for _ip, d in alphabet),
            state_budget=state_budget, step_budget=step_budget,
        )
    if per_proto is None:
        per_proto = {}
        _LOWERING_CACHE[prototype] = per_proto
    hit = per_proto.get(key)
    if hit is None:
        if t.enabled:
            t.count("lowering.memo.miss")
        try:
            hit = lower_to_automaton(
                prototype, {d for _ip, d in alphabet},
                state_budget=state_budget, step_budget=step_budget,
            )
        except (LoweringError, BudgetExceededError) as exc:
            if t.enabled:
                t.count("lowering.refusal")
            per_proto[key] = exc
            raise
        per_proto[key] = hit
    elif t.enabled:
        t.count("lowering.memo.hit")
        if isinstance(hit, Exception):
            t.count("lowering.memo.cached_refusal")
    if isinstance(hit, Exception):
        raise hit
    return hit
