"""Property tests: the walk and block instructions ≡ the loops they replace.

A :class:`~repro.agents.program.Walk` has two executors: the round-by-round
expansion inside ``AgentProgram.start``/``step`` (what every engine, the
lowering passes and the traced tier see) and the solo driver
:func:`~repro.agents.program.drive`, which jumps whole walks through
per-tree tables.  Both are held to the inline ``stay``/``move`` loop the
navigators used before walks existed — kept here as the oracle.

A :class:`~repro.agents.program.Block` (one traversal of the rendezvous
path P) is expanded by ``step`` and jumped whole by ``drive``; the
round-by-round drive is the oracle for the jump.  So it is for the closed
walk that stands for each Explo-bis Synchro inserts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.agents import (
    NULL_PORT,
    AgentProgram,
    Block,
    Ctx,
    Walk,
    drive,
    machine_state_key,
    move,
    resolve_action,
    stay,
    walk,
)
from repro.core import rendezvous_agent
from repro.core.memory import memory_report
from repro.core.prime_walk import prime_line_agent
from repro.core.rendezvous_path import rendezvous_path_num_edges
from repro.errors import AgentProtocolError, LoweringError
from repro.sim import run_solo
from repro.trees import (
    complete_binary_tree,
    contract,
    double_broom,
    line,
    random_relabel,
    random_tree,
    subdivide,
)


def inline_walk(ctx, regs, port, delta, arrivals, speed, counter):
    """The oracle: a basic walk as an explicit stay/move loop."""
    seen = 0
    while seen < arrivals:
        yield from stay(ctx, speed - 1)
        yield from move(ctx, port)
        if ctx.degree != 2:
            seen += 1
            if counter is not None:
                regs[counter] = seen
        port = (ctx.in_port + delta) % ctx.degree


@st.composite
def trees(draw, max_n=9, max_sub=3):
    """A random relabeled tree, subdivided so degree-2 chains occur."""
    rng = random.Random(draw(st.integers(0, 2**20)))
    tree = random_tree(draw(st.integers(2, max_n)), rng)
    return random_relabel(subdivide(tree, draw(st.integers(0, max_sub))), rng)


walk_specs = st.lists(
    st.tuples(
        st.integers(0, 3),  # first port (mod the degree)
        st.sampled_from([1, -1]),  # bw / cbw
        st.integers(0, 4),  # arrivals (0: the empty walk)
        st.integers(1, 3),  # speed
        st.sampled_from([None, "arr"]),  # counter
    ),
    min_size=1,
    max_size=4,
)


def walk_program(specs, expand, ctxs):
    """A program running ``specs`` as Walk instructions (``expand`` False)
    or as the inline oracle loop; records ``Ctx`` after every walk."""

    def program(start_degree, regs):
        ctx = Ctx(NULL_PORT, start_degree)
        regs.declare("arr", 4)
        for port, delta, arrivals, speed, counter in specs:
            if expand:
                yield from inline_walk(ctx, regs, port, delta, arrivals, speed, counter)
            else:
                yield from walk(ctx, port, delta, arrivals, speed, counter)
            ctxs.append((ctx.in_port, ctx.degree, ctx.rounds))
        yield from stay(ctx, 1)

    return AgentProgram(program)


def step_rounds(tree, start, agent, budget):
    """Round-by-round drive through start/step: (raw actions, positions,
    final node, rounds used) — the loop measure_memory used to run."""
    pos = start
    raw = agent.start(tree.degree(pos))
    actions, positions, used = [raw], [pos], 0
    for _ in range(budget):
        if agent.finished:
            break
        a = resolve_action(raw, tree.degree(pos))
        if a == -1:
            obs = (NULL_PORT, tree.degree(pos))
        else:
            pos, in_port = tree.move(pos, a)
            obs = (in_port, tree.degree(pos))
        raw = agent.step(*obs)
        used += 1
        actions.append(raw)
        positions.append(pos)
    return actions, positions, pos, used


@settings(max_examples=80, deadline=None)
@given(trees(), st.data(), walk_specs)
def test_expanded_walk_matches_inline_loop(tree, data, specs):
    start = data.draw(st.integers(0, tree.n - 1))
    ctx_walk, ctx_loop = [], []
    budget = 400
    by_walk = step_rounds(tree, start, walk_program(specs, False, ctx_walk), budget)
    by_loop = step_rounds(tree, start, walk_program(specs, True, ctx_loop), budget)
    assert by_walk == by_loop
    assert ctx_walk == ctx_loop
    solo_walk = run_solo(tree, start, walk_program(specs, False, []), budget)
    solo_loop = run_solo(tree, start, walk_program(specs, True, []), budget)
    assert solo_walk.positions == solo_loop.positions
    assert solo_walk.register_events == solo_loop.register_events
    assert solo_walk.finished == solo_loop.finished


def assert_drive_matches_steps(tree, start, prototype, budget):
    """drive()'s registers (bounds, values, peaks), final node and rounds
    equal a round-by-round drive's."""
    stepped = prototype.clone()
    _, _, node, used = step_rounds(tree, start, stepped, budget)
    jumped = prototype.clone()
    run = drive(tree, start, jumped.routine(tree.degree(start)),
                jumped.registers, max_rounds=budget)
    assert memory_report(jumped) == memory_report(stepped)
    assert jumped.registers.snapshot() == stepped.registers.snapshot()
    assert (run.node, run.rounds, run.finished) == (node, used, stepped.finished)


@settings(max_examples=40, deadline=None)
@given(trees(max_n=7, max_sub=2), st.data())
def test_drive_matches_steps_thm41(tree, data):
    start = data.draw(st.integers(0, tree.n - 1))
    budget = data.draw(st.integers(0, 20_000))
    assert_drive_matches_steps(tree, start, rendezvous_agent(max_outer=1), budget)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.data())
def test_drive_matches_steps_prime_line(m, data):
    start = data.draw(st.integers(0, m - 1))
    budget = data.draw(st.integers(0, 3_000))
    assert_drive_matches_steps(line(m), start, prime_line_agent(3), budget)


@pytest.mark.parametrize(
    "tree, prototype",
    [
        (subdivide(complete_binary_tree(2), 3), rendezvous_agent(max_outer=1)),
        (line(9), prime_line_agent(3)),
    ],
    ids=["thm41", "prime-line"],
)
def test_drive_cuts_mid_chain_and_mid_walk(tree, prototype):
    """Budgets that end inside a degree-2 chain of a walk, and at a branching
    node inside a walk, cut exactly."""
    agent = prototype.clone()
    pos = 0
    raw = agent.start(tree.degree(pos))
    mid_chain, mid_walk = [], []
    for rnd in range(1, 30_000):
        if agent.finished:
            break
        a = resolve_action(raw, tree.degree(pos))
        if a == -1:
            obs = (NULL_PORT, tree.degree(pos))
        else:
            pos, in_port = tree.move(pos, a)
            obs = (in_port, tree.degree(pos))
        raw = agent.step(*obs)
        if agent.walk_state is not None:
            (mid_chain if tree.degree(pos) == 2 else mid_walk).append(rnd)
    assert mid_chain and mid_walk
    rng = random.Random(5)
    for budget in rng.sample(mid_chain, 8) + rng.sample(mid_walk, 8):
        assert_drive_matches_steps(tree, 0, prototype, budget)


def test_machine_state_key_sees_the_walk_expansion():
    """Mid-walk rounds share one suspended frame chain; only the
    expansion state tells them apart: two idle rounds, then the move
    still waiting for its arrival observation."""

    def program(start_degree, regs):
        ctx = Ctx(NULL_PORT, start_degree)
        yield from walk(ctx, 0, +1, 2, speed=3)

    agent = AgentProgram(program)
    actions = [agent.start(2)]
    keys = [machine_state_key(agent)]
    for _ in range(2):
        actions.append(agent.step(NULL_PORT, 2))
        keys.append(machine_state_key(agent))
    assert actions == [-1, -1, 0]
    assert agent.walk_state is not None
    assert len({key[1] for key in keys}) == 1  # the generator never resumed
    assert len(set(keys)) == 3


# -- blocks ------------------------------------------------------------------


def spy(routine, spans):
    """Pass ``routine``'s instructions through, appending ``(instruction,
    first round, end round)`` for each walk or block answered whole."""
    rounds = 0
    reply = None
    try:
        while True:
            action = routine.send(reply)
            reply = yield action
            if action.__class__ is int:
                rounds += 1
            elif reply is not None:
                spans.append((action, rounds, rounds + reply[2]))
                rounds += reply[2]
    except StopIteration as stop:
        return stop.value


def drive_spans(tree, start, prototype, trail=None):
    """Spans of an unbounded solo drive; with a ``trail`` every block is
    expanded, so the spans are the walks instead."""
    agent = prototype.clone()
    spans = []
    drive(tree, start, spy(agent.routine(tree.degree(start)), spans),
          agent.registers, trail=trail)
    return spans


SYMMETRIC = [double_broom(3, 2, 2), double_broom(5, 3, 3), line(6)]


def is_path_block(instruction):
    """A traversal of the rendezvous path P (keyed ``("P", ...)``)."""
    return instruction.__class__ is Block and instruction.key[0] == "P"


@pytest.mark.parametrize("tree", SYMMETRIC, ids=["broom-3-2", "broom-5-3", "line-6"])
def test_drive_matches_steps_around_blocks(tree):
    """Budgets that end just before a block, between two of its walks,
    inside one of its walks and exactly at its end cut like ``step``."""
    prototype = rendezvous_agent(max_outer=1)
    blocks = [(b, e) for i, b, e in drive_spans(tree, 0, prototype) if is_path_block(i)]
    walks = [(b, e) for i, b, e in drive_spans(tree, 0, prototype, trail=[])]
    assert len(blocks) >= 2
    for begin, end in blocks[:2]:  # one from each extremity of C
        inside = [(b, e) for b, e in walks if begin <= b and e <= end]
        assert inside[0][0] == begin and inside[-1][1] == end
        between = [e for _, e in inside[:-1]]
        budgets = {begin - 1, begin, end - 1, end, end + 1}
        budgets.update(between[:2] + between[-2:])
        budgets.update(b + 1 for b, _ in inside[:3] + inside[-3:])
        budgets.update(b + 3 for b, _ in inside[1:4])
        for budget in sorted(budgets):
            assert_drive_matches_steps(tree, 0, prototype, budget)


def block_runs(tree, start, prototype, kind):
    """``(begin, end, first node, last node)`` of every block or walk
    ``kind`` selects in an unbounded drive; the nodes are read off the
    trail of the same run expanded round by round."""
    trail = [start]  # trail[r]: the node after r rounds
    drive_spans(tree, start, prototype, trail=trail)
    return [
        (b, e, trail[b], trail[e])
        for i, b, e in drive_spans(tree, start, prototype) if kind(i)
    ]


def test_block_memo_hits_from_both_extremities_at_every_prime():
    """One drive builds P once per extremity and jumps it at speeds 2
    and 3 from both; the whole run still equals the round-by-round one."""
    tree = double_broom(3, 2, 2)
    prototype = rendezvous_agent(max_outer=2)
    tel = telemetry.Telemetry()
    with telemetry.use(tel):
        spans = drive_spans(tree, 0, prototype)
    speeds = [i.speed for i, _, _ in spans if is_path_block(i)]
    paths = [u for _, _, u, _ in block_runs(tree, 0, prototype, is_path_block)]
    assert len(set(paths)) == 2
    assert tel.counters["drive.block.build"] == 2
    assert tel.counters["drive.block.jump"] == len(speeds)
    assert set(speeds) == {2, 3}
    agent = prototype.clone()
    run = drive(tree, 0, agent.routine(tree.degree(0)), agent.registers)
    assert run.finished
    assert_drive_matches_steps(tree, 0, prototype, run.rounds)


@pytest.mark.parametrize("tree, chain", [
    (double_broom(3, 2, 2), 3), (double_broom(5, 3, 3), 5), (line(6), 5),
])
def test_jumped_block_edges_match_path_formula(tree, chain):
    edges = rendezvous_path_num_edges(tree.n, contract(tree).nu, tree.num_leaves, chain)
    blocks = [
        (i.speed, e - b) for i, b, e in drive_spans(tree, 0, rendezvous_agent(max_outer=2))
        if is_path_block(i)
    ]
    assert blocks and all(length == speed * edges for speed, length in blocks)


EXPLO_TREES = SYMMETRIC + [subdivide(complete_binary_tree(2), 3)]


def is_inserted_explo(tree):
    """Selects the closed walk that stands for an Explo-bis Synchro
    inserts: out by port 0 for 2(ν-1) arrivals, with no counter."""
    insertion = Walk(0, +1, 2 * (contract(tree).nu - 1))
    return lambda instruction: instruction == insertion


@pytest.mark.parametrize(
    "tree", EXPLO_TREES, ids=["broom-3-2", "broom-5-3", "line-6", "binary-2-sub-3"]
)
def test_drive_matches_steps_around_inserted_explo(tree):
    """Budgets that end just before, inside, at the end of and one past
    the closed walk of an Explo-bis that Synchro inserts cut like
    ``step`` — for the first insertion (a walk-memo miss) and for the
    first repeat at a node seen before (a hit; on a line Synchro
    inserts only once)."""
    prototype = rendezvous_agent(max_outer=1)
    runs = block_runs(tree, 0, prototype, is_inserted_explo(tree))
    starts = [u for _, _, u, _ in runs]
    repeats = [k for k, node in enumerate(starts) if node in starts[:k]]
    assert runs and (repeats or tree.num_leaves == 2)
    for begin, end, _, _ in [runs[0]] + [runs[k] for k in repeats[:1]]:
        assert end - begin == 2 * (tree.n - 1)
        middle = (begin + end) // 2
        for budget in (begin - 1, begin, begin + 1, middle, end - 1, end, end + 1):
            assert_drive_matches_steps(tree, 0, prototype, budget)


def test_inserted_explo_is_one_closed_walk_per_branching_arrival(monkeypatch):
    """Synchro inserts Explo-bis 2(ν-1)-1 = 9 times at 5 distinct nodes
    of the ℓ = 4 subdivided tree, each a closed run of 2(n-1) edges;
    drive resolves the walk once per node and serves the 4 repeats from
    its walk memo, which it keys without the counter."""
    from repro.agents import program

    tree = subdivide(complete_binary_tree(2), 3)
    prototype = rendezvous_agent(max_outer=1)
    total = 2 * (contract(tree).nu - 1)
    resolved = []
    walk_end = program._walk_end

    def spy_walk_end(tree, hops, u, port, delta, arrivals):
        if (port, delta, arrivals) == (0, 1, total):
            resolved.append((hops, u))
        return walk_end(tree, hops, u, port, delta, arrivals)

    monkeypatch.setattr(program, "_walk_end", spy_walk_end)
    tel = telemetry.Telemetry()
    with telemetry.use(tel):
        drive_spans(tree, 3, prototype)
    monkeypatch.undo()
    explos = block_runs(tree, 3, prototype, is_inserted_explo(tree))
    nodes = {u for _, _, u, _ in explos}
    assert (len(explos), len(nodes)) == (9, 5)
    assert all(e - b == 2 * (tree.n - 1) and u == v for b, e, u, v in explos)
    # One walk-memo miss per node, the P block builds' nested drives
    # included (they share the outer drive's tables); bw(2(ν-1)) from
    # the same node shares the entry.
    outer = [u for hops, u in resolved if hops is resolved[0][0]]
    assert len(outer) == len(resolved) == len(set(outer))
    assert nodes <= set(outer)
    paths = [u for _, _, u, _ in block_runs(tree, 3, prototype, is_path_block)]
    assert tel.counters["drive.block.build"] == len(set(paths))
    assert tel.counters["drive.block.jump"] == len(paths)


def test_nested_block_builds_share_the_outer_walk_tables(monkeypatch):
    """A P build's nested drive resolves walks through the outer drive's
    hop table and walk memo: in one drive of the ℓ = 4 subdivided tree
    from start 3, every (u, port, delta, arrivals) is resolved once,
    though the builds repeat walks the outer drive already resolved."""
    from repro.agents import program

    tree = subdivide(complete_binary_tree(2), 3)
    prototype = rendezvous_agent(max_outer=1)
    resolved = []
    walk_end = program._walk_end

    def spy_walk_end(tree, hops, u, port, delta, arrivals):
        resolved.append((id(hops), u, port, delta, arrivals))
        return walk_end(tree, hops, u, port, delta, arrivals)

    monkeypatch.setattr(program, "_walk_end", spy_walk_end)
    tel = telemetry.Telemetry()
    with telemetry.use(tel):
        drive_spans(tree, 3, prototype)
    assert tel.counters["drive.block.build"] >= 1
    assert len({r[0] for r in resolved}) == 1
    walks = [r[1:] for r in resolved]
    assert len(walks) == len(set(walks))
    # a second call resolves them afresh: the tables are per call
    resolved.clear()
    drive_spans(tree, 3, prototype)
    assert sorted(r[1:] for r in resolved) == sorted(walks)


def test_block_must_declare_what_it_writes():
    """drive builds a block on a scratch bank, so a block writing a
    register declared only outside it fails loudly."""

    def writes_outer(ctx, regs, speed):
        if (yield Block("writes-outer", writes_outer, speed)) is None:
            regs["outer"] = 1
            yield from walk(ctx, 0, +1, 1, speed)

    def program(start_degree, regs):
        ctx = Ctx(NULL_PORT, start_degree)
        regs.declare("outer", 3)
        yield from writes_outer(ctx, regs, 2)

    agent = AgentProgram(program)
    tree = line(4)
    with pytest.raises(AgentProtocolError, match="never declared"):
        drive(tree, 0, agent.routine(tree.degree(0)), agent.registers)


def test_block_must_move():
    """A jump answers with the block's last observation, which an empty
    block does not have, so drive refuses one."""

    def empty(ctx, regs, speed):
        yield Block("empty", empty, speed)

    def program(start_degree, regs):
        yield from empty(Ctx(NULL_PORT, start_degree), regs, 1)

    agent = AgentProgram(program)
    tree = line(4)
    with pytest.raises(AgentProtocolError, match="moved no edge"):
        drive(tree, 0, agent.routine(tree.degree(0)), agent.registers)


# -- machine-state keys: memoized and interned ≡ one freeze per frame ---------


def oracle_freeze(value, stack=(), depth=0):
    """The oracle: the frame-local freeze with no memo and no intern
    table — every frame re-freezes every object it reaches."""
    from repro.agents.program import Registers
    from repro.errors import LoweringError
    from repro.trees.tree import Tree

    if depth > 24:
        raise LoweringError("depth")
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, Registers):
        return ("Registers", value.state_key())
    if isinstance(value, Ctx):
        return ("Ctx", value.in_port, value.degree)
    if isinstance(value, Tree):
        return ("Tree", id(value))
    if isinstance(value, range):
        return ("range", value.start, value.stop, value.step)
    names = getattr(type(value), "_fields", None)
    if names is not None:
        if id(value) in stack:
            raise LoweringError("cyclic")
        inner = stack + (id(value),)
        return (
            type(value).__qualname__,
            tuple((n, oracle_freeze(getattr(value, n), inner, depth + 1)) for n in names),
        )
    if isinstance(value, tuple):
        return tuple(oracle_freeze(v, stack, depth + 1) for v in value)
    if isinstance(value, list):
        return ("list", tuple(oracle_freeze(v, stack, depth + 1) for v in value))
    if isinstance(value, (set, frozenset)):
        frozen = sorted((oracle_freeze(v, stack, depth + 1) for v in value), key=repr)
        return ("set", tuple(frozen))
    if isinstance(value, dict):
        items = sorted(
            ((repr(k), oracle_freeze(k, stack, depth + 1), oracle_freeze(v, stack, depth + 1))
             for k, v in value.items()),
            key=lambda kv: kv[0],
        )
        return ("dict", tuple((k, v) for _r, k, v in items))
    if callable(value) and hasattr(value, "__qualname__"):
        owner = getattr(value, "__self__", None)
        if owner is not None:
            return ("method", value.__qualname__, oracle_freeze(owner, stack, depth + 1))
        return ("fn", getattr(value, "__module__", ""), value.__qualname__)
    if hasattr(value, "gi_frame") or hasattr(value, "__next__"):
        raise LoweringError("live iterator")
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        if id(value) in stack:
            raise LoweringError("cyclic")
        inner = stack + (id(value),)
        return (
            type(value).__qualname__,
            tuple((n, oracle_freeze(v, inner, depth + 1)) for n, v in sorted(attrs.items())),
        )
    raise LoweringError(type(value).__name__)


def oracle_key(agent):
    """machine_state_key with every frame frozen on its own."""
    if agent.finished or agent.generator is None:
        return ("finished",)
    frames = []
    gen = agent.generator
    outermost = True
    while gen is not None:
        frame = gen.gi_frame
        if frame is None:
            frames.append(("done", gen.gi_code.co_name))
            break
        code = frame.f_code
        locs = frame.f_locals
        if outermost:
            if code.co_argcount >= 1:
                locs = {k: v for k, v in locs.items() if k != code.co_varnames[0]}
            outermost = False
        frames.append((
            code.co_filename, code.co_firstlineno, code.co_name, frame.f_lasti,
            oracle_freeze(locs),
        ))
        gen = getattr(gen, "gi_yieldfrom", None)
    return ("suspended", tuple(frames), agent.walk_state)


def assert_keys_match_oracle(tree, start, agent, rounds):
    """At every round, the key built with one intern table shared across
    the rounds equals the oracle's, and equal keys share their frames."""
    intern = {}
    pos = start
    raw = agent.start(tree.degree(pos))
    keys = []
    for _ in range(rounds + 1):
        key = machine_state_key(agent, intern)
        assert key == oracle_key(agent)
        keys.append(key)
        if agent.finished:
            break
        a = resolve_action(raw, tree.degree(pos))
        if a == -1:
            obs = (NULL_PORT, tree.degree(pos))
        else:
            pos, in_port = tree.move(pos, a)
            obs = (in_port, tree.degree(pos))
        raw = agent.step(*obs)
    for key in keys:
        if key[0] == "suspended":
            for frame in key[1]:
                assert intern[frame] is frame
    return keys


@settings(max_examples=60, deadline=None)
@given(trees(), st.data(), walk_specs)
def test_interned_key_matches_oracle_walk_program(tree, data, specs):
    start = data.draw(st.integers(0, tree.n - 1))
    expand = data.draw(st.booleans())
    rounds = data.draw(st.integers(0, 400))
    assert_keys_match_oracle(tree, start, walk_program(specs, expand, []), rounds)


REGISTER_PROGRAMS = ["thm41:1", "baseline", "prime:3", "counting-program:2", "pausing-program:2"]


@settings(max_examples=60, deadline=None)
@given(trees(max_n=7, max_sub=2), st.data(), st.sampled_from(REGISTER_PROGRAMS))
def test_interned_key_matches_oracle_registry_programs(tree, data, program):
    from repro.scenarios.spec import build_agent

    start = data.draw(st.integers(0, tree.n - 1))
    rounds = data.draw(st.integers(0, 400))
    assert_keys_match_oracle(tree, start, build_agent(program), rounds)


class Box:
    """A plain object: the freeze memo covers it."""

    def __init__(self, inner):
        self.inner = inner


def nested(levels, leaf):
    for _ in range(levels):
        leaf = (leaf,)
    return leaf


def depth_program(start_degree, regs, levels, height, dict_leaf):
    # ``shared`` freezes first, one level below the locals; ``deep``
    # reaches it again ``levels`` tuples further down
    shared = Box(nested(height, 0))
    deep = nested(levels, {"x": 1} if dict_leaf else shared)
    while shared is not deep:
        yield -1


@pytest.mark.parametrize("dict_leaf", [False, True])
def test_freeze_depth_limit_matches_the_unmemoized_freeze(dict_leaf):
    """A memo hit deeper than the object first froze, and a dict whose
    entries skip the call, still meet the depth limit where the
    un-memoized freeze does."""
    raised = []
    for levels in range(14, 26):
        for height in range(0, 5):
            agent = AgentProgram(depth_program, levels, height, dict_leaf)
            agent.start(2)
            try:
                expected = oracle_key(agent)
            except LoweringError:
                with pytest.raises(LoweringError):
                    machine_state_key(agent)
                raised.append((levels, height))
            else:
                assert machine_state_key(agent) == expected
    assert raised and len(raised) < 12 * 5  # the boundary lies inside the grid


def test_key_frames_share_one_frozen_register_bank():
    """The Theorem 4.1 agent's frames all reach its one register bank;
    a key freezes it once, and every frame holds that same object, with
    or without an intern table."""

    def banks(frozen, out):
        if isinstance(frozen, tuple):
            if frozen and frozen[0] == "Registers":
                out.append(frozen)
            for item in frozen:
                banks(item, out)
        return out

    tree = subdivide(complete_binary_tree(2), 2)
    agent = rendezvous_agent(max_outer=1)
    raw = agent.start(tree.degree(0))
    pos = 0
    seen_deep = False
    for rnd in range(300):
        key = machine_state_key(agent, {} if rnd % 2 else None)
        found = banks(key, [])
        frames_with_bank = [f for f in key[1] if banks(f, [])]
        if len(frames_with_bank) >= 2:
            seen_deep = True
            assert all(b is found[0] for b in found)
        a = resolve_action(raw, tree.degree(pos))
        if a == -1:
            obs = (NULL_PORT, tree.degree(pos))
        else:
            pos, in_port = tree.move(pos, a)
            obs = (in_port, tree.degree(pos))
        raw = agent.step(*obs)
    assert seen_deep
