"""The vectorized sweep kernel: whole frontiers per step, not configs.

The exact dict solver (:func:`repro.sim.gathering_solver.solve_gathering`,
which :func:`repro.sim.compiled.solve_all_delays` runs) walks the product
configuration graph one Python dict lookup at a time.  This module keeps
their verdict semantics but advances *every* undecided adversary choice
at once:

- each per-agent configuration ``(position, automaton state, entry
  port)`` is encoded as one integer id ``(state * n + pos) * width +
  ip`` (``width = stride + 1``, entry ports stored as ``in_port + 1``,
  exactly the compiled backend's convention);
- one flat numpy successor array per ``(automaton, tree)`` —
  ``succ[id] -> id'`` — is built vectorized from the existing
  :class:`~repro.sim.compiled.CompiledAgent` tables, so a joint step of
  the whole frontier is a gather (``succ[frontier]``) per agent;
- meeting / never-meeting masks are boolean reductions over the
  frontier: positions are decoded arithmetically, certification is
  per-lane Brent cycle detection with a shared doubling schedule, and
  decided lanes are compacted away so the gather only touches live work.

Tables are memoized in-process (weakly, so they die with their automaton
— cf. ``_COMPILE_CACHE``) and optionally persisted to an on-disk cache
of ``.npy`` files keyed by a content hash of tree shape + compiled
automaton tables (set ``REPRO_KERNEL_CACHE`` to a directory).  Cached
tables are loaded with ``np.load(mmap_mode="r")``, so a warm
service-style process skips table building *and* table reading until a
sweep actually gathers from the pages it needs.  A corrupt or truncated
cache file is quarantined to ``<name>.corrupt`` and rebuilt — the same
contract as :class:`~repro.scenarios.store.ResultStore`.

The dict solvers stay the oracle: :func:`solve_all_delays_auto` /
:func:`solve_gathering_auto` share one dispatcher, :func:`_solve_auto`,
which runs the kernel when it applies (fault-free, at least
``_MIN_KERNEL_LANES`` lanes, ``REPRO_KERNEL != 0``, numpy present,
tables within the memory cap) and falls back to the dict solver on
anything else — including the kernel's own budget guard tripping, so
explicit caller budgets keep the dict solver's exact semantics on every
path.  Small grids never reach the kernel: below the lane gate the dict
solver is faster, and skipping the kernel skips importing numpy.

numpy is imported lazily, through :func:`repro.sim.numpy_probe.load_numpy`:
each function here binds ``_np = load_numpy()`` (or ``_np =
_require_kernel()`` at the entry points) when it runs, so importing this
module costs nothing until a vector path is taken.

A delay sweep is the k=2 case of a gathering grid (:mod:`repro.sim.delays`
owns the (θ, side) format): :func:`solve_delay_grid_kernel` is the
gathering body, :func:`_solve_grids`, over the sweep's delay vectors for
many start pairs at once.  That body steps one solo run per distinct
(table, start node) and reads every (start set, vector) cell's staggered
prefix off those runs, vectorized over cells (the success-families
benchmark in ``BENCH_engine.json`` gates that speed).  Verdict parity —
against the dict solvers and against the gathering grid over the k=2
vectors — is asserted by ``tests/properties/test_kernel_parity.py``.
"""

from __future__ import annotations

import hashlib
import os
import weakref
from pathlib import Path
from typing import Optional, Sequence

from ..agents.automaton import Automaton
from ..agents.observations import STAY
from ..durable import atomic_writer, quarantine
from ..errors import BudgetExceededError, SimulationError
from ..records import TupleRecord, tuple_new
from ..telemetry import current as _telemetry
from ..trees.tree import Tree
from .compiled import _INVALID, compile_agent, solve_all_delays
from .delays import DelayVerdict, delay_vector, sweep_choices, to_delay_verdicts
from .gathering_solver import (
    GatheringVerdict,
    _check_grid,
    _start_config,
    solve_gathering,
)
from .numpy_probe import (
    _ENV_DISABLE,
    kernel_cache_dir,
    kernel_enabled,
    load_numpy,
)

__all__ = [
    "KernelUnsupported",
    "PairVerdict",
    "AgentTable",
    "agent_table",
    "kernel_available",
    "kernel_enabled",
    "kernel_cache_dir",
    "table_cache_key",
    "solve_all_delays_kernel",
    "solve_delay_grid_kernel",
    "solve_gathering_kernel",
    "run_pairs_kernel",
    "solve_all_delays_auto",
    "solve_gathering_auto",
]

# Successor tables above this entry count (int32 -> ~256 MB) stay on the
# dict solver: the kernel must never surprise-allocate its way into an
# OOM on a machine the dict path served fine.
_MAX_TABLE_ENTRIES = 64_000_000

# Fault-free grids with fewer lanes than this (delay choices, gathering
# delay vectors) go straight to the dict solver: below it numpy's
# per-step dispatch outweighs the vector gather, and the process skips
# importing numpy altogether.  Kernel/dict time on pausing_walker(2)
# sweeps over colored lines n = 21/41/81 (warm tables): about 3.0 at 33
# lanes, 0.94-1.03 at 513, 0.77-0.86 at 8193.
_MIN_KERNEL_LANES = 512


class KernelUnsupported(Exception):
    """The kernel cannot decide this instance; use the dict solver.

    Raised for oversized tables, invalid-transition lanes (the dict
    solver re-invokes the automaton so the genuine error surfaces), and
    numpy-less environments.  The ``*_auto`` wrappers catch it.
    """


class PairVerdict(TupleRecord):
    """Delay-0 fate of one start pair from a batched pairs decision.

    ``met``/``meeting_round`` follow the engines' parity contract; a
    budget-bound lane comes back with neither ``met`` nor
    ``certified_never`` set (undecided — never proof).
    """

    __slots__ = ()

    def __new__(
        cls,
        met: bool,
        meeting_round: Optional[int],
        certified_never: bool = False,
    ):
        return tuple_new(cls, (met, meeting_round, certified_never))


def kernel_available() -> bool:
    """Is the vectorized kernel usable here (not disabled via
    ``REPRO_KERNEL=0``, numpy importable)?  Imports numpy on the first
    call unless the kill switch is set."""
    return os.environ.get(_ENV_DISABLE, "") != "0" and load_numpy() is not None


def _require_kernel():
    """numpy, or :class:`KernelUnsupported` when the kernel cannot run."""
    if not kernel_available():
        raise KernelUnsupported("numpy missing or REPRO_KERNEL=0")
    return load_numpy()


# ----------------------------------------------------------------------
# Successor tables: build, memoize, persist
# ----------------------------------------------------------------------


class AgentTable:
    """One automaton's flat successor array on one concrete tree.

    ``succ[(state * n + pos) * width + ip]`` is the id after one active
    round (``-1`` marks entries whose live transition raised — a lane
    touching one aborts to the dict solver so the genuine error
    surfaces).  ``start_ids[v]`` is the id after executing the start
    action from node ``v``.  ``succ`` may be a read-only ``np.memmap``
    when served from the on-disk cache.
    """

    __slots__ = ("succ", "start_ids", "n", "width", "num_states", "has_invalid")

    def __init__(self, succ, start_ids, n: int, width: int, num_states: int):
        self.succ = succ
        self.start_ids = start_ids
        self.n = n
        self.width = width
        self.num_states = num_states
        # Tables without invalid entries skip the per-step error scan.
        self.has_invalid = bool((succ < 0).any())

    @property
    def size(self) -> int:
        return self.num_states * self.n * self.width


def table_cache_key(automaton: Automaton, tree: Tree) -> str:
    """Content hash of (tree shape, compiled automaton tables).

    The compiled tables capture the automaton's full observable behavior
    (resolved actions and state transitions per observation), and the
    flat move tables capture the port-labeled tree exactly, so equal
    keys imply equal successor arrays — the property that makes the hash
    safe as a cross-process cache address.
    """
    _np = load_numpy()
    stride, deg, move_to, move_in = tree.flat_move_tables()
    compiled = compile_agent(automaton, tree)
    h = hashlib.sha256()
    h.update(b"repro-kernel-table-v1")
    for scalar in (tree.n, stride, compiled.automaton.num_states,
                   compiled.initial_state):
        h.update(int(scalar).to_bytes(8, "little", signed=True))
    for seq in (deg, move_to, move_in, compiled.next_state,
                compiled.action, compiled.start_action):
        h.update(_np.asarray(seq, dtype=_np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()


def _quarantine(path: Path) -> None:
    """Move a bad cache file aside (never delete evidence, never crash
    the sweep) — the same :func:`repro.durable.quarantine` as
    ``ResultStore``'s corrupt-file handling."""
    t = _telemetry()
    if t.enabled:
        t.count("kernel.table.quarantine")
        t.event("kernel.table.quarantine", path=str(path))
    quarantine(path)


def _load_table_file(path: Path, expected_size: int):
    """Memmap a cached successor array; quarantine anything unusable."""
    _np = load_numpy()
    try:
        arr = _np.load(path, mmap_mode="r", allow_pickle=False)
    except FileNotFoundError:
        return None
    # repro-lint: disable=RPR002 -- cache-read probe: any unreadable cache file is quarantined (evidence kept) and the table rebuilt from source; a crash here would fail sweeps the dict path serves fine
    except Exception:  # corrupt header / truncated payload / wrong format
        _quarantine(path)
        return None
    if (getattr(arr, "dtype", None) != _np.int32 or arr.ndim != 1
            or arr.shape[0] != expected_size):
        _quarantine(path)
        return None
    return arr


def _save_table_file(path: Path, succ) -> None:
    """Atomic best-effort persist (:func:`repro.durable.atomic_writer`)."""
    _np = load_numpy()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_writer(path) as fh:
            _np.save(fh, succ)
    except OSError:  # pragma: no cover - cache is an optimization only
        pass


def _build_succ(compiled, tree: Tree):
    """Vectorized build of the flat successor array from the compiled
    tables (no per-configuration Python loop)."""
    _np = load_numpy()
    stride, deg, move_to, move_in = tree.flat_move_tables()
    width = stride + 1
    n = tree.n
    num_states = compiled.automaton.num_states
    if num_states * n * width > _MAX_TABLE_ENTRIES:
        raise KernelUnsupported(
            f"successor table would hold {num_states * n * width} entries "
            f"(cap {_MAX_TABLE_ENTRIES}); dict solver handles this instance"
        )
    nxt = _np.asarray(compiled.next_state, dtype=_np.int64)
    nxt = nxt.reshape(num_states, width, width)
    act = _np.asarray(compiled.action, dtype=_np.int64)
    act = act.reshape(num_states, width, width)
    deg_arr = _np.asarray(deg, dtype=_np.int64)

    s_g = _np.arange(num_states, dtype=_np.int64)[:, None, None]
    p_g = _np.arange(n, dtype=_np.int64)[None, :, None]
    i_g = _np.arange(width, dtype=_np.int64)[None, None, :]
    d_g = deg_arr[None, :, None]
    s2 = nxt[s_g, i_g, d_g]  # (num_states, n, width)
    a = act[s_g, i_g, d_g]
    invalid = s2 == _INVALID
    stay = (a == STAY) | invalid
    if stride > 0:
        mt = _np.asarray(move_to, dtype=_np.int64)
        mi = _np.asarray(move_in, dtype=_np.int64)
        base = p_g * stride + _np.where(stay, 0, a)
        pos2 = _np.where(stay, _np.broadcast_to(p_g, s2.shape), mt[base])
        ip2 = _np.where(stay, 0, mi[base] + 1)
    else:  # one-node tree: every action resolves to STAY
        pos2 = _np.broadcast_to(p_g, s2.shape)
        ip2 = _np.zeros_like(s2)
    succ = (s2 * n + pos2) * width + ip2
    succ[invalid] = -1
    return succ.reshape(-1).astype(_np.int32)


def _build_start_ids(compiled, tree: Tree):
    """Ids after the start round from every node (tiny: one per node)."""
    _np = load_numpy()
    width = tree.flat_move_tables()[0] + 1
    configs = (_start_config(compiled, tree, v) for v in range(tree.n))
    return _np.asarray(
        [(st * tree.n + pos) * width + ip for pos, st, ip in configs],
        dtype=_np.int64,
    )


# automaton -> tree -> AgentTable; both levels weak so tables die with
# their owners and never leak into pickles (cf. _COMPILE_CACHE).
_TABLE_CACHE: "weakref.WeakKeyDictionary[Automaton, weakref.WeakKeyDictionary]" = (
    weakref.WeakKeyDictionary()
)


def agent_table(automaton: Automaton, tree: Tree) -> AgentTable:
    """Successor table for ``automaton`` on ``tree``: in-process memo,
    then the on-disk cache (when configured), then a vectorized build
    (persisted back when a cache directory is configured)."""
    _require_kernel()
    t = _telemetry()
    per_tree = None
    try:
        per_tree = _TABLE_CACHE.setdefault(automaton, weakref.WeakKeyDictionary())
        table = per_tree.get(tree)
        if table is not None:
            if t.enabled:
                t.count("kernel.table.memo_hit")
            return table
    except TypeError:  # pragma: no cover - not weak-referenceable
        per_tree = None

    compiled = compile_agent(automaton, tree)
    stride, deg, _mt, _mi = tree.flat_move_tables()
    width = stride + 1
    expected = compiled.automaton.num_states * tree.n * width
    if expected > _MAX_TABLE_ENTRIES:
        raise KernelUnsupported(
            f"successor table would hold {expected} entries "
            f"(cap {_MAX_TABLE_ENTRIES}); dict solver handles this instance"
        )

    succ = None
    cache_dir = kernel_cache_dir()
    path = None
    if cache_dir is not None:
        path = cache_dir / f"{table_cache_key(automaton, tree)}.npy"
        succ = _load_table_file(path, expected)
        if succ is not None and t.enabled:
            t.count("kernel.table.disk_hit")
    if succ is None:
        with t.span("kernel/table_build"):
            succ = _build_succ(compiled, tree)
        if t.enabled:
            t.count("kernel.table.build")
            t.event("kernel.table.build", entries=int(expected),
                    persisted=path is not None)
        if path is not None:
            _save_table_file(path, succ)
    table = AgentTable(
        succ, _build_start_ids(compiled, tree),
        tree.n, width, compiled.automaton.num_states,
    )
    if per_tree is not None:
        try:
            per_tree[tree] = table
        except TypeError:  # pragma: no cover - tree not weak-referenceable
            pass
    return table


# ----------------------------------------------------------------------
# The frontier loop
# ----------------------------------------------------------------------


def _joint_fates(
    tables: Sequence[AgentTable],
    id_cols: Sequence,
    *,
    max_configs: Optional[int],
    budgets=None,
):
    """Fates of every lane, all advanced together.

    Lane ``j`` is the joint configuration ``(id_cols[0][j], ...,
    id_cols[k-1][j])`` reached after some round.  Per step: decode
    positions, mark meeting lanes (all agents on one node), mark
    certified-never lanes (joint id equals its Brent anchor), drop
    budget-exhausted lanes (``budgets[j]`` steps allowed after entry),
    compact survivors, gather successors.  Returns ``(met, dist,
    undecided)`` arrays — ``dist[j]`` is steps after entry for meeting
    lanes, else ``-1``.

    ``max_configs`` guards cumulative live-lane steps (the kernel's
    analogue of the dict solver's distinct-configuration count); the
    ``*_auto`` wrappers translate a trip back into dict-solver
    semantics by falling back.  A lane gathering a ``-1`` successor
    raises :class:`KernelUnsupported` — the dict solver re-runs the
    instance so the automaton's genuine error surfaces.
    """
    _np = load_numpy()
    k = len(tables)
    m = len(id_cols[0])
    met = _np.zeros(m, dtype=bool)
    dist = _np.full(m, -1, dtype=_np.int64)
    undecided = _np.zeros(m, dtype=bool)
    if m == 0:
        return met, dist, undecided

    lanes = _np.arange(m, dtype=_np.int64)
    curs = [_np.asarray(col, dtype=_np.int64) for col in id_cols]
    anchors = [_np.full(m, -1, dtype=_np.int64) for _ in range(k)]
    buds = None if budgets is None else _np.asarray(budgets, dtype=_np.int64)
    succs = [t.succ for t in tables]
    widths = [t.width for t in tables]
    n = tables[0].n

    any_invalid = any(t.has_invalid for t in tables)
    telem = _telemetry()
    step = 0  # rounds advanced past the entry configurations
    brent_steps = 0
    brent_power = 1
    work = 0
    while lanes.size:
        pos0 = (curs[0] // widths[0]) % n
        if k == 2:
            meet = (curs[1] // widths[1]) % n == pos0
        else:
            meet = _np.ones(lanes.size, dtype=bool)
            for i in range(1, k):
                meet &= (curs[i] // widths[i]) % n == pos0
        if meet.any():
            hit = lanes[meet]
            met[hit] = True
            dist[hit] = step
        never = ~meet
        for i in range(k):
            never &= curs[i] == anchors[i]
        done = meet | never
        if buds is not None:
            over = ~done & (step >= buds)
            if over.any():
                undecided[lanes[over]] = True
                done |= over
        if done.any():
            keep = ~done
            lanes = lanes[keep]
            curs = [c[keep] for c in curs]
            anchors = [a[keep] for a in anchors]
            if buds is not None:
                buds = buds[keep]
            if not lanes.size:
                break
        brent_steps += 1
        if brent_steps == brent_power:
            anchors = [c.copy() for c in curs]
            brent_steps = 0
            brent_power <<= 1
        work += lanes.size
        if max_configs is not None and work > max_configs:
            if telem.enabled:
                _note_frontier(telem, m, step, work, max_configs,
                               budget_exceeded=True)
            raise BudgetExceededError(
                f"sweep kernel exceeded max_configs={max_configs}"
            )
        curs = [succ[c] for succ, c in zip(succs, curs)]
        if any_invalid:
            for c in curs:
                if (c < 0).any():
                    raise KernelUnsupported(
                        "lane reached an invalid transition entry; "
                        "the dict solver will surface the live error"
                    )
        step += 1
    if telem.enabled:
        _note_frontier(telem, m, step, work, max_configs,
                       budget_exceeded=False)
    return met, dist, undecided


def _note_frontier(
    telem, lanes_entered: int, steps: int, work: int,
    max_configs: Optional[int], *, budget_exceeded: bool,
) -> None:
    """Per-call frontier accounting (outside the hot loop on purpose:
    one event per frontier, never one per step).

    ``work`` is cumulative live-lane steps; ``compaction`` relates it to
    the uncompacted cost ``lanes_entered * steps`` — low means decided
    lanes were dropped early and the gathers touched little dead work.
    """
    telem.count("kernel.frontier.calls")
    telem.count("kernel.frontier.lanes", lanes_entered)
    telem.count("kernel.frontier.steps", steps)
    telem.count("kernel.frontier.lane_steps", work)
    if budget_exceeded:
        telem.count("kernel.frontier.budget_exceeded")
    dense = lanes_entered * steps
    telem.event(
        "kernel.frontier",
        lanes=int(lanes_entered), steps=int(steps), lane_steps=int(work),
        compaction=round(work / dense, 4) if dense else 1.0,
        budget=max_configs, budget_exceeded=budget_exceeded,
    )


# ----------------------------------------------------------------------
# Gathering grids (a delay sweep is the k=2 case)
# ----------------------------------------------------------------------


def _solo_ids(tables: Sequence[AgentTable], start_sets, reach):
    """The shared solo runs of a grid, in id space.

    One run per distinct (table, start node), stepped once to the
    longest prefix any vector of the grid reads (``reach[i]`` rounds for
    slot i).  Returns ``(walk_of, ids)``: ``walk_of[b, i]`` is the run
    of start set b's slot i, and ``ids[w, t]`` its id after round t
    (column 0 unused).  A run that reaches an invalid transition stops
    there; the entries past it stay ``-1``, and a cell reading one raises
    :class:`KernelUnsupported` — so the error surfaces exactly when some
    vector's own prefix needs that step, however far the run was meant
    to go.
    """
    _np = load_numpy()
    runs: dict[tuple[int, int], int] = {}
    walks = []  # [table, start node, rounds]
    walk_of = []
    for starts in start_sets:
        row = []
        for table, node, rounds in zip(tables, starts, reach):
            w = runs.setdefault((id(table), node), len(walks))
            if w == len(walks):
                walks.append([table, node, rounds])
            elif walks[w][2] < rounds:
                walks[w][2] = rounds
            row.append(w)
        walk_of.append(row)

    ids = _np.full((len(walks), max(w[2] for w in walks) + 1), -1, dtype=_np.int64)
    for w, (table, node, rounds) in enumerate(walks):
        succ = _np.asarray(table.succ, dtype=_np.int32)  # plain ndarray: fast .item()
        cur = int(table.start_ids[node])
        run = [cur]
        while len(run) < rounds:
            cur = succ.item(cur)
            if cur < 0:
                break
            run.append(cur)
        ids[w, 1:len(run) + 1] = run
    return _np.asarray(walk_of, dtype=_np.int64), ids


def _prefix_gatherings(tables, start_sets, vectors, walk_of, ids):
    """First round each (start set, vector) cell gathers at before every
    agent has started, 0 where it does not — :func:`_shared_prefix` of
    the dict solver, vectorized over cells.

    Each cell can only gather on the start node of its last agent to
    wake, once every agent starting elsewhere is up; every agent's next
    round on that node comes from a per-(run, node) next-visit table,
    and the agents leapfrog to their first common round.
    """
    _np = load_numpy()
    n, width = tables[0].n, ids.shape[1]
    never = _np.iinfo(_np.int64).max // 4
    last = vectors.max(axis=1)
    node = start_sets[:, vectors.argmax(axis=1)]  # (sets, vectors)
    away = start_sets[:, None, :] != node[:, :, None]
    rnd = _np.where(away, vectors[None], 0).max(axis=2) + 1
    gathered = _np.zeros(node.shape, dtype=_np.int64)
    bs, vs = _np.nonzero(rnd <= last[None, :])
    if not bs.size:
        return gathered
    runs, lags, target = walk_of[bs], vectors[vs], node[bs, vs]

    # nxt[q, t]: the first round >= t at which run keys[q] // n stands
    # on node keys[q] % n (``never`` past the run's known rounds)
    keys, query = _np.unique(runs * n + target[:, None], return_inverse=True)
    query = query.reshape(runs.shape)
    known = ids[keys // n]
    # every table on one tree shares the id layout (tables[0].width)
    hits = (known >= 0) & ((known // tables[0].width) % n == (keys % n)[:, None])
    hits[:, 0] = False
    nxt = _np.where(hits, _np.arange(width, dtype=_np.int64), never)
    nxt = _np.minimum.accumulate(nxt[:, ::-1], axis=1)[:, ::-1]
    nxt = _np.concatenate(
        [nxt, _np.full((len(keys), 1), never, dtype=_np.int64)], axis=1
    )

    rnd, hi = rnd[bs, vs], last[vs]
    live = _np.arange(bs.size, dtype=_np.int64)
    while live.size:
        local = rnd[live, None] - lags[live]
        # a sleeping agent lies on the node already
        best = _np.where(
            local > 0,
            nxt[query[live], _np.clip(local, 0, width)] + lags[live],
            rnd[live, None],
        ).max(axis=1)
        found = best == rnd[live]
        gathered[bs[live[found]], vs[live[found]]] = rnd[live[found]]
        rnd[live] = best
        live = live[~found & (best <= hi[live])]
    return gathered


def _solve_grids(tables: Sequence[AgentTable], start_sets, vectors, max_configs):
    """Verdict rows of a fault-free grid for many start sets at once.

    ``start_sets`` share the slot tables and the delay vectors.  The
    shared-prefix step runs vectorized over every (start set, vector)
    cell: the solo runs are stepped once (:func:`_solo_ids`), prefix
    gatherings are read off them (:func:`_prefix_gatherings`), and the
    remaining cells' entry configurations after round ``max(θ) + 1``
    are deduplicated and resolved in one k-agent frontier.
    """
    _np = load_numpy()
    rows = [
        [GatheringVerdict(key, True, 0, False) for key in vectors]
        if len(set(starts)) == 1 else None
        for starts in start_sets
    ]
    live = [b for b, row in enumerate(rows) if row is None]
    if not live or not vectors:
        return [row or [] for row in rows]
    sets = _np.asarray([start_sets[b] for b in live], dtype=_np.int64)
    delays = _np.asarray(vectors, dtype=_np.int64)
    first_joint = delays.max(axis=1) + 1
    reach = (first_joint[:, None] - delays).max(axis=0)
    walk_of, ids = _solo_ids(tables, sets.tolist(), reach.tolist())
    rounds = _prefix_gatherings(tables, sets, delays, walk_of, ids)

    bs, vs = _np.nonzero(rounds == 0)
    entry = ids[walk_of[bs], first_joint[vs, None] - delays[vs]]
    if (entry < 0).any():
        raise KernelUnsupported("prefix reached an invalid transition entry")
    # one lane per distinct entry: rank the rows agent by agent (a row
    # key of k table ids would overflow int64)
    key = entry[:, 0]
    for i in range(1, len(tables)):
        key = _np.unique(key * tables[i].size + entry[:, i], return_inverse=True)[1]
    _keys, first, lane_of = _np.unique(key, return_index=True, return_inverse=True)
    met, dist, _und = _joint_fates(tables, entry[first].T, max_configs=max_configs)
    lane_of = lane_of.reshape(-1)
    rounds[bs, vs] = _np.where(met[lane_of], first_joint[vs] + dist[lane_of], -1)

    # one verdict object per distinct (vector, round), shared by the
    # start sets (round -1: never)
    count = len(vectors)
    codes, index = _np.unique(
        (rounds + 1) * count + _np.arange(count, dtype=_np.int64), return_inverse=True
    )
    made = [
        GatheringVerdict(vectors[v], True, r, False) if r > 0
        else GatheringVerdict(vectors[v], False, None, True)
        for r, v in zip((codes // count - 1).tolist(), (codes % count).tolist())
    ]
    for b, row in zip(live, index.reshape(rounds.shape).tolist()):
        rows[b] = [made[j] for j in row]
    return rows


def solve_gathering_kernel(
    tree: Tree,
    prototype: Automaton,
    starts: Sequence[int],
    delay_vectors: Sequence[Sequence[int]],
    *,
    max_configs: int = 4_000_000,
    prototypes: Optional[Sequence[Automaton]] = None,
) -> list[GatheringVerdict]:
    """Vectorized drop-in for
    :func:`repro.sim.gathering_solver.solve_gathering` (fault-free).

    Prefixes are read off shared solo runs, and the fully-started entry
    configurations are deduplicated and resolved in one k-agent
    frontier (:func:`_solve_grids`).
    """
    _require_kernel()
    start_sets, protos, vectors = _check_grid(
        tree, prototype, [starts], delay_vectors, prototypes
    )
    tables = [agent_table(p, tree) for p in protos]
    return _solve_grids(tables, start_sets, vectors, max_configs)[0]


def solve_delay_grid_kernel(
    tree: Tree,
    prototype: Automaton,
    pairs: Sequence[tuple[int, int]],
    *,
    max_delay: int,
    delayed_sides: Sequence[int] = (1, 2),
    max_configs: int = 4_000_000,
    prototype2: Optional[Automaton] = None,
) -> list[list[DelayVerdict]]:
    """Decide whole delay sweeps for *many* start pairs in one frontier.

    Returns one :func:`repro.sim.compiled.solve_all_delays`-ordered
    verdict list per input pair: the k=2 gathering grid over the
    sweep's delay vectors (:mod:`repro.sim.delays`), every pair decided
    by one :func:`_solve_grids` call — the shape the
    ``success-families`` grid benchmark measures.  ``max_configs`` is
    granted per pair (the grid call may spend ``max_configs *
    len(pairs)`` lane-steps total), matching a per-pair dict-solver
    loop's aggregate budget.
    """
    _require_kernel()
    choices = sweep_choices(max_delay, delayed_sides)
    if not pairs:
        return []
    start_sets, protos, vectors = _check_grid(
        tree, prototype, pairs,
        [delay_vector(theta, side) for theta, side in choices],
        None if prototype2 is None else (prototype, prototype2),
    )
    tables = [agent_table(p, tree) for p in protos]
    rows = _solve_grids(tables, start_sets, vectors, max_configs * len(pairs))
    return [to_delay_verdicts(choices, row) for row in rows]


def solve_all_delays_kernel(
    tree: Tree,
    prototype: Automaton,
    start1: int,
    start2: int,
    *,
    max_delay: int,
    delayed_sides: Sequence[int] = (1, 2),
    max_configs: int = 4_000_000,
    prototype2: Optional[Automaton] = None,
) -> list[DelayVerdict]:
    """Vectorized drop-in for :func:`repro.sim.compiled.solve_all_delays`
    (fault-free): every (θ, side) lane of one pair advances per step."""
    return solve_delay_grid_kernel(
        tree, prototype, [(start1, start2)],
        max_delay=max_delay, delayed_sides=delayed_sides,
        max_configs=max_configs, prototype2=prototype2,
    )[0]


# ----------------------------------------------------------------------
# Batched delay-0 pairs (native automata)
# ----------------------------------------------------------------------


def run_pairs_kernel(
    tree: Tree,
    prototype: Automaton,
    pairs: Sequence[tuple[int, int]],
    *,
    max_rounds: int,
    prototype2: Optional[Automaton] = None,
) -> list[PairVerdict]:
    """Decide delay-0 rendezvous for many start pairs in one frontier.

    Parity with per-pair compiled runs: ``met`` iff the first meeting
    round is ``<= max_rounds``; a lane exhausting its budget before
    meeting or certifying comes back undecided.
    """
    _np = _require_kernel()
    if not isinstance(prototype, Automaton):
        raise SimulationError("compiled backend requires a finite-state Automaton")
    for u, v in pairs:
        if not (0 <= u < tree.n and 0 <= v < tree.n):
            raise SimulationError("start nodes outside the tree")
    t1 = agent_table(prototype, tree)
    t2 = t1 if prototype2 is None else agent_table(prototype2, tree)

    verdicts: list[Optional[PairVerdict]] = [None] * len(pairs)
    lane_idx: list[int] = []
    ids1: list[int] = []
    ids2: list[int] = []
    for j, (u, v) in enumerate(pairs):
        if u == v:
            verdicts[j] = PairVerdict(True, 0, False)
        elif max_rounds < 1:
            verdicts[j] = PairVerdict(False, None, False)
        else:
            lane_idx.append(j)
            ids1.append(int(t1.start_ids[u]))
            ids2.append(int(t2.start_ids[v]))

    # Entry ids sit after round 1, so max_rounds - 1 steps remain.
    budgets = _np.full(len(lane_idx), max_rounds - 1, dtype=_np.int64)
    met, dist, undecided = _joint_fates(
        (t1, t2), (ids1, ids2), max_configs=None, budgets=budgets
    )
    for lane, j in enumerate(lane_idx):
        if met[lane]:
            verdicts[j] = PairVerdict(True, 1 + int(dist[lane]), False)
        elif undecided[lane]:
            verdicts[j] = PairVerdict(False, None, False)
        else:
            verdicts[j] = PairVerdict(False, None, True)
    return verdicts


# ----------------------------------------------------------------------
# Auto dispatch: kernel when it applies, dict solver as the oracle
# ----------------------------------------------------------------------


def _solve_auto(solver: str, lanes: int, kernel_solve, dict_solve, *, faults):
    """``kernel_solve()`` when the kernel applies, else ``dict_solve()``:
    the one dispatcher behind both ``*_auto`` entry points.

    Fault-free grids of at least ``_MIN_KERNEL_LANES`` lanes with numpy
    available ride the vectorized kernel; everything else — faults, small
    grids, disabled kernel, oversized tables, invalid-transition lanes,
    or the kernel's own budget guard — runs the dict solver, preserving
    its exact semantics (including raising
    :class:`~repro.errors.BudgetExceededError` only when the *dict*
    solver's guard genuinely trips).  The lane test comes before the
    availability probe, so a small grid never imports numpy.  ``solver``
    names the ``kernel.dispatch.<solver>.{kernel,dict}`` counters.
    """
    t = _telemetry()
    if faults is None and lanes >= _MIN_KERNEL_LANES and kernel_available():
        try:
            verdicts = kernel_solve()
            if t.enabled:
                t.count(f"kernel.dispatch.{solver}.kernel")
            return verdicts
        except (KernelUnsupported, BudgetExceededError) as exc:
            if t.enabled:
                t.count(f"kernel.fallback.{type(exc).__name__}")
                t.event("kernel.fallback", solver=solver,
                        reason=type(exc).__name__, detail=str(exc))
    if t.enabled:
        t.count(f"kernel.dispatch.{solver}.dict")
    return dict_solve()


def solve_all_delays_auto(
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
    """Kernel-dispatched :func:`~repro.sim.compiled.solve_all_delays`
    (see :func:`_solve_auto`)."""
    return _solve_auto(
        "delays",
        len(sweep_choices(max_delay, delayed_sides)),
        lambda: solve_all_delays_kernel(
            tree, prototype, start1, start2, max_delay=max_delay,
            delayed_sides=delayed_sides, max_configs=max_configs,
            prototype2=prototype2,
        ),
        lambda: solve_all_delays(
            tree, prototype, start1, start2, max_delay=max_delay,
            delayed_sides=delayed_sides, max_configs=max_configs,
            prototype2=prototype2, faults=faults,
        ),
        faults=faults,
    )


def solve_gathering_auto(
    tree: Tree,
    prototype: Automaton,
    starts: Sequence[int],
    delay_vectors: Sequence[Sequence[int]],
    *,
    max_configs: int = 4_000_000,
    prototypes: Optional[Sequence[Automaton]] = None,
    faults=None,
) -> list[GatheringVerdict]:
    """Kernel-dispatched
    :func:`~repro.sim.gathering_solver.solve_gathering` (see
    :func:`_solve_auto`)."""
    return _solve_auto(
        "gathering",
        len(delay_vectors),
        lambda: solve_gathering_kernel(
            tree, prototype, starts, delay_vectors,
            max_configs=max_configs, prototypes=prototypes,
        ),
        lambda: solve_gathering(
            tree, prototype, starts, delay_vectors,
            max_configs=max_configs, prototypes=prototypes, faults=faults,
        ),
        faults=faults,
    )
