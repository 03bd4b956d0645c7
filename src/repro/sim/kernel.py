"""The vectorized sweep kernel: whole frontiers per step, not configs.

The exact solvers (:func:`repro.sim.compiled.solve_all_delays`,
:func:`repro.sim.gathering_solver.solve_gathering`) walk the product
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
owns the (θ, side) format), yet it keeps its own kernel entry, :func:`solve_delay_grid_kernel`: it
batches one solo prefix per side across every θ and pair, where the
gathering kernel replays a staggered prefix per vector (the
success-families benchmark in ``BENCH_engine.json`` gates that speed).
Verdict parity — against the dict solvers and against the gathering
grid over the k=2 vectors — is asserted by
``tests/properties/test_kernel_parity.py``.
"""

from __future__ import annotations

import hashlib
import os
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from ..agents.automaton import Automaton
from ..agents.observations import STAY
from ..errors import BudgetExceededError, SimulationError
from ..telemetry import current as _telemetry
from ..trees.tree import Tree
from .compiled import _INVALID, _check_delay_args, compile_agent, solve_all_delays
from .delays import DelayVerdict, met_at_start, sweep_choices
from .gathering_solver import GatheringVerdict, _check_grid, solve_gathering
from .numpy_probe import load_numpy, numpy_importable

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

_ENV_DISABLE = "REPRO_KERNEL"
_ENV_CACHE = "REPRO_KERNEL_CACHE"

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


@dataclass(frozen=True, slots=True)
class PairVerdict:
    """Delay-0 fate of one start pair from a batched pairs decision.

    ``met``/``meeting_round`` follow the engines' parity contract; a
    budget-bound lane comes back with neither ``met`` nor
    ``certified_never`` set (undecided — never proof).
    """

    met: bool
    meeting_round: Optional[int]
    certified_never: bool = False


def kernel_available() -> bool:
    """Is the vectorized kernel usable here (not disabled via
    ``REPRO_KERNEL=0``, numpy importable)?  Imports numpy on the first
    call unless the kill switch is set."""
    return os.environ.get(_ENV_DISABLE, "") != "0" and load_numpy() is not None


def kernel_enabled() -> bool:
    """:func:`kernel_available`, answered without importing numpy (the
    provenance question: could the kernel have run in this process?)."""
    return os.environ.get(_ENV_DISABLE, "") != "0" and numpy_importable()


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


def kernel_cache_dir() -> Optional[Path]:
    """Directory of the on-disk table cache (``REPRO_KERNEL_CACHE``),
    or ``None`` when persistence is disabled (the default — the
    in-process memo still applies)."""
    path = os.environ.get(_ENV_CACHE)
    return Path(path) if path else None


def _quarantine(path: Path) -> None:
    """Move a bad cache file aside (never delete evidence, never crash
    the sweep) — mirrors ``ResultStore``'s corrupt-file handling."""
    t = _telemetry()
    if t.enabled:
        t.count("kernel.table.quarantine")
        t.event("kernel.table.quarantine", path=str(path))
    try:
        os.replace(path, path.with_name(path.name + ".corrupt"))
    except OSError:  # pragma: no cover - racing cleaners are fine
        pass


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
    """Atomic best-effort persist: tmp file + ``os.replace``."""
    _np = load_numpy()
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            _np.save(fh, succ)
        os.replace(tmp, path)
    except OSError:  # pragma: no cover - cache is an optimization only
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
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
    stride, deg, move_to, move_in = tree.flat_move_tables()
    width = stride + 1
    s0 = compiled.initial_state
    ids = []
    for v in range(tree.n):
        a = compiled.start_action[deg[v]]
        if a == STAY:
            pos, ip = v, 0
        else:
            base = v * stride + a
            pos, ip = move_to[base], move_in[base] + 1
        ids.append((s0 * tree.n + pos) * width + ip)
    return _np.asarray(ids, dtype=_np.int64)


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
# Delay sweeps
# ----------------------------------------------------------------------


def _solo_batch(table: AgentTable, runner_starts, sleeper_starts, max_delay: int):
    """Batched runner solo prefixes in id space — the dict solver's
    prefix (with its early break) for many walks per numpy gather.

    ``rows[t][w]`` is walk ``w``'s runner id after round ``t + 1``;
    ``first_hit[w]`` is the first round the runner steps onto its
    sleeper's start node (0 = no hit within ``max_delay``).  A walk
    freezes once its hit is found, so — exactly like the scalar prefix —
    an invalid successor only raises when some walk genuinely still
    needs that step.
    """
    _np = load_numpy()
    succ = table.succ
    n, width = table.n, table.width
    starts = _np.asarray(runner_starts, dtype=_np.int64)
    sleep = _np.asarray(sleeper_starts, dtype=_np.int64)
    if starts.size <= 4:  # numpy per-op overhead dwarfs tiny batches
        return _solo_batch_scalar(table, starts, sleep, max_delay)
    cur = table.start_ids[starts].astype(_np.int64)
    fh = _np.where((cur // width) % n == sleep, 1, 0)
    rows = [cur]
    for t in range(2, max_delay + 2):
        active = fh == 0
        if not active.any():
            break
        nxt = succ[cur[active]]
        if (nxt < 0).any():
            raise KernelUnsupported(
                "solo prefix reached an invalid transition entry"
            )
        cur = cur.copy()
        cur[active] = nxt
        if t <= max_delay:
            hit = active & ((cur // width) % n == sleep)
            fh[hit] = t
        rows.append(cur)
    while len(rows) < max_delay + 1:  # frozen tail, never read past first_hit
        rows.append(rows[-1])
    return _np.stack(rows), fh


def _solo_batch_scalar(table: AgentTable, starts, sleep, max_delay: int):
    """Per-walk scalar prefixes (same semantics as the batched pass);
    long single-pair sweeps step one int at a time instead of paying
    numpy dispatch on one-element arrays every round."""
    _np = load_numpy()
    succ = table.succ
    n, width = table.n, table.width
    mat = _np.empty((max_delay + 1, starts.size), dtype=_np.int64)
    fh = _np.zeros(starts.size, dtype=_np.int64)
    for w in range(starts.size):
        sid = int(table.start_ids[starts[w]])
        target = int(sleep[w])
        ids = [sid]
        first_hit = 1 if (sid // width) % n == target else 0
        t = 1
        while t < (first_hit or max_delay + 1):
            nxt = int(succ[ids[-1]])
            if nxt < 0:
                raise KernelUnsupported(
                    "solo prefix reached an invalid transition entry"
                )
            t += 1
            ids.append(nxt)
            if not first_hit and t <= max_delay and (nxt // width) % n == target:
                first_hit = t
        fh[w] = first_hit
        mat[:len(ids), w] = ids
        mat[len(ids):, w] = ids[-1]  # frozen tail, never read past first_hit
    return mat, fh


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
    verdict list per input pair.  Every undecided (pair, θ, side) lane
    advances in the same vectorized step — this is the shape the
    ``success-families`` grid benchmark measures.  ``max_configs`` is
    granted per pair (the grid call may spend ``max_configs *
    len(pairs)`` lane-steps total), matching a per-pair dict-solver
    loop's aggregate budget.
    """
    _np = _require_kernel()
    choices = sweep_choices(max_delay, delayed_sides)
    _check_delay_args(tree, prototype, prototype2, pairs)

    t1 = agent_table(prototype, tree)
    t2 = t1 if prototype2 is None else agent_table(prototype2, tree)

    live = [i for i, (a, b) in enumerate(pairs) if a != b]
    num_live = len(live)
    if num_live == 0:
        return [met_at_start(choices) for _ in pairs]
    s1 = _np.asarray([pairs[i][0] for i in live], dtype=_np.int64)
    s2 = _np.asarray([pairs[i][1] for i in live], dtype=_np.int64)

    # One batched solo-prefix pass per delayed side; each side's block
    # holds its walks' verdict slots in (walk, θ) order — lanes where
    # the joint fate is still open, short-circuit cells (θ >= first_hit
    # meets at round first_hit) prefilled.
    lane_ids1, lane_ids2 = [], []
    block_meta = []  # (side, lo, met_block, round_block, lane_scatter...)
    for side in dict.fromkeys(s for _t, s in choices):
        lo = 0 if (0, side) == choices[0] else 1
        width_cols = max_delay + 1 - lo
        if width_cols <= 0:
            continue
        runner_t, sleeper_t = (t1, t2) if side == 2 else (t2, t1)
        runner_starts = s1 if side == 2 else s2
        sleeper_starts = s2 if side == 2 else s1
        rows, fh = _solo_batch(runner_t, runner_starts, sleeper_starts, max_delay)
        sleeper_entry = sleeper_t.start_ids[sleeper_starts].astype(_np.int64)

        hi = _np.where(fh > 0, fh - 1, max_delay)
        counts = _np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        walk = _np.repeat(_np.arange(num_live, dtype=_np.int64), counts)
        offs = _np.cumsum(counts) - counts
        theta = _np.arange(total, dtype=_np.int64) - offs[walk] + lo
        runner_ids = rows[theta, walk]
        sleeper_ids = sleeper_entry[walk]
        lane_ids1.append(runner_ids if side == 2 else sleeper_ids)
        lane_ids2.append(sleeper_ids if side == 2 else runner_ids)

        met_blk = _np.ones((num_live, width_cols), dtype=bool)
        round_blk = _np.repeat(fh[:, None], width_cols, axis=1)
        block_meta.append((side, lo, met_blk, round_blk,
                           walk * width_cols + (theta - lo), theta))

    met, dist, _und = _joint_fates(
        (t1, t2),
        (_np.concatenate(lane_ids1), _np.concatenate(lane_ids2)),
        max_configs=max_configs * max(1, len(pairs)),
    )

    # Scatter lane fates into the blocks, stitch blocks into the dict
    # solver's θ-major output order, and materialize verdicts in bulk.
    pos = 0
    for _side, _lo, met_blk, round_blk, scatter, theta in block_meta:
        m = met[pos:pos + len(scatter)]
        d = dist[pos:pos + len(scatter)]
        pos += len(scatter)
        met_blk.flat[scatter] = m
        round_blk.flat[scatter] = _np.where(m, theta + 1 + d, -1)

    met_cat = _np.concatenate([b[2] for b in block_meta], axis=1)
    round_cat = _np.concatenate([b[3] for b in block_meta], axis=1)
    col_of = {}
    off = 0
    for side, lo, met_blk, _r, _s, _t in block_meta:
        for th in range(lo, max_delay + 1):
            col_of[(th, side)] = off + (th - lo)
        off += met_blk.shape[1]
    perm = _np.asarray([col_of[k] for k in choices], dtype=_np.int64)
    met_flat = met_cat[:, perm].ravel().tolist()
    round_flat = round_cat[:, perm].ravel().tolist()

    keys_tiled = choices * num_live
    verdicts = [
        DelayVerdict(th, sd, m, mr if m else None, not m)
        for (th, sd), m, mr in zip(keys_tiled, met_flat, round_flat)
    ]

    stride = len(choices)
    by_live = {
        p_idx: verdicts[q * stride:(q + 1) * stride]
        for q, p_idx in enumerate(live)
    }
    return [
        by_live.get(p_idx) or met_at_start(choices)
        for p_idx in range(len(pairs))
    ]


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
# Gathering grids
# ----------------------------------------------------------------------


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

    Staggered prefixes (agents still waking up) replay in id space per
    vector; the fully-started entry configurations are deduplicated and
    resolved in one k-agent frontier.
    """
    _require_kernel()
    starts, protos, vectors = _check_grid(
        tree, prototype, starts, delay_vectors, prototypes
    )
    k = len(starts)
    tables = [agent_table(p, tree) for p in protos]
    n = tree.n

    # Entry dedup: grids share entry configurations heavily (the dict
    # solver's memo exploits the same structure).
    entry_lane: dict[tuple[int, ...], int] = {}
    entry_cols: list[list[int]] = [[] for _ in range(k)]
    # per vector: ("done", verdict) or ("lane", lane_index, first_joint)
    plan: list[tuple] = []

    for delays in vectors:
        key = tuple(delays)
        if len(set(starts)) == 1:
            plan.append(("done", GatheringVerdict(key, True, 0, False)))
            continue
        first_joint = max(delays) + 1
        ids = [0] * k
        started = [False] * k
        pos = list(starts)
        gathered_at: Optional[int] = None
        for rnd in range(1, first_joint + 1):
            for i in range(k):
                if started[i]:
                    nxt = int(tables[i].succ[ids[i]])
                    if nxt < 0:
                        raise KernelUnsupported(
                            "prefix reached an invalid transition entry"
                        )
                    ids[i] = nxt
                    pos[i] = (nxt // tables[i].width) % n
                elif rnd > delays[i]:
                    started[i] = True
                    ids[i] = int(tables[i].start_ids[pos[i]])
                    pos[i] = (ids[i] // tables[i].width) % n
            if all(p == pos[0] for p in pos):
                gathered_at = rnd
                break
        if gathered_at is not None:
            plan.append(("done", GatheringVerdict(key, True, gathered_at, False)))
            continue
        entry = tuple(ids)
        lane = entry_lane.get(entry)
        if lane is None:
            lane = len(entry_cols[0])
            entry_lane[entry] = lane
            for i in range(k):
                entry_cols[i].append(entry[i])
        plan.append(("lane", lane, first_joint, key))

    met, dist, _und = _joint_fates(
        tables, entry_cols, max_configs=max_configs
    )

    out: list[GatheringVerdict] = []
    for item in plan:
        if item[0] == "done":
            out.append(item[1])
            continue
        _tag, lane, first_joint, key = item
        if met[lane]:
            out.append(GatheringVerdict(key, True, first_joint + int(dist[lane]), False))
        else:
            out.append(GatheringVerdict(key, False, None, True))
    return out


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
