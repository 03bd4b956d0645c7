"""Parameter sweeps behind the registry's experiment scenarios.

Each function runs a deterministic sweep; the scenario executors
(:mod:`repro.scenarios.executors`) turn its points into rows, and
``repro report --full`` prints the tables.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from ..agents.automaton import LineAutomaton
from ..core.prime_walk import prime_line_agent
from ..core.rendezvous import solve
from ..lowerbounds.loglog_line import build_thm42_instance
from ..records import TupleRecord, tuple_new
from ..sim.compiled import run_rendezvous_fast
from ..trees.automorphism import perfectly_symmetrizable
from ..trees.builders import complete_binary_tree, double_broom, line, subdivide
from ..trees.labelings import random_relabel
from ..trees.tree import Tree
from .stats import Series

__all__ = [
    "SweepPoint",
    "memory_vs_n_fixed_leaves",
    "memory_vs_leaves",
    "prime_rounds_vs_path_length",
    "thm42_size_vs_bits",
    "success_sweep",
]


class SweepPoint(TupleRecord):
    """One measured instance in a sweep."""

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        leaves: int,
        met: bool,
        meeting_round: int,
        bits_declared: int,
        bits_used: int,
    ):
        return tuple_new(cls, (n, leaves, met, meeting_round, bits_declared, bits_used))


def _solve_point(
    tree: Tree,
    u: int,
    v: int,
    max_outer: int = 10,
    canonical: Tree | None = None,
    engine=None,
    agent=None,
) -> SweepPoint:
    """Run the rendezvous AND measure the agent's solo memory requirement.

    A lucky early meeting can end the joint run before the agent declares
    its counters, so memory is measured on a solo execution spanning
    Stage 1 + Synchro + two outer iterations (core.memory.measure_memory)
    — deliberately *not* through ``engine``: the memory account is
    instrumentation of the interpreted program and is identical on every
    backend (an agent's solo trajectory never depends on its partner).

    ``engine`` routes the joint run through a scenario backend;
    ``agent`` shares one prototype across points so a lowering backend's
    trace cache can reuse per-(tree, start) work (engines clone the
    prototype per run, so sharing is safe on every backend).
    """
    from ..core.algorithm import rendezvous_agent
    from ..core.memory import measure_memory
    from ..core.rendezvous import estimate_round_budget

    result = solve(tree, u, v, max_outer=max_outer, engine=engine, agent=agent)
    # Measure on the canonical labeling: its contraction is symmetric for
    # the sweep families, so every row exercises the FULL algorithm (random
    # labelings can fall into the cheap asymmetric path and make rows
    # incomparable).
    report = measure_memory(
        canonical if canonical is not None else tree,
        u,
        rendezvous_agent(max_outer=2),
        estimate_round_budget(tree, 2),
    )
    return SweepPoint(
        n=tree.n,
        leaves=tree.num_leaves,
        met=result.met,
        meeting_round=result.outcome.meeting_round or -1,
        bits_declared=report.declared,
        bits_used=report.used,
    )


def memory_vs_n_fixed_leaves(
    subdivisions: Sequence[int] = (0, 1, 3, 7, 15, 31),
    seed: int = 7,
) -> tuple[Series, list[SweepPoint]]:
    """E3a: declared bits vs n at fixed ℓ (subdivided complete binary tree).

    The Thm 4.1 bound says this curve is O(log ℓ + log log n): flat in n up
    to the log log n prime counters.
    """
    rng = random.Random(seed)
    base = complete_binary_tree(2)  # ℓ = 4
    points = []
    for times in subdivisions:
        plain = subdivide(base, times)
        tree = random_relabel(plain, rng)
        points.append(_solve_point(tree, 3, 6, canonical=plain))
    return (
        Series(
            "bits_vs_n_fixed_ell",
            tuple(float(p.n) for p in points),
            tuple(float(p.bits_declared) for p in points),
        ),
        points,
    )


def memory_vs_leaves(
    leaf_counts: Sequence[int] = (2, 4, 8, 16, 32),
    total_nodes: int = 160,
    seed: int = 3,
) -> tuple[Series, list[SweepPoint]]:
    """E3b: declared bits vs ℓ at (roughly) fixed n — double brooms.

    The curve should grow like log ℓ.
    """
    rng = random.Random(seed)
    points = []
    for ell in leaf_counts:
        per_side = max(1, ell // 2)
        handle = max(3, total_nodes - 2 * per_side)
        if handle % 2 == 0:
            handle += 1  # odd handle => asymmetric halves stay reachable
        plain = double_broom(handle, per_side, per_side)
        tree = random_relabel(plain, rng)
        # Two bristles of the same (left) broom: never mirror images, so
        # the pair stays feasible.
        u = handle + 1
        v = handle + per_side
        if perfectly_symmetrizable(tree, u, v):  # pragma: no cover - safety
            v = handle + 2
        points.append(_solve_point(tree, u, v, canonical=plain))
    return (
        Series(
            "bits_vs_leaves",
            tuple(float(p.leaves) for p in points),
            tuple(float(p.bits_declared) for p in points),
        ),
        points,
    )


def prime_rounds_vs_path_length(
    lengths: Sequence[int] = (5, 9, 17, 33, 65),
) -> Series:
    """E4: rounds for the Lemma 4.1 protocol on growing odd paths
    (endpoint vs interior start: always feasible)."""
    rounds = []
    for m in lengths:
        out = run_rendezvous_fast(
            line(m), prime_line_agent(), 0, m // 2 + 1, max_rounds=5_000_000
        )
        if not out.met:  # pragma: no cover - Lemma 4.1 guarantees meeting
            raise AssertionError(f"prime protocol failed on m={m}")
        rounds.append(float(out.meeting_round))
    return Series("prime_rounds", tuple(float(m) for m in lengths), tuple(rounds))


def thm42_size_vs_bits(
    agents: Sequence[LineAutomaton] | None = None,
    seed: int = 11,
    count: int = 8,
    states: Sequence[int] = (2, 3, 4, 5),
) -> list[tuple[int, int, str, int]]:
    """E5: per-agent (bits, defeating edges, kind, gamma) rows."""
    from ..agents.automaton import random_line_automaton

    rng = random.Random(seed)
    pool: list[LineAutomaton] = list(agents) if agents else []
    if not pool:
        for k in states:
            for _ in range(max(1, count // len(states))):
                pool.append(random_line_automaton(k, rng))
    rows = []
    for agent in pool:
        inst = build_thm42_instance(agent)
        rows.append((agent.memory_bits, inst.line_edges, inst.kind, inst.gamma))
    return rows


def success_sweep(
    trees: Sequence[Tree],
    pairs_per_tree: int = 4,
    seed: int = 5,
    max_outer: int = 12,
    engine=None,
    pairs_engine=None,
) -> list[SweepPoint]:
    """E2: run the Thm 4.1 agent over feasible pairs of the given trees.

    ``engine`` (default :func:`repro.sim.run_rendezvous_fast`) routes the
    joint runs through a scenario backend; one shared prototype serves
    every point so a lowering backend can reuse traces across pairs of
    the same tree.  ``pairs_engine`` (a ``Backend.run_pairs``) instead
    decides each tree's whole pair batch in one call — same pair
    selection, same per-run round budget, same row fields; the memory
    columns stay solo-replay instrumentation either way.
    """
    from ..core.algorithm import rendezvous_agent
    from ..core.memory import measure_memory
    from ..core.rendezvous import estimate_round_budget

    rng = random.Random(seed)
    prototype = rendezvous_agent(max_outer=max_outer)
    points = []
    for tree in trees:
        selected: list[tuple[int, int]] = []
        attempts = 0
        while len(selected) < pairs_per_tree and attempts < 60 * pairs_per_tree:
            attempts += 1
            u, v = rng.randrange(tree.n), rng.randrange(tree.n)
            if u == v or perfectly_symmetrizable(tree, u, v):
                continue
            selected.append((u, v))
        if pairs_engine is None:
            points.extend(
                _solve_point(
                    tree, u, v, max_outer=max_outer,
                    engine=engine, agent=prototype,
                )
                for u, v in selected
            )
            continue
        budget = estimate_round_budget(tree, max_outer)
        verdicts = pairs_engine(tree, prototype, selected, max_rounds=budget)
        for (u, v), verdict in zip(selected, verdicts):
            report = measure_memory(
                tree, u, rendezvous_agent(max_outer=2),
                estimate_round_budget(tree, 2),
            )
            points.append(SweepPoint(
                n=tree.n,
                leaves=tree.num_leaves,
                met=verdict.met,
                meeting_round=verdict.meeting_round or -1,
                bits_declared=report.declared,
                bits_used=report.used,
            ))
    return points
