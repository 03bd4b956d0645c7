"""Time vs memory trade-offs (the follow-up direction the paper cites [15]).

The Theorem 4.1 agent has two tunable knobs:

- ``reps_factor`` — the constant in the ``5ℓ`` repetitions of the
  rendezvous path P (a *space-free* time knob: longer P, longer prime
  traversals);
- ``max_outer`` — how many primes the agent is prepared to try (its prime
  registers cost O(log log ·) bits and its worst-case time grows with every
  extra prime).

These sweeps measure worst-case meeting rounds across a stress family as
the knobs move, exposing the time/memory trade-off curve the paper's
successor work studies.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from ..core.algorithm import rendezvous_agent
from ..records import TupleRecord, tuple_new
from ..sim.compiled import run_rendezvous_fast
from ..trees.automorphism import perfectly_symmetrizable
from ..trees.builders import line
from ..trees.labelings import random_relabel
from ..trees.tree import Tree

__all__ = ["TradeoffRow", "reps_factor_tradeoff", "stress_instances"]


class TradeoffRow(TupleRecord):
    """Aggregate meeting statistics for one knob setting."""

    __slots__ = ()

    def __new__(
        cls,
        knob: int,
        runs: int,
        met: int,
        worst_round: int,
        mean_round: float,
    ):
        return tuple_new(cls, (knob, runs, met, worst_round, mean_round))

    @property
    def success_rate(self) -> float:
        return self.met / self.runs if self.runs else 0.0


def stress_instances(
    sizes: Sequence[int] = (9, 13, 17),
    pairs_per_tree: int = 3,
    seed: int = 9,
) -> list[tuple[Tree, int, int]]:
    """Feasible line instances whose symmetric contraction forces the full
    Stage-2 machinery (lines are the stress family: T' is always symmetric)."""
    rng = random.Random(seed)
    out = []
    for m in sizes:
        tree = random_relabel(line(m), rng)
        found = 0
        for u in range(tree.n):
            for v in range(u + 1, tree.n):
                if found >= pairs_per_tree:
                    break
                if perfectly_symmetrizable(tree, u, v):
                    continue
                out.append((tree, u, v))
                found += 1
    return out


def reps_factor_tradeoff(
    factors: Sequence[int] = (1, 2, 5, 8),
    instances: Sequence[tuple[Tree, int, int]] | None = None,
    max_rounds: int = 3_000_000,
    max_outer: int = 10,
) -> list[TradeoffRow]:
    """Worst/mean meeting rounds as the P-repetition factor varies."""
    pool = list(instances) if instances is not None else stress_instances()
    rows = []
    for factor in factors:
        met = 0
        worst = 0
        total = 0
        for tree, u, v in pool:
            out = run_rendezvous_fast(
                tree,
                rendezvous_agent(reps_factor=factor, max_outer=max_outer),
                u,
                v,
                max_rounds=max_rounds,
            )
            if out.met:
                met += 1
                worst = max(worst, out.meeting_round or 0)
                total += out.meeting_round or 0
        rows.append(
            TradeoffRow(
                knob=factor,
                runs=len(pool),
                met=met,
                worst_round=worst,
                mean_round=total / met if met else float("inf"),
            )
        )
    return rows
