"""Exhaustive verification drivers: Theorem 4.1 and Fact 1.1 at small n.

These sweep *every* non-isomorphic tree up to a size bound:

- :func:`verify_theorem_41`: on every feasible (non perfectly
  symmetrizable) pair, under canonical + sampled random labelings, the
  Theorem 4.1 agent must meet;
- :func:`verify_fact_11_impossibility`: on every perfectly symmetrizable
  pair there is a labeling making the positions symmetric; under that
  labeling a port-preserving automorphism ``f`` carries one start to the
  other, so two identical agents started together see the same
  observations forever and agent 2 always sits at ``f`` of agent 1's
  node.  ``f`` fixes no node, so they never meet.  Each run asks for
  ``certify=True``, and every engine tier turns that argument into a
  :class:`~repro.sim.certificates.SymmetryCertificate` before round 1;
  an instance counts as a failure unless it comes back certified-never.

Both functions return structured reports; the test-suite asserts their
verdicts, and the CLI exposes them for users who want to re-run the
exhaustive check at larger sizes.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.rendezvous import solve
from ..records import Record
from ..sim.compiled import run_rendezvous_fast
from ..trees.automorphism import (
    are_symmetric_for_labeling,
    perfectly_symmetrizable,
)
from ..trees.builders import all_trees
from ..trees.labelings import random_relabel

__all__ = ["ExhaustiveReport", "verify_theorem_41", "verify_fact_11_impossibility"]


class ExhaustiveReport(Record):
    """Aggregate verdict of an exhaustive sweep."""

    __slots__ = ("trees_checked", "instances", "failures")

    def __init__(
        self,
        trees_checked: int = 0,
        instances: int = 0,
        failures: Optional[list[tuple]] = None,
    ) -> None:
        self.trees_checked = trees_checked
        self.instances = instances
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_theorem_41(
    max_n: int = 7,
    random_labelings: int = 2,
    seed: int = 0,
    max_outer: int = 10,
    engine=None,
    pairs_engine=None,
) -> ExhaustiveReport:
    """Every feasible pair of every tree up to ``max_n`` nodes must meet.

    ``engine`` routes the runs through a scenario backend.  One shared
    prototype serves the whole sweep (engines clone per run), which is
    what lets a lowering backend's trace cache decide every pair of a
    labeled tree from at most ``n`` interpreted solo runs — the step
    that makes ``verify-small`` scale past n = 8.  ``pairs_engine`` (a
    ``Backend.run_pairs``) decides each labeled tree's whole feasible
    batch in one call instead — same instances, same per-run round
    budget, same failure rows.
    """
    from ..core.algorithm import rendezvous_agent
    from ..core.rendezvous import estimate_round_budget

    rng = random.Random(seed)
    prototype = rendezvous_agent(max_outer=max_outer)
    report = ExhaustiveReport()
    for n in range(2, max_n + 1):
        for tree in all_trees(n):
            report.trees_checked += 1
            labelings = [tree] + [
                random_relabel(tree, rng) for _ in range(random_labelings)
            ]
            for labeled in labelings:
                feasible = [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if not perfectly_symmetrizable(labeled, u, v)
                ]
                report.instances += len(feasible)
                if pairs_engine is not None:
                    budget = estimate_round_budget(labeled, max_outer)
                    verdicts = pairs_engine(
                        labeled, prototype, feasible, max_rounds=budget
                    )
                    for (u, v), verdict in zip(feasible, verdicts):
                        if not verdict.met:
                            report.failures.append((n, u, v, labeled))
                    continue
                for u, v in feasible:
                    result = solve(
                        labeled, u, v, max_outer=max_outer,
                        agent=prototype, engine=engine,
                    )
                    if not result.met:
                        report.failures.append((n, u, v, labeled))
    return report


def verify_fact_11_impossibility(
    max_n: int = 7,
    budget_rounds: int = 60_000,
    max_outer: int = 6,
    engine=None,
) -> ExhaustiveReport:
    """For every perfectly symmetrizable pair, find a witnessing symmetric
    labeling and certify that the Theorem 4.1 agents never meet on it.

    The witnessing labeling is found by exhausting labelings on small trees
    (perfect symmetrizability guarantees one exists); symmetry with respect
    to the labeling is re-checked before the run.  ``budget_rounds`` only
    matters to an engine that cannot certify symmetry.
    """
    from ..core.algorithm import rendezvous_agent
    from ..trees.labelings import all_labelings

    run = engine if engine is not None else run_rendezvous_fast
    prototype = rendezvous_agent(max_outer=max_outer)
    report = ExhaustiveReport()
    for n in range(2, max_n + 1):
        for tree in all_trees(n):
            report.trees_checked += 1
            pairs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if perfectly_symmetrizable(tree, u, v)
            ]
            if not pairs:
                continue
            remaining = set(pairs)
            for labeled in all_labelings(tree, limit=3000):
                hit = [p for p in remaining if are_symmetric_for_labeling(labeled, *p)]
                for u, v in hit:
                    remaining.discard((u, v))
                    report.instances += 1
                    out = run(
                        labeled,
                        prototype,
                        u,
                        v,
                        max_rounds=budget_rounds,
                        certify=True,
                    )
                    if not out.certified_never:
                        report.failures.append((n, u, v, labeled))
                if not remaining:
                    break
            if remaining:  # pragma: no cover - Def 1.2 guarantees a witness
                report.failures.append(("no witnessing labeling", tree, remaining))
    return report
