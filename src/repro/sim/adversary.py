"""Adversarial sweeps: labelings × start pairs × delays against one agent.

Definition 1.1 quantifies over *every* port labeling; the adversary also
controls the delay.  This module provides the exhaustive/randomized sweeps
the tests and experiments use to attack an agent, and the bookkeeping to
report which instances defeated it.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator
from typing import NamedTuple, Optional

from ..agents.observations import AgentBase
from ..errors import SimulationError
from ..records import Record
from ..trees.automorphism import perfectly_symmetrizable
from ..trees.labelings import all_labelings, random_relabel
from ..trees.tree import Tree
from .batch import BatchJob, derive_seed
from .compiled import run_rendezvous_fast
from .engine import RendezvousOutcome
from .supervise import JobFailure, run_batch_supervised

__all__ = [
    "all_start_pairs",
    "feasible_start_pairs",
    "FailedInstance",
    "AdversaryReport",
    "adversarial_search",
    "labelings_for",
]


def all_start_pairs(tree: Tree) -> Iterator[tuple[int, int]]:
    """All unordered pairs of distinct nodes."""
    return itertools.combinations(range(tree.n), 2)


def feasible_start_pairs(tree: Tree) -> Iterator[tuple[int, int]]:
    """Pairs from which rendezvous is solvable (not perfectly symmetrizable)."""
    for u, v in all_start_pairs(tree):
        if not perfectly_symmetrizable(tree, u, v):
            yield (u, v)


def labelings_for(
    tree: Tree,
    *,
    exhaustive_limit: int = 5000,
    samples: int = 24,
    rng: Optional[random.Random] = None,
) -> list[Tree]:
    """A labeling battery: exhaustive when small, random samples otherwise."""
    from ..trees.labelings import count_labelings

    if count_labelings(tree) <= exhaustive_limit:
        return list(all_labelings(tree))
    rng = rng or random.Random(0)
    out = [tree]
    out.extend(random_relabel(tree, rng) for _ in range(samples - 1))
    return out


class FailedInstance(NamedTuple):
    """One instance on which the agent failed to rendezvous."""

    tree: Tree
    start1: int
    start2: int
    delay: int
    delayed: int
    outcome: RendezvousOutcome


class AdversaryReport(Record):
    """Aggregate result of an adversarial sweep."""

    __slots__ = (
        "instances_run", "successes", "failures", "undecided",
        "max_meeting_round",
    )

    def __init__(
        self,
        instances_run: int = 0,
        successes: int = 0,
        failures: Optional[list[FailedInstance]] = None,
        undecided: int = 0,
        max_meeting_round: int = 0,
    ) -> None:
        self.instances_run = instances_run
        self.successes = successes
        self.failures = [] if failures is None else failures
        self.undecided = undecided
        self.max_meeting_round = max_meeting_round

    @property
    def all_succeeded(self) -> bool:
        return not self.failures and self.undecided == 0

    def record(self, inst: FailedInstance) -> None:
        self.instances_run += 1
        if inst.outcome.met:
            self.successes += 1
            self.max_meeting_round = max(
                self.max_meeting_round, inst.outcome.meeting_round or 0
            )
        else:
            self.failures.append(inst)
            if inst.outcome.undecided:
                self.undecided += 1


def adversarial_search(
    tree: Tree,
    prototype: AgentBase,
    *,
    pairs: Optional[Iterable[tuple[int, int]]] = None,
    labelings: Optional[Iterable[Tree]] = None,
    delays: Iterable[int] = (0,),
    max_rounds: int = 200_000,
    certify: bool = False,
    stop_at_first_failure: bool = False,
    processes: Optional[int] = None,
    seed: Optional[int] = None,
) -> AdversaryReport:
    """Attack ``prototype`` with every (labeling, start pair, delay) combo.

    ``pairs`` defaults to the feasible (non perfectly symmetrizable) pairs of
    the *topology* — perfect symmetrizability is labeling-independent, so the
    same pair list applies to every relabeling.

    Finite-state prototypes run on the compiled backend automatically.
    ``processes`` > 1 fans the sweep out over the supervised process pool
    (:mod:`repro.sim.supervise`); it is ignored when
    ``stop_at_first_failure`` is set, since early exit needs sequential
    results anyway.  Pooled outcomes carry no trace and no agents, and a
    job that fails in the pool raises :class:`~repro.errors.
    SimulationError` naming every failed slot.

    ``seed`` (optional) derives one per-instance RNG seed
    (:func:`repro.sim.batch.derive_seed`) and threads it through the
    workers, so sweeps over randomness-consuming agents are reproducible
    regardless of process count or scheduling.
    """
    report = AdversaryReport()
    pair_list = list(pairs) if pairs is not None else list(feasible_start_pairs(tree))
    labeled = list(labelings) if labelings is not None else labelings_for(tree)
    grid = [
        (labeled_tree, u, v, delay, delayed)
        for labeled_tree in labeled
        for u, v in pair_list
        for delay in delays
        for delayed in ((2,) if delay == 0 else (1, 2))
    ]
    job_seed = (
        (lambda idx: derive_seed(seed, idx)) if seed is not None else (lambda idx: None)
    )
    if processes is not None and processes > 1 and not stop_at_first_failure:
        jobs = [
            BatchJob(t, prototype, u, v, delay=d, delayed=side,
                     max_rounds=max_rounds, certify=certify, seed=job_seed(idx))
            for idx, (t, u, v, d, side) in enumerate(grid)
        ]
        outcomes = run_batch_supervised(jobs, processes=processes)
        failures = [o for o in outcomes if isinstance(o, JobFailure)]
        if failures:
            raise SimulationError(JobFailure.summarize(failures))
        for (t, u, v, d, side), outcome in zip(grid, outcomes):
            report.record(FailedInstance(t, u, v, d, side, outcome))
        return report
    # seeded serial runs must not leak deterministic state to the caller
    saved_state = random.getstate() if seed is not None else None
    try:
        for idx, (t, u, v, d, side) in enumerate(grid):
            if seed is not None:
                random.seed(job_seed(idx))
            outcome = run_rendezvous_fast(
                t, prototype, u, v,
                delay=d, delayed=side, max_rounds=max_rounds, certify=certify,
            )
            report.record(FailedInstance(t, u, v, d, side, outcome))
            if stop_at_first_failure and report.failures:
                return report
        return report
    finally:
        if saved_state is not None:
            random.setstate(saved_state)
