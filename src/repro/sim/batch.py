"""Job descriptions for simulation sweeps.

The adversarial sweeps (labelings × start pairs × delays) and the
gathering grids (start sets × per-agent delay vectors) are
embarrassingly parallel: every run is independent and the inputs are
small.  A :class:`BatchJob` / :class:`GatheringJob` describes one such
run as plain picklable data; :func:`_run_job` / :func:`_run_gathering_job`
execute it through the fast backend dispatch
(:func:`repro.sim.compiled.run_rendezvous_fast` /
:func:`repro.sim.multi.run_gathering`).  The process pool that fans
lists of jobs out lives in :mod:`repro.sim.supervise`.

Explicit automata are picklable (:class:`~repro.agents.automaton.
LineAutomaton` implements ``__reduce__`` for its internal closure);
register programs generally are not until they are started, but their
factories may hold lambdas — the pool runs such batches in-process.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, NamedTuple, Optional, TypeVar

from ..agents.observations import AgentBase
from ..trees.tree import Tree
from .compiled import run_rendezvous_fast
from .engine import RendezvousOutcome
from .multi import GatheringOutcome, run_gathering

__all__ = [
    "BatchJob",
    "GatheringJob",
    "derive_seed",
]

_O = TypeVar("_O")


def derive_seed(master: int, *parts: object) -> int:
    """A stable 64-bit seed derived from a master seed and a job identity.

    Used to thread one scenario-level ``seed`` through batch workers: the
    derived seed depends only on ``(master, parts)``, never on which
    process (or in what order) the job runs, so multiprocess sweeps are
    bit-reproducible against serial ones.
    """
    blob = repr((int(master), parts)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class BatchJob(NamedTuple):
    """One independent rendezvous run.

    ``seed`` (optional) re-seeds the worker's global :mod:`random` state
    right before the run, so agents that consult module-level randomness
    behave identically whether the job runs serially or in a pool worker
    with inherited RNG state.

    ``faults`` (optional) is a :class:`~repro.sim.faults.FaultPlan`
    executed by the run; it is only forwarded when set, so fault-free
    jobs keep working against runners without a ``faults`` parameter.
    """

    tree: Tree
    prototype: AgentBase
    start1: int
    start2: int
    delay: int = 0
    delayed: int = 2
    max_rounds: int = 1_000_000
    certify: bool = False
    seed: Optional[int] = None
    faults: Optional[object] = None

    def apply(self, run: Callable[..., _O]) -> _O:
        """Invoke a ``run_rendezvous``-shaped callable on this job — the
        one place the job→kwargs expansion lives (the pool worker and
        ``Backend.run_many`` both route through it)."""
        kwargs = dict(
            delay=self.delay,
            delayed=self.delayed,
            max_rounds=self.max_rounds,
            certify=self.certify,
        )
        if self.faults is not None:
            kwargs["faults"] = self.faults
        return run(
            self.tree,
            self.prototype,
            self.start1,
            self.start2,
            **kwargs,
        )


class GatheringJob(NamedTuple):
    """One independent k-agent gathering run (``BatchJob``'s k-agent twin).

    ``delays`` aligns with ``starts`` (``None`` means all zero); ``seed``
    and ``faults`` behave exactly as on :class:`BatchJob`.
    """

    tree: Tree
    prototype: AgentBase
    starts: tuple[int, ...]
    delays: Optional[tuple[int, ...]] = None
    max_rounds: int = 1_000_000
    certify: bool = False
    seed: Optional[int] = None
    faults: Optional[object] = None

    def apply(self, run: Callable[..., _O]) -> _O:
        """Invoke a ``run_gathering``-shaped callable on this job (see
        :meth:`BatchJob.apply`)."""
        kwargs = dict(
            delays=list(self.delays) if self.delays is not None else None,
            max_rounds=self.max_rounds,
            certify=self.certify,
        )
        if self.faults is not None:
            kwargs["faults"] = self.faults
        return run(
            self.tree,
            self.prototype,
            list(self.starts),
            **kwargs,
        )


def _run_job(job: BatchJob) -> RendezvousOutcome:
    if job.seed is not None:
        random.seed(job.seed)
    return job.apply(run_rendezvous_fast)


def _run_gathering_job(job: GatheringJob) -> GatheringOutcome:
    if job.seed is not None:
        random.seed(job.seed)
    return job.apply(run_gathering)
