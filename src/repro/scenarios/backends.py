"""The formal simulation-backend protocol the scenario runner targets.

Every rendezvous or gathering run a scenario performs goes through a
:class:`Backend`:

- :class:`ReferenceBackend` — the readable oracle engines
  (:func:`repro.sim.engine.run_rendezvous`,
  :func:`repro.sim.multi.run_gathering_reference`), per-run ``seen``-set
  certification, per-choice sweeps;
- :class:`CompiledBackend` — flat-table execution for finite-state
  agents (:mod:`repro.sim.compiled` / :mod:`repro.sim.multi`), Brent
  certification, and the batched product-configuration-graph solvers for
  delay sweeps (:func:`repro.sim.compiled.solve_all_delays`) and
  gathering grids (:func:`repro.sim.gathering_solver.solve_gathering`) —
  dispatched through the vectorized frontier kernel
  (:mod:`repro.sim.kernel`) when it applies, with those dict solvers as
  the oracle fallback;
  register programs become compiled-backend citizens through *lowering*
  (:mod:`repro.sim.traced`): per-run execution replays shared solo
  traces, and the exact sweeps roll lassoed traces into per-(tree,
  start) automata for the product solvers;
- :class:`BatchedBackend` — the compiled dispatch fanned out over the
  supervised process pool (:mod:`repro.sim.supervise`) for
  independent-run grids;
- :class:`AutoBackend` — per-call selection via
  :func:`repro.sim.compiled.supports_compilation`: automata ride the
  compiled backend natively ("native"), register programs ride it
  through lowering ("lowerable") for sweeps and grids — single fresh
  runs stay on the reference engine, where interpreting the program
  once is already optimal and the outcome carries executed registers.

A delay sweep is the k=2 case of a gathering grid: delaying side 2 by
θ is the delay vector ``(0, θ)`` (:mod:`repro.sim.delays` owns the
(θ, side) choice format and validates ``sides``).  So both exact sweeps
go down one degrade ladder, :func:`_sweep_exact`: traced lowering →
fault lowering → exact solver → per-run.  Only the entry points on its
rungs differ: the delay ones are (θ, side) adapters over the gathering
solvers.

Lowering degrades, never crashes: a trace that finds no lasso within
its budget (or machine state the freezer cannot capture) raises
:class:`~repro.errors.BudgetExceededError` /
:class:`~repro.errors.LoweringError`, and the ladder catches both and
falls back to budgeted per-run execution whose unprovable choices come
back *undecided* — the same honest note a budget-bound reference sweep
produces, never fake proof, never an abort.

The protocol is the parity seam: ``scenarios run <name> --backend
compiled`` and ``--backend reference`` must produce identical outcome
tables.

Sweep budgets: ``sweep_delays`` / ``sweep_gathering`` accept
``max_rounds=None`` (the default), meaning "whatever the backend needs
to decide".  The reference path substitutes a generous per-run round
budget; the exact solvers need no round budget at all — they decide
every choice by construction.  An *explicit* ``max_rounds`` is never
silently dropped: the reference path uses it as the per-run round
budget, and the exact solvers honor it as their configuration-
exploration guard, degrading to budgeted per-run verdicts (undecided
where unprovable — never a crash, never fake proof) when the guard
trips.  A caller who bounds the sweep therefore gets a bounded sweep
with the same verdict semantics on every backend.
"""

from __future__ import annotations

import abc
import random
from typing import Optional, Sequence

from ..agents.lowering import lowered_for
from ..agents.observations import AgentBase
from ..errors import BudgetExceededError, LoweringError
from ..sim.batch import BatchJob, GatheringJob
from ..sim.compiled import (
    run_rendezvous_compiled,
    run_rendezvous_fast,
    supports_compilation,
)
from ..sim.delays import DelayVerdict, sweep_choices
from ..sim.engine import RendezvousOutcome, run_rendezvous
from ..sim.gathering_solver import GatheringVerdict
from ..sim.multi import (
    GatheringOutcome,
    run_gathering,
    run_gathering_compiled,
    run_gathering_reference,
)
from ..sim.kernel import (
    KernelUnsupported,
    PairVerdict,
    kernel_available,
    run_pairs_kernel,
    solve_all_delays_auto,
    solve_gathering_auto,
)
from ..sim.traced import (
    run_gathering_traced,
    run_pairs_traced,
    run_rendezvous_traced,
    sweep_delays_traced,
    sweep_gathering_traced,
)
from ..telemetry import current as _telemetry
from ..trees.tree import Tree
from .spec import ScenarioError

__all__ = [
    "Backend",
    "ReferenceBackend",
    "CompiledBackend",
    "BatchedBackend",
    "AutoBackend",
    "select_backend",
]

_SWEEP_BUDGET = 500_000


def _note_dispatch(method: str, tier: str) -> None:
    """Record which execution tier a backend dispatch chose.

    Dispatch decisions were previously invisible: ``--backend auto``
    told you nothing about whether a sweep rode the kernel, the traced
    tier, or degraded to per-run execution.  One counter per
    (method, tier) makes the tier auditable after the fact.
    """
    t = _telemetry()
    if t.enabled:
        t.count(f"backend.dispatch.{method}.{tier}")


def _note_fallback(method: str, exc: BaseException) -> None:
    """Record a graceful degrade and its reason.

    The ``except (BudgetExceededError, LoweringError): degrade()``
    seams absorb these silently by design (honest verdicts, never a
    crash) — telemetry is where the absorbed reason surfaces.
    """
    t = _telemetry()
    if t.enabled:
        reason = type(exc).__name__
        t.count(f"backend.fallback.{reason}")
        t.event("backend.fallback", method=method, reason=reason,
                detail=str(exc))


class Backend(abc.ABC):
    """Uniform execution surface for rendezvous and gathering runs and
    their sweeps."""

    name: str = "abstract"

    @abc.abstractmethod
    def run(
        self,
        tree: Tree,
        prototype: AgentBase,
        start1: int,
        start2: int,
        *,
        delay: int = 0,
        delayed: int = 2,
        max_rounds: int = 1_000_000,
        certify: bool = False,
    ) -> RendezvousOutcome:
        """Execute one rendezvous instance."""

    def run_gathering(
        self,
        tree: Tree,
        prototype: AgentBase,
        starts: Sequence[int],
        *,
        delays: Optional[Sequence[int]] = None,
        max_rounds: int = 1_000_000,
        certify: bool = False,
    ) -> GatheringOutcome:
        """Execute one k-agent gathering instance (auto dispatch unless
        a subclass pins an engine)."""
        return run_gathering(
            tree, prototype, starts,
            delays=delays, max_rounds=max_rounds, certify=certify,
        )

    def run_many(self, jobs: Sequence[BatchJob]) -> list[RendezvousOutcome]:
        """Execute independent jobs; results in job order.

        Honors ``BatchJob.seed`` exactly like the pool worker does, so
        serial and multiprocess executions of a seeded grid agree.  The
        caller's global RNG state is restored afterwards — only the jobs
        see the deterministic state (pool workers are forked, so theirs
        dies with them).
        """
        return self._run_jobs(jobs, lambda job: job.apply(self.run))

    def run_gathering_many(
        self, jobs: Sequence[GatheringJob]
    ) -> list[GatheringOutcome]:
        """Execute independent gathering jobs; results in job order,
        seeds honored as in :meth:`run_many`."""
        return self._run_jobs(jobs, lambda job: job.apply(self.run_gathering))

    @staticmethod
    def _run_jobs(jobs, run_one):
        seeded = any(job.seed is not None for job in jobs)
        state = random.getstate() if seeded else None
        try:
            out = []
            for job in jobs:
                if job.seed is not None:
                    random.seed(job.seed)
                out.append(run_one(job))
            return out
        finally:
            if state is not None:
                random.setstate(state)

    def sweep_delays(
        self,
        tree: Tree,
        prototype: AgentBase,
        start1: int,
        start2: int,
        *,
        max_delay: int,
        sides: Sequence[int] = (1, 2),
        max_rounds: Optional[int] = None,
        faults=None,
    ) -> list[DelayVerdict]:
        """Decide every (θ ≤ max_delay, delayed side) adversary choice.

        The default implementation runs each choice independently with
        certification; backends with a batched solver override it.
        ``max_rounds=None`` lets the backend pick its own budget; an
        explicit value bounds the work on every backend (per-run rounds
        here, configuration exploration in the exact solver — see the
        module docstring).  ``faults`` (an optional
        :class:`~repro.sim.faults.FaultPlan`) applies the same fault
        schedule to every adversary choice.
        """
        budget = _SWEEP_BUDGET if max_rounds is None else max_rounds
        extra = {} if faults is None else {"faults": faults}
        verdicts = []
        for theta, side in sweep_choices(max_delay, sides):
            out = self.run(
                tree,
                prototype,
                start1,
                start2,
                delay=theta,
                delayed=side,
                max_rounds=budget,
                certify=True,
                **extra,
            )
            verdicts.append(
                DelayVerdict(
                    theta, side, out.met, out.meeting_round,
                    out.certified_never, bool(out.crashed),
                )
            )
        return verdicts

    def sweep_gathering(
        self,
        tree: Tree,
        prototype: AgentBase,
        starts: Sequence[int],
        delay_vectors: Sequence[Sequence[int]],
        *,
        max_rounds: Optional[int] = None,
        faults=None,
    ) -> list[GatheringVerdict]:
        """Decide every per-agent delay vector of a gathering grid.

        The default implementation routes certified independent runs
        through :meth:`run_gathering_many` (on the batched backend that
        fans them over its pool); the compiled and auto backends instead
        take the exact joint-configuration solver for automata, so the
        pool is only reached for agents the solver cannot lower.  A
        budgeted per-run backend can exhaust ``max_rounds`` without a
        certificate — those verdicts come back with neither flag set and
        callers must report them as undecided, never as proof.
        ``faults`` applies the same fault schedule to every vector.
        """
        budget = _SWEEP_BUDGET if max_rounds is None else max_rounds
        jobs = [
            GatheringJob(
                tree, prototype, tuple(starts), tuple(vec),
                max_rounds=budget, certify=True, faults=faults,
            )
            for vec in delay_vectors
        ]
        return [
            GatheringVerdict(
                tuple(vec), out.gathered, out.gathering_round,
                out.certified_never, bool(out.crashed),
            )
            for vec, out in zip(delay_vectors, self.run_gathering_many(jobs))
        ]

    def run_pairs(
        self,
        tree: Tree,
        prototype: AgentBase,
        pairs: Sequence[tuple[int, int]],
        *,
        max_rounds: int,
    ) -> list[PairVerdict]:
        """Decide delay-0 rendezvous for many start pairs on one tree.

        The grid executors (success sweeps, exhaustive verification) use
        this instead of per-pair :meth:`run` calls.  The default
        implementation *is* that per-pair loop, with ``certify=True``
        like every batched path — verdict parity by construction; the
        compiled/auto backends override it with the batched paths (the
        vectorized successor-table kernel for automata, certified traced
        runs over shared solo traces for register programs).
        """
        out = []
        for u, v in pairs:
            o = self.run(
                tree, prototype, u, v, delay=0, max_rounds=max_rounds,
                certify=True,
            )
            out.append(PairVerdict(o.met, o.meeting_round, bool(o.certified_never)))
        return out


def _lowered_for_faults(prototype: AgentBase, tree: Tree):
    """Lower a register program to an explicit automaton for faulted
    exact sweeps.

    Traced lowering is *invalid* under faults: a solo trace bakes in the
    agent's autonomous trajectory, which pauses and relabelings divert.
    Full behavioral lowering over the tree's degree alphabet stays valid
    — crash/pause faults freeze the machine in a state it can resume
    from, and relabelings preserve every node degree — so faulted sweeps
    of lowerable agents ride the explicit-automaton solver instead.
    Routed through the :func:`~repro.agents.lowering.lowered_for` memo:
    a faulted sweep grid lowers each prototype once per degree alphabet,
    not once per tree.
    """
    degrees = {tree.degree(v) for v in range(tree.n)}
    return lowered_for(prototype, degrees)


def _sweep_exact(method, tree, prototype, *, traced, solve, per_run,
                 max_rounds, faults):
    """The degrade ladder behind both exact sweeps (``method`` names its
    ``backend.dispatch.<method>.<tier>`` telemetry): traced → fault
    lowering → exact → per-run.

    Register programs take ``traced(**budget)``: lassoed solo traces
    rolled into per-(tree, start) automata.  Under ``faults`` traced
    lowering is unsound (see :func:`_lowered_for_faults`), so they are
    lowered behaviorally and join automata at ``solve(automaton,
    **budget)``, the kernel-dispatched exact solver.  It needs no round
    budget; an explicit caller budget is honored as its configuration
    guard.  A trace without a lasso, machine state the lowering cannot
    capture, or a tripped explicit budget lands on ``per_run()``, the
    budgeted per-run sweep — undecided where unprovable, never a crash,
    never fake proof.
    """
    def degrade(exc):
        _note_fallback(method, exc)
        _note_dispatch(method, "per_run")
        return per_run()

    budget = {} if max_rounds is None else {"max_configs": max_rounds}
    if supports_compilation(prototype) == "lowerable":
        try:
            if not faults:
                if max_rounds is not None:
                    budget["trace_budget"] = max_rounds
                verdicts = traced(**budget)
                _note_dispatch(method, "traced")
                return verdicts
            prototype = _lowered_for_faults(prototype, tree)
        except (BudgetExceededError, LoweringError) as exc:
            return degrade(exc)
    try:
        verdicts = solve(prototype, **budget)
    except BudgetExceededError as exc:
        if max_rounds is None:
            raise
        return degrade(exc)
    _note_dispatch(method, "exact")
    return verdicts


def _run_pairs_fast(
    backend: Backend, tree, prototype, pairs, max_rounds
) -> list[PairVerdict]:
    """Batched delay-0 dispatch shared by the compiled and auto backends.

    Automata ride the vectorized successor-table kernel (falling back to
    the per-pair compiled loop when the kernel is unavailable or punts);
    register programs are per-pair certified traced runs over the
    shared trace cache (:func:`~repro.sim.traced.run_pairs_traced`);
    anything else gets the base per-pair loop, whose honesty is the
    backend's own ``run`` dispatch.
    """
    kind = supports_compilation(prototype)
    if kind == "lowerable":
        verdicts = run_pairs_traced(tree, prototype, pairs, max_rounds=max_rounds)
        _note_dispatch("run_pairs", "traced")
        return verdicts
    if kind == "native" and kernel_available():
        try:
            verdicts = run_pairs_kernel(tree, prototype, pairs, max_rounds=max_rounds)
            _note_dispatch("run_pairs", "kernel")
            return verdicts
        except (KernelUnsupported, BudgetExceededError) as exc:
            _note_fallback("run_pairs", exc)
    _note_dispatch("run_pairs", "per_pair")
    return Backend.run_pairs(
        backend, tree, prototype, pairs, max_rounds=max_rounds
    )


class ReferenceBackend(Backend):
    """The oracle: duck-typed per-round dispatch, ``seen``-set certificates."""

    name = "reference"

    def run(self, tree, prototype, start1, start2, **kwargs) -> RendezvousOutcome:
        return run_rendezvous(tree, prototype, start1, start2, **kwargs)

    def run_gathering(self, tree, prototype, starts, **kwargs) -> GatheringOutcome:
        return run_gathering_reference(tree, prototype, starts, **kwargs)


class CompiledBackend(Backend):
    """Flat-table execution for automata; traced lowering for register
    programs (:mod:`repro.sim.traced`); arbitrary duck-typed agents are
    rejected — forcing ``compiled`` on them raises, the honest answer.

    Lowered outcomes carry fresh (unexecuted) agent clones — executed
    register accounts belong to the reference engine / solo replays.

    Faulted runs of lowerable agents cannot use traced replay (the solo
    trace assumes autonomous dynamics); they go through full behavioral
    lowering (:func:`_lowered_for_faults`) onto the compiled faulted
    engine.  If that lowering fails, forcing ``compiled`` raises — the
    honest answer, as with unloweable agents.
    """

    name = "compiled"

    def run(self, tree, prototype, start1, start2, **kwargs) -> RendezvousOutcome:
        if supports_compilation(prototype) == "lowerable":
            if kwargs.get("faults"):
                lowered = _lowered_for_faults(prototype, tree)
                return run_rendezvous_compiled(tree, lowered, start1, start2, **kwargs)
            kwargs.pop("faults", None)
            return run_rendezvous_traced(tree, prototype, start1, start2, **kwargs)
        return run_rendezvous_compiled(tree, prototype, start1, start2, **kwargs)

    def run_gathering(self, tree, prototype, starts, **kwargs) -> GatheringOutcome:
        if supports_compilation(prototype) == "lowerable":
            if kwargs.get("faults"):
                lowered = _lowered_for_faults(prototype, tree)
                return run_gathering_compiled(tree, lowered, starts, **kwargs)
            kwargs.pop("faults", None)
            return run_gathering_traced(tree, prototype, starts, **kwargs)
        return run_gathering_compiled(tree, prototype, starts, **kwargs)

    def sweep_delays(
        self, tree, prototype, start1, start2, *, max_delay,
        sides=(1, 2), max_rounds=None, faults=None,
    ) -> list[DelayVerdict]:
        return _sweep_exact(
            "sweep_delays", tree, prototype,
            traced=lambda **budget: sweep_delays_traced(
                tree, prototype, start1, start2, max_delay=max_delay,
                sides=tuple(sides), solver=solve_all_delays_auto, **budget,
            ),
            solve=lambda automaton, **budget: solve_all_delays_auto(
                tree, automaton, start1, start2, max_delay=max_delay,
                delayed_sides=tuple(sides), faults=faults, **budget,
            ),
            per_run=lambda: Backend.sweep_delays(
                self, tree, prototype, start1, start2, max_delay=max_delay,
                sides=sides, max_rounds=max_rounds, faults=faults,
            ),
            max_rounds=max_rounds, faults=faults,
        )

    def sweep_gathering(
        self, tree, prototype, starts, delay_vectors, *, max_rounds=None,
        faults=None,
    ) -> list[GatheringVerdict]:
        return _sweep_exact(
            "sweep_gathering", tree, prototype,
            traced=lambda **budget: sweep_gathering_traced(
                tree, prototype, starts, delay_vectors,
                solver=solve_gathering_auto, **budget,
            ),
            solve=lambda automaton, **budget: solve_gathering_auto(
                tree, automaton, starts, delay_vectors, faults=faults, **budget,
            ),
            per_run=lambda: Backend.sweep_gathering(
                self, tree, prototype, starts, delay_vectors,
                max_rounds=max_rounds, faults=faults,
            ),
            max_rounds=max_rounds, faults=faults,
        )

    def run_pairs(self, tree, prototype, pairs, *, max_rounds):
        return _run_pairs_fast(self, tree, prototype, pairs, max_rounds)


class AutoBackend(Backend):
    """Per-call selection: compiled for automata, traced lowering for
    register programs on sweeps/grids, reference otherwise.

    Single runs of register programs stay on the reference engine (see
    :func:`repro.sim.compiled.run_rendezvous_fast` — one fresh run gains
    nothing from tracing and keeps its executed registers); the batched
    sweeps, where traces and product configurations are shared, take the
    lowered exact path.
    """

    name = "auto"

    def run(self, tree, prototype, start1, start2, **kwargs) -> RendezvousOutcome:
        return run_rendezvous_fast(tree, prototype, start1, start2, **kwargs)

    def sweep_delays(
        self, tree, prototype, start1, start2, *, max_delay,
        sides=(1, 2), max_rounds=None, faults=None,
    ) -> list[DelayVerdict]:
        sweep = (
            CompiledBackend.sweep_delays if supports_compilation(prototype)
            else Backend.sweep_delays
        )
        return sweep(
            self, tree, prototype, start1, start2,
            max_delay=max_delay, sides=sides, max_rounds=max_rounds,
            faults=faults,
        )

    def sweep_gathering(
        self, tree, prototype, starts, delay_vectors, *, max_rounds=None,
        faults=None,
    ) -> list[GatheringVerdict]:
        sweep = (
            CompiledBackend.sweep_gathering if supports_compilation(prototype)
            else Backend.sweep_gathering
        )
        return sweep(
            self, tree, prototype, starts, delay_vectors,
            max_rounds=max_rounds, faults=faults,
        )

    def run_pairs(self, tree, prototype, pairs, *, max_rounds):
        return _run_pairs_fast(self, tree, prototype, pairs, max_rounds)


class BatchedBackend(AutoBackend):
    """Auto dispatch per run, multiprocess fan-out for independent grids.

    Grids run under the supervised pool (:mod:`repro.sim.supervise`) with
    the backend's ``processes``, ``timeout``, ``retries`` and
    ``checkpoint``: per-job wall-clock preemption when ``timeout`` is
    set, bounded retries with backoff, dead-worker respawn, and
    checkpointed resume when ``checkpoint`` is set.  Pooled outcomes
    carry no trace and no agents.  A job that still fails after its
    retries raises :class:`~repro.scenarios.spec.ScenarioError` naming
    every failed slot — a grid result must never silently hold holes.
    The pool module is imported where a grid is dispatched, so a process
    that never fans out never loads it (nor :mod:`pickle`).
    """

    name = "batched"

    def __init__(
        self,
        processes: Optional[int] = None,
        *,
        timeout: Optional[float] = None,
        retries: int = 1,
        checkpoint=None,
    ):
        self.processes = processes
        self.timeout = timeout
        self.retries = retries
        self.checkpoint = checkpoint

    @staticmethod
    def _settled(results):
        from ..sim.supervise import JobFailure

        failures = [r for r in results if isinstance(r, JobFailure)]
        if failures:
            raise ScenarioError(JobFailure.summarize(failures))
        return results

    def run_many(self, jobs: Sequence[BatchJob]) -> list[RendezvousOutcome]:
        from ..sim.supervise import run_batch_supervised

        return self._settled(run_batch_supervised(
            jobs, processes=self.processes, timeout=self.timeout,
            retries=self.retries, checkpoint=self.checkpoint,
        ))

    def run_gathering_many(
        self, jobs: Sequence[GatheringJob]
    ) -> list[GatheringOutcome]:
        from ..sim.supervise import run_gathering_batch_supervised

        return self._settled(run_gathering_batch_supervised(
            jobs, processes=self.processes, timeout=self.timeout,
            retries=self.retries, checkpoint=self.checkpoint,
        ))


def select_backend(
    hint: str, *, processes: Optional[int] = None
) -> Backend:
    """Resolve a spec's backend hint to a concrete backend."""
    if hint == "reference":
        return ReferenceBackend()
    if hint == "compiled":
        return CompiledBackend()
    if hint == "batched":
        return BatchedBackend(processes=processes)
    if hint == "auto":
        return AutoBackend()
    raise ScenarioError(f"unknown backend {hint!r}")
