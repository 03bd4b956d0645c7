"""Multi-agent synchronous simulation: the gathering extension.

The paper notes (§1.3) that gathering — more than two identical agents
meeting at one node — is the natural extension of rendezvous.  This
module holds the k-agent entry points, with per-agent start delays:

- *gathering* is achieved the first round at the end of which all agents
  occupy the same node;
- the outcome also reports the largest cluster ever co-located, which
  the gathering algorithm's analysis cares about.

The feasible fragment implemented in :mod:`repro.core.gathering` covers the
cases where all agents can agree on a single target node of the contraction
(central node, or asymmetric central edge) — for the symmetric case with
k > 2 the paper makes no claim and neither do we (see the module docs
there).

Each engine tier has one k-agent loop, shared with its rendezvous entry
point (a rendezvous run is the k=2 run): :func:`run_gathering_reference`
runs the reference loop (the oracle, any ``AgentBase``),
:func:`run_gathering_compiled` the compiled tier's loop over the k-agent
table stepper that the exact gathering solver's faulted prefixes also
use, and :func:`run_gathering` dispatches finite-state prototypes
(:func:`repro.sim.compiled.supports_compilation`) to the latter.
:func:`_gathering` is their one front end.  A fault plan
(:mod:`repro.sim.faults`) is read at its event rounds only, and a
fault-free run is the empty plan.  The parity suites in
``tests/sim/test_gathering_compiled.py`` and ``tests/sim/test_faults.py``
assert identical outcomes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..agents.observations import AgentBase
from ..errors import SimulationError
from ..records import TupleRecord, tuple_new
from ..trees.tree import Tree
from .compiled import _compiled_run, supports_compilation
from .engine import _reference_run
from .faults import _NO_FAULTS, FaultPlan

__all__ = [
    "GatheringOutcome",
    "run_gathering",
    "run_gathering_reference",
    "run_gathering_compiled",
]


class GatheringOutcome(TupleRecord):
    """Result of a k-agent gathering run.

    Exactly one of three verdicts holds (mirroring
    :class:`~repro.sim.engine.RendezvousOutcome`):

    - ``gathered`` — all agents co-located at ``gathering_round``;
    - ``certified_never`` — a joint-configuration recurrence proves the
      agents can never gather (``certify`` runs on finite-state agents);
    - neither — the round budget ran out without a verdict.
    """

    __slots__ = ()

    def __new__(
        cls,
        gathered: bool,
        gathering_round: Optional[int],
        gathering_node: Optional[int],
        rounds_executed: int,
        positions: tuple[int, ...],  # final positions
        largest_cluster: int,  # max #agents ever co-located in a single round
        certified_never: bool = False,
        # Agents whose crash fault had fired by the final executed round;
        # always () for fault-free runs.
        crashed: tuple[int, ...] = (),
    ):
        return tuple_new(cls, (
            gathered, gathering_round, gathering_node, rounds_executed, positions,
            largest_cluster, certified_never, crashed,
        ))

    @property
    def undecided(self) -> bool:
        return not self.gathered and not self.certified_never

    @property
    def num_agents(self) -> int:
        return len(self.positions)


def _validate(tree: Tree, starts: Sequence[int], delays) -> list[int]:
    if len(starts) < 2:
        raise SimulationError("gathering needs at least two agents")
    for s in starts:
        if not (0 <= s < tree.n):
            raise SimulationError("start node outside the tree")
    delay_list = list(delays) if delays is not None else [0] * len(starts)
    if len(delay_list) != len(starts) or any(d < 0 for d in delay_list):
        raise SimulationError("delays must align with starts and be >= 0")
    return delay_list


def run_gathering(
    tree: Tree,
    prototype: AgentBase,
    starts: Sequence[int],
    *,
    delays: Optional[Sequence[int]] = None,
    max_rounds: int = 1_000_000,
    certify: bool = False,
    faults=None,
) -> GatheringOutcome:
    """Run ``len(starts)`` copies of ``prototype`` until they all co-locate.

    ``delays[i]`` (default all 0) is agent i's start delay.  Agents that
    have not started yet still occupy their start node.  ``certify``
    detects a joint-configuration recurrence to certify non-gathering
    (finite-state agents; silently ignored when agents expose no state).
    ``faults`` (an optional :class:`~repro.sim.faults.FaultPlan`; agent
    i is fault-plan agent i) runs in the same loops.

    Finite-state prototypes are dispatched to the compiled table-driven
    loop; everything else runs on :func:`run_gathering_reference`.
    """
    if supports_compilation(prototype) == "native":
        return run_gathering_compiled(
            tree, prototype, starts, delays=delays, max_rounds=max_rounds,
            certify=certify, faults=faults,
        )
    return run_gathering_reference(
        tree, prototype, starts, delays=delays, max_rounds=max_rounds,
        certify=certify, faults=faults,
    )


def _gathering(
    tree: Tree,
    prototype: AgentBase,
    starts: Sequence[int],
    delays,
    max_rounds: int,
    certify: bool,
    faults,
    run,
) -> GatheringOutcome:
    """The gathering front end shared by every tier: ``run`` is the
    tier's k-agent loop (:class:`~repro.sim.engine.JointRun`)."""
    plan = FaultPlan.coerce(faults) or _NO_FAULTS
    delay_list = _validate(tree, starts, delays)
    plan.validate_for(len(starts))
    starts = list(starts)
    k = len(starts)
    if starts.count(starts[0]) == k:
        return GatheringOutcome(True, 0, starts[0], 0, tuple(starts), k)
    out = run(tree, prototype, starts, delay_list, plan, max_rounds, certify, None)
    return GatheringOutcome(
        out.gathered, out.round, out.positions[0] if out.gathered else None,
        out.rounds_executed, out.positions, out.largest, out.certified_never,
        plan.crashed_by(out.rounds_executed),
    )


def run_gathering_reference(
    tree: Tree,
    prototype: AgentBase,
    starts: Sequence[int],
    *,
    delays: Optional[Sequence[int]] = None,
    max_rounds: int = 1_000_000,
    certify: bool = False,
    faults=None,
) -> GatheringOutcome:
    """The oracle loop, forced for every agent type (parity testing)."""
    return _gathering(
        tree, prototype, starts, delays, max_rounds, certify, faults,
        _reference_run,
    )


def run_gathering_compiled(
    tree: Tree,
    prototype: AgentBase,
    starts: Sequence[int],
    *,
    delays: Optional[Sequence[int]] = None,
    max_rounds: int = 1_000_000,
    certify: bool = False,
    faults=None,
) -> GatheringOutcome:
    """The table-driven loop, forced (requires a finite-state Automaton).

    ``certify`` uses Brent cycle detection on the k-agent joint
    configuration — O(1) memory, same verdicts as the reference's
    ``seen``-set (the round a certificate fires at may differ).
    """
    if supports_compilation(prototype) != "native":
        raise SimulationError(
            "compiled gathering requires a finite-state Automaton"
        )
    return _gathering(
        tree, prototype, starts, delays, max_rounds, certify, faults,
        _compiled_run,
    )
