"""The (θ, side) delay format: a rendezvous is a k=2 gathering run.

The paper's adversary starts one of two agents θ rounds late — the
two-agent case of gathering with per-agent start delays (§1.3): delaying
side 2 by θ is the delay vector ``(0, θ)``, delaying side 1 is
``(θ, 0)``.  This module is the one owner of that format, for single
runs and sweeps alike.  Every rendezvous entry point runs its tier's
k-agent loop on :func:`delay_vector` of its ``(delay, delayed)``
arguments (:func:`repro.sim.engine._rendezvous`), and every delay-sweep
entry point (the scenario ``DelayPolicy``, the backends' per-run sweep,
and the dict, faulted, kernel and traced solvers) takes its choice list
from :func:`sweep_choices`: validated sides, θ-major, sides in request
order, and θ = 0 once — both sides are the same adversary choice there,
emitted as side 2 when requested, else as the single requested side.

Every exact delay solver is its tier's gathering solver over
:func:`delay_vector`'s k=2 vectors, mapped back by
:func:`to_delay_verdicts`: the dict solver
(:func:`repro.sim.compiled.solve_all_delays`, faulted or not), the
kernel (:func:`repro.sim.kernel.solve_delay_grid_kernel`) and the traced
sweep, which feeds lassoed solo traces to one of those.  The gathering
solvers step each agent slot's solo run once per grid and read every
vector's staggered prefix off it, so a sweep shares its solo prefixes
across θ without a delay-shaped body of its own.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..errors import SimulationError
from ..records import TupleRecord, tuple_new

__all__ = [
    "DelayVerdict",
    "check_sides",
    "delay_choices",
    "sweep_choices",
    "delay_vector",
    "to_delay_verdicts",
    "met_at_start",
]


class DelayVerdict(TupleRecord):
    """Exact fate of one ``(delay, delayed)`` adversary choice: the
    :class:`~repro.sim.gathering_solver.GatheringVerdict` of its k=2
    delay vector, field for field.  The exact solvers always decide;
    a budgeted per-run sweep may set neither flag (undecided)."""

    __slots__ = ()

    def __new__(
        cls,
        delay: int,
        delayed: int,
        met: bool,
        meeting_round: Optional[int],
        certified_never: bool,
        # Did a crash fault fire by this choice's final decided round?
        # Always False for fault-free sweeps; lets executors certify
        # "never meets because a fault killed an agent" distinctly.
        crashed: bool = False,
    ):
        return tuple_new(cls, (
            delay, delayed, met, meeting_round, certified_never, crashed,
        ))


def check_sides(sides: Sequence[int], error=SimulationError) -> tuple[int, ...]:
    """The delayed sides, validated: non-empty, each 1 or 2, no repeats.

    ``error`` is the exception class raised (the scenario layer passes
    its own)."""
    sides = tuple(sides)
    if not sides:
        raise error("'delayed_sides' must name at least one side")
    if any(side not in (1, 2) for side in sides):
        raise error("'delayed_sides' entries must be 1 or 2")
    if len(set(sides)) != len(sides):
        raise error(f"'delayed_sides' repeats a side: {sides}")
    return sides


def delay_choices(
    thetas: Iterable[int], sides: Sequence[int]
) -> list[tuple[int, int]]:
    """The ordered ``(θ, side)`` choices for validated ``sides``."""
    zero_side = 2 if 2 in sides else sides[0]
    return [
        (theta, side)
        for theta in thetas
        for side in sides
        if theta > 0 or side == zero_side
    ]


def sweep_choices(max_delay: int, sides: Sequence[int]) -> list[tuple[int, int]]:
    """Every choice of a θ ∈ [0, max_delay] sweep, after validation."""
    if max_delay < 0:
        raise SimulationError("max_delay must be >= 0")
    return delay_choices(range(max_delay + 1), check_sides(sides))


def delay_vector(theta: int, side: int) -> tuple[int, int]:
    """The k=2 gathering delay vector of one choice."""
    return (theta, 0) if side == 1 else (0, theta)


def to_delay_verdicts(choices, verdicts) -> list[DelayVerdict]:
    """Gathering verdicts over ``map(delay_vector, choices)``, as delay
    verdicts (field for field)."""
    return [
        DelayVerdict(theta, side, gathered, gathering_round, never, crashed)
        for (theta, side), (_delays, gathered, gathering_round, never, crashed)
        in zip(choices, verdicts)
    ]


def met_at_start(choices) -> list[DelayVerdict]:
    """Verdicts when both agents start on one node: met at round 0."""
    return [DelayVerdict(theta, side, True, 0, False) for theta, side in choices]
