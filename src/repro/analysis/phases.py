"""Stage timeline of the Theorem 4.1 agent, recovered from a solo run.

The agent's registers double as phase markers: ``explo_nu`` is first
written when Stage 1's reconstruction completes, ``synchro_arrivals`` ticks
through Sub-stage 2.1, ``prime_p`` appears at the first prime attempt, and
``outer_i`` increments per Figure-2 outer iteration.  This module lifts a
:class:`~repro.sim.instrument.SoloRun` into a human-readable phase
timeline — the tool used to sanity-check that round budgets and
desynchronization behave as the proofs prescribe.
"""

from __future__ import annotations

from typing import Optional

from ..records import TupleRecord, tuple_new
from ..sim.instrument import SoloRun

__all__ = ["Phase", "stage_timeline", "format_timeline"]


class Phase(TupleRecord):
    """One contiguous phase of the agent's execution."""

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        start_round: int,
        end_round: Optional[int],  # None = still running at the end of the record
    ):
        return tuple_new(cls, (name, start_round, end_round))

    @property
    def duration(self) -> Optional[int]:
        if self.end_round is None:
            return None
        return self.end_round - self.start_round


def stage_timeline(run: SoloRun) -> list[Phase]:
    """Recover the Thm 4.1 stage boundaries from register first-writes.

    Phases reported (when present): ``explo`` (Stage 1), ``synchro``
    (Sub-stage 2.1), ``walk_to_far`` (approach to v̂_far), and one phase per
    outer-loop index ``outer(i)``.  Easy-case runs (central node /
    asymmetric edge) show ``explo`` followed by ``walk_and_wait``.
    """
    marks: list[tuple[int, str]] = []
    explo_done = run.first_change("explo_nu")
    if explo_done is not None:
        marks.append((0, "explo"))
    synchro = run.first_change("synchro_arrivals")
    if synchro is not None and explo_done is not None:
        marks.append((explo_done, "synchro"))
        walk = run.first_change("inner_j")
        if walk is not None:
            # between Synchro's last tick and the first inner_j lies the
            # walk to v̂_far; approximate its start by synchro's last event
            last_synchro = max(r for r, _ in run.value_series("synchro_arrivals"))
            marks.append((last_synchro, "walk_to_far"))
        for rnd, value in run.value_series("outer_i"):
            marks.append((rnd, f"outer({value})"))
    elif explo_done is not None:
        marks.append((explo_done, "walk_and_wait"))

    marks.sort(key=lambda m: m[0])
    phases: list[Phase] = []
    for idx, (start, name) in enumerate(marks):
        end = marks[idx + 1][0] if idx + 1 < len(marks) else (
            run.rounds if run.finished else None
        )
        phases.append(Phase(name, start, end))
    return phases


def format_timeline(phases: list[Phase]) -> str:
    """Render a timeline as an aligned table."""
    lines = [f"{'phase':>14} {'start':>8} {'end':>8} {'rounds':>8}"]
    for p in phases:
        end = str(p.end_round) if p.end_round is not None else "..."
        dur = str(p.duration) if p.duration is not None else "..."
        lines.append(f"{p.name:>14} {p.start_round:>8} {end:>8} {dur:>8}")
    return "\n".join(lines)
