"""Round-by-round traces of two-agent executions.

Traces are optional (recording costs memory); the engine fills one in when
``record_trace=True``.  They are heavily used by the test-suite to assert
fine-grained claims from the paper's proofs (e.g. the Parity Lemma: the
parity of the inter-agent distance changes exactly when one agent moves and
the other does not).
"""

from __future__ import annotations

from typing import Optional

from ..agents.observations import STAY
from ..records import Record, TupleRecord, tuple_new

__all__ = ["RoundRecord", "Trace"]


class RoundRecord(TupleRecord):
    """State of the world after one synchronous round.

    ``action1``/``action2`` are the *resolved* actions (an actual port or
    ``STAY``); an agent that has not started yet, or has finished its
    program, records ``STAY``.
    """

    __slots__ = ()

    def __new__(
        cls,
        round_index: int,
        pos1: int,
        pos2: int,
        action1: int,
        action2: int,
    ):
        return tuple_new(cls, (round_index, pos1, pos2, action1, action2))

    @property
    def moved1(self) -> bool:
        return self.action1 != STAY

    @property
    def moved2(self) -> bool:
        return self.action2 != STAY


class Trace(Record):
    """A full execution trace: initial positions plus one record per round."""

    __slots__ = ("start1", "start2", "records")

    def __init__(
        self, start1: int, start2: int, records: Optional[list[RoundRecord]] = None
    ) -> None:
        self.start1 = start1
        self.start2 = start2
        self.records = [] if records is None else records

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def positions(self) -> list[tuple[int, int]]:
        """(pos1, pos2) per round, including the initial placement."""
        out = [(self.start1, self.start2)]
        out.extend((r.pos1, r.pos2) for r in self.records)
        return out

    def idle_counts(self, upto: int) -> tuple[int, int]:
        """How many of the first ``upto`` rounds each agent spent idle.

        Mirrors the q / q' bookkeeping of the Parity Lemma (Lemma 4.4).
        """
        q1 = sum(1 for r in self.records[:upto] if not r.moved1)
        q2 = sum(1 for r in self.records[:upto] if not r.moved2)
        return q1, q2
