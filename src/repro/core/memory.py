"""Memory accounting for the rendezvous agents.

The paper measures agent memory in bits (⌈log₂ K⌉ for a K-state automaton).
Register programs (:class:`repro.agents.program.Registers`) declare every
bounded counter; this module turns those declarations into the reports the
experiments print (from solo replays that jump whole basic walks,
Synchro's inserted Explo-bis among them, and whole traversals of the
rendezvous path, see :func:`measure_memory`), and provides the closed-form
reference curves (the O(log ℓ + log log n) upper bound and the Θ(log n)
arbitrary-delay bound) the measured values are compared against in
``repro report --full``.
"""

from __future__ import annotations

from ..agents.program import AgentProgram, drive
from ..records import TupleRecord, tuple_new

__all__ = [
    "MemoryReport",
    "memory_report",
    "measure_memory",
    "upper_bound_bits",
    "loglog_bits",
    "log_bits",
]


class MemoryReport(TupleRecord):
    """Bits used by one agent in one execution.

    ``declared`` sums the declared register widths (the analytic cost);
    ``used`` sums the widths required by the peak values actually stored
    (always <= declared).  ``registers`` maps register name to
    ``(declared bound, peak value)``.
    """

    __slots__ = ()

    def __new__(cls, declared: int, used: int, registers: dict[str, tuple[int, int]]):
        return tuple_new(cls, (declared, used, registers))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rows = "\n".join(
            f"  {name:<24} bound={bound:<10} peak={peak}"
            for name, (bound, peak) in self.registers.items()
        )
        return f"MemoryReport(declared={self.declared}b, used={self.used}b)\n{rows}"


def memory_report(agent: AgentProgram) -> MemoryReport:
    """Extract the memory report of an executed agent program."""
    return MemoryReport(
        declared=agent.registers.bits_declared(),
        used=agent.registers.bits_used(),
        registers=agent.registers.report(),
    )


def measure_memory(tree, start: int, agent: AgentProgram, rounds: int) -> MemoryReport:
    """Drive one agent *alone* on ``tree`` for ``rounds`` rounds and report
    its registers.

    Rendezvous runs can end with a lucky early meeting before the agent has
    declared its counters; the paper's memory measure is what the agent
    must be *equipped with* on the instance, so the experiments measure a
    solo execution over a representative horizon (Stage 1 + Synchro + a few
    outer iterations) instead.  The replay is :func:`repro.agents.program.drive`,
    which jumps each basic walk whole — each Explo-bis that Synchro
    inserts is one closed walk, resolved once per branching node and
    jumped from the walk memo at every revisit — and runs each
    traversal of the rendezvous path P once per extremity of C, then
    replays it at every prime speed.  Only Stage 1's Explo-bis is
    interpreted move by move.  The report equals that of a round-by-round
    drive through ``AgentProgram.step``, which expands every walk and
    block round by round.
    """
    clone = agent.clone()
    drive(tree, start, clone.routine(tree.degree(start)), clone.registers,
          max_rounds=rounds)
    return memory_report(clone)


def log_bits(x: int) -> int:
    """⌈log₂(x+1)⌉ with a floor of 1 — bits to hold a counter up to x
    (exact integer arithmetic: ``x.bit_length()``)."""
    return max(1, x.bit_length())


def upper_bound_bits(n: int, ell: int, c_ell: int = 8, c_loglog: int = 3) -> int:
    """A concrete O(log ℓ + log log n) reference curve.

    The constants reflect the handful of O(log ℓ)-bounded counters (ν,
    inner j, path repetitions, branching arrivals, Synchro, Explo) and the
    O(log log n)-bounded ones (prime value, prime index, outer index) the
    Theorem 4.1 agent declares.  Used only for plotting/benchmark context,
    never by agents.
    """
    return c_ell * log_bits(max(ell, 2)) + c_loglog * log_bits(
        log_bits(max(n, 2))
    )


def loglog_bits(n: int) -> int:
    """Θ(log log n) reference curve (Thm 4.2 lower bound shape)."""
    return log_bits(log_bits(max(n, 2)))
