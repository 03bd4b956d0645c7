"""The headline experiment: the exponential memory gap (E7 of ``repro report --full``).

For a family of trees with few leaves and growing n, compare:

- **delay 0** — the Theorem 4.1 agent's measured memory (declared register
  bits): O(log ℓ + log log n), essentially flat in n;
- **arbitrary delay** — (a) the Θ(log n) baseline's measured register bits,
  and (b) the *lower-bound evidence*: for budget-b automata, the Thm 3.1
  adversary defeats them on lines of length O(2^b), i.e. solving n-node
  lines requires ~log n bits.

The gap row format mirrors the paper's framing: for trees with polylog ℓ,
delay-0 memory is exponentially smaller than arbitrary-delay memory.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from ..core.memory import log_bits, loglog_bits
from ..core.rendezvous import solve, solve_with_delay
from ..records import TupleRecord, tuple_new
from ..trees.automorphism import perfectly_symmetrizable
from ..trees.builders import complete_binary_tree, subdivide
from ..trees.labelings import random_relabel

__all__ = ["GapRow", "gap_table", "format_gap_table"]


class GapRow(TupleRecord):
    """One tree family member's measurements under both scenarios."""

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        leaves: int,
        delay0_bits: int,
        delay0_met: bool,
        arbitrary_bits: int,
        arbitrary_met: bool,
        reference_loglog: int,  # the Θ(log ℓ + log log n) reference value
        reference_log: int,  # the Θ(log n) reference value
    ):
        return tuple_new(cls, (
            n, leaves, delay0_bits, delay0_met, arbitrary_bits, arbitrary_met,
            reference_loglog, reference_log,
        ))

    @property
    def gap_factor(self) -> float:
        """How many times more memory the arbitrary-delay scenario uses."""
        return self.arbitrary_bits / max(self.delay0_bits, 1)


def gap_table(
    subdivisions: Sequence[int] = (0, 1, 3, 7, 15),
    delay: int = 13,
    seed: int = 2,
    engine=None,
) -> list[GapRow]:
    """Measure both scenarios on subdivided complete binary trees (ℓ = 4).

    The delay-0 run uses the Theorem 4.1 agent with simultaneous start; the
    arbitrary-delay run uses the baseline agent under the given delay.  The
    same start pair (two leaves of the base tree) is used throughout.

    ``engine`` routes the joint runs through a scenario backend; the
    memory columns come from solo replays (``measure_memory``) either
    way, so rows are identical on every backend.
    """
    rng = random.Random(seed)
    base = complete_binary_tree(2)
    rows: list[GapRow] = []
    for times in subdivisions:
        plain = subdivide(base, times)
        tree = random_relabel(plain, rng)
        u, v = 3, 6  # two leaves of the base tree; ids survive subdivision
        assert not perfectly_symmetrizable(tree, u, v)
        zero = solve(tree, u, v, max_outer=10, engine=engine)
        arb = solve_with_delay(tree, u, v, delay, engine=engine)
        # Memory is the solo requirement (lucky meetings end joint runs
        # before counters are declared) — see core.memory.measure_memory.
        from ..core.algorithm import rendezvous_agent
        from ..core.baseline import baseline_agent
        from ..core.memory import measure_memory
        from ..core.rendezvous import estimate_round_budget

        # Measure on the canonical labeling: its contraction is symmetric
        # for this family, so every row exercises the full algorithm.
        zero_mem = measure_memory(
            plain, u, rendezvous_agent(max_outer=2), estimate_round_budget(plain, 2)
        )
        arb_mem = measure_memory(plain, u, baseline_agent(), 40 * plain.n)
        rows.append(
            GapRow(
                n=tree.n,
                leaves=tree.num_leaves,
                delay0_bits=zero_mem.declared,
                delay0_met=zero.met,
                arbitrary_bits=arb_mem.declared,
                arbitrary_met=arb.met,
                reference_loglog=3 * log_bits(tree.num_leaves) + loglog_bits(tree.n),
                reference_log=log_bits(tree.n),
            )
        )
    return rows


def format_gap_table(rows: Sequence[GapRow]) -> str:
    """Render the gap table as fixed-width text."""
    header = (
        f"{'n':>6} {'leaves':>6} {'delay0 bits':>12} {'arb bits':>9} "
        f"{'gap x':>6} {'~log n':>7} {'met(0/arb)':>11}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.n:>6} {r.leaves:>6} {r.delay0_bits:>12} {r.arbitrary_bits:>9} "
            f"{r.gap_factor:>6.2f} {r.reference_log:>7} "
            f"{str(r.delay0_met)[0]}/{str(r.arbitrary_met)[0]:>9}"
        )
    return "\n".join(lines)
