"""Theorem 3.1: the arbitrary-delay adversary (Ω(log n) on the line).

Given any concrete line agent with K states, this module constructs a
2-edge-colored line of length O(K) = O(2^bits) plus a delay θ on which the
agent provably fails to rendezvous from non perfectly symmetrizable
positions — the constructive content of Theorem 3.1.

Two cases, as in the paper:

*Drifting agent.*  Watching the agent on the infinite colored line, some
state ``s`` is left at two distinct positions ``x1``, ``x2`` (we pick the
first such pair at even distance ``d = x2 - x1``, which exists within a few
state-configuration periods; evenness keeps the coloring phase aligned so
the trajectory from ``x2`` is the exact translate of the one from ``x1``).
On the mirror-symmetrically labeled line (central edge 0/0, colors
alternating outward — :func:`repro.trees.labelings.thm31_line_labeling`)
place one agent at ``U`` on the left, the other at ``V = M(U - d)`` where
``M`` is the mirror, and delay the first by ``θ = t2 - t1``.  At absolute
time ``t2`` the two agents sit at mirrored positions in the same state;
from then on the executions are mirror-conjugate forever and the agents can
never share a node (the mirror has no fixed node).  ``V ≠ M(U)`` since
``d ≠ 0``, so the positions are not perfectly symmetrizable.

*Bounded agent.*  If the agent never leaves a radius-D ball, two agents
placed ``2D + 2`` apart on a line with a central node (odd node count — no
pair is perfectly symmetrizable) have disjoint ranges and trivially never
meet, with delay 0.

Either way the instance is machine-checked: the simulator must *certify*
non-meeting by configuration recurrence before the instance is returned.
"""

from __future__ import annotations

from typing import Optional

from ..agents.automaton import LineAutomaton
from ..errors import ConstructionError
from ..records import TupleRecord, tuple_new
from ..sim.compiled import run_rendezvous_fast
from ..sim.engine import RendezvousOutcome
from ..trees.automorphism import perfectly_symmetrizable
from ..trees.labelings import thm31_line_labeling
from .common import bounded_agent_placement
from ..trees.tree import Tree
from .infinite_line import InfiniteLineRun, simulate_infinite_line

__all__ = ["Thm31Instance", "build_thm31_instance", "find_state_repetition"]


class Thm31Instance(TupleRecord):
    """A defeating instance for one concrete agent under arbitrary delay."""

    __slots__ = ()

    def __new__(
        cls,
        tree: Tree,
        start1: int,
        start2: int,
        delay: int,
        delayed: int,
        kind: str,  # "drifting" or "bounded"
        memory_bits: int,
        outcome: Optional[RendezvousOutcome],
    ):
        return tuple_new(cls, (
            tree, start1, start2, delay, delayed, kind, memory_bits, outcome,
        ))

    @property
    def line_edges(self) -> int:
        return self.tree.num_edges

    @property
    def certified(self) -> bool:
        return self.outcome is not None and self.outcome.certified_never


def find_state_repetition(
    run: InfiniteLineRun,
) -> Optional[tuple[int, int, int, int, int]]:
    """First leave-event pair (t1, x1, t2, x2, s): same state, distinct
    positions at *even* distance (coloring-phase aligned).

    ``t2`` is the first event with an earlier partner, and ``t1`` its
    earliest partner.  One pass, O(1) per event: it keeps the first event
    of each (state, position parity) class.  Until the answer, every event
    of a class sits at its first event's position (a second position would
    have been the answer), so the answer is the first event whose class
    began elsewhere, and that first event is its earliest partner.
    """
    first: dict[tuple[int, int], tuple[int, int]] = {}
    for ev in run.leave_events:
        key = (ev.state, ev.position % 2)
        t1, x1 = first.setdefault(key, (ev.round_index, ev.position))
        if x1 != ev.position:
            return (t1, x1, ev.round_index, ev.position, ev.state)
    return None


def build_thm31_instance(
    automaton: LineAutomaton,
    *,
    verify: bool = True,
    verify_rounds: int = 2_000_000,
) -> Thm31Instance:
    """Construct (and certify) the Theorem 3.1 defeating instance."""
    k = automaton.num_states
    sim_rounds = 80 * (k + 2)
    run = simulate_infinite_line(automaton, sim_rounds)
    pair = find_state_repetition(run)

    if pair is None:
        instance = _bounded_instance(automaton, run)
    else:
        instance = _drifting_instance(automaton, run, pair)

    if verify:
        outcome = run_rendezvous_fast(
            instance.tree,
            automaton,
            instance.start1,
            instance.start2,
            delay=instance.delay,
            delayed=instance.delayed,
            max_rounds=verify_rounds,
            certify=True,
        )
        if outcome.met:
            raise ConstructionError(
                "Thm 3.1 construction failed: the agents met at round "
                f"{outcome.meeting_round}"
            )
        if not outcome.certified_never:  # pragma: no cover - budget too small
            raise ConstructionError(
                "Thm 3.1 verification inconclusive: raise verify_rounds"
            )
        return Thm31Instance(
            instance.tree,
            instance.start1,
            instance.start2,
            instance.delay,
            instance.delayed,
            instance.kind,
            automaton.memory_bits,
            outcome,
        )
    return instance


def _drifting_instance(
    automaton: LineAutomaton,
    run: InfiniteLineRun,
    pair: tuple[int, int, int, int, int],
) -> Thm31Instance:
    t1, x1, t2, x2, _state = pair
    d = x2 - x1  # even, nonzero
    lo, hi = run.span(t2)  # the prefix the u-agent traces before time t2
    # The v-agent mirrors the u-agent translated by -d; its pre-t2 span is
    # the mirror of [U - d + lo, U - d + hi].  Fit both strictly on their
    # sides of the central edge.
    width = (hi - lo) + abs(d) + 2
    half = max(4 * (automaton.num_states + 1), width + 2)
    num_edges = 2 * half + 1
    n = num_edges + 1
    tree = thm31_line_labeling(n)
    mid = half  # left extremity of the central edge
    u = mid - max(hi, hi - d)
    if u + min(lo, lo - d) < 1:  # pragma: no cover - sizing prevents this
        raise ConstructionError("Thm 3.1 sizing failed to fit the prefix")
    v = (n - 1) - (u - d)  # M(U - d)
    theta = t2 - t1
    if perfectly_symmetrizable(tree, u, v):  # pragma: no cover - d != 0
        raise ConstructionError("Thm 3.1 produced a symmetrizable pair")
    return Thm31Instance(
        tree, u, v, theta, 1, "drifting", automaton.memory_bits, None
    )


def _bounded_instance(
    automaton: LineAutomaton, run: InfiniteLineRun
) -> Thm31Instance:
    placement = bounded_agent_placement(run.max_distance())
    return Thm31Instance(
        placement.tree,
        placement.start1,
        placement.start2,
        0,
        1,
        "bounded",
        automaton.memory_bits,
        None,
    )
