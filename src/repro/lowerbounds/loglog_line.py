"""Theorem 4.2: the simultaneous-start adversary (Ω(log log n) on the line).

Given a concrete line agent, build a properly 2-edge-colored line of length
``x + x' + 1`` on which two copies started *simultaneously* at the two
extremities of a distinguished edge ``e`` never meet, despite the positions
not being perfectly symmetrizable.

Construction (paper §4.2):

1.  The transition function at degree-2 nodes is the functional
    ``π' : S -> S``; let γ = lcm of its circuit lengths
    (:mod:`repro.agents.digraph`).
2.  Watch one agent on the infinite colored line.  On the infinite line
    every observation has degree 2, so the state sequence is exactly the
    π'-orbit: eventually the agent cycles through one circuit C_i.  If its
    net drift per circuit is zero the agent is *bounded* and a disjoint-
    ranges line (with a central node, so all pairs are feasible) defeats
    it.  Otherwise:
3.  Take ``t0`` = first time the agent is at distance >= 2γ + |S| from its
    start, ``τ`` = the first of the next |C_i| rounds at which it stands on
    the circuit's *extreme position* (the farthest point of one circuit
    execution, in the drift direction), ``x`` = its distance from the start
    at τ, and ``x' `` = its distance at ``τ' = τ + 2γ`` (x' > x since it
    keeps drifting).
4.  The line L: ``x`` edges, then edge ``e``, then ``x'`` edges, properly
    2-edge-colored with the same phase the agent saw around its start; the
    agents start at the two extremities of ``e``.  Since ``x ≠ x'`` the
    pair is not perfectly symmetrizable, yet (Lemmas 4.5-4.8: parity +
    bouncing-period separation) the agents never meet.

The returned instance is machine-certified by configuration recurrence.
"""

from __future__ import annotations

from typing import Optional

from ..agents.automaton import LineAutomaton
from ..agents.digraph import analyze_functional
from ..errors import ConstructionError
from ..records import TupleRecord, tuple_new
from ..sim.compiled import run_rendezvous_fast
from ..sim.engine import RendezvousOutcome
from ..trees.automorphism import perfectly_symmetrizable
from ..trees.labelings import edge_colored_line
from .common import bounded_agent_placement
from ..trees.tree import Tree
from .infinite_line import simulate_infinite_line

__all__ = ["Thm42Instance", "build_thm42_instance"]


class Thm42Instance(TupleRecord):
    """A defeating simultaneous-start instance for one concrete agent."""

    __slots__ = ()

    def __new__(
        cls,
        tree: Tree,
        start1: int,
        start2: int,
        kind: str,  # "drifting" or "bounded"
        gamma: int,
        x: int,
        x_prime: int,
        memory_bits: int,
        outcome: Optional[RendezvousOutcome],
    ):
        return tuple_new(cls, (
            tree, start1, start2, kind, gamma, x, x_prime, memory_bits, outcome,
        ))

    @property
    def line_edges(self) -> int:
        return self.tree.num_edges

    @property
    def certified(self) -> bool:
        return self.outcome is not None and self.outcome.certified_never


def build_thm42_instance(
    automaton: LineAutomaton,
    *,
    verify: bool = True,
    verify_rounds: int = 4_000_000,
) -> Thm42Instance:
    """Construct (and certify) the Theorem 4.2 defeating instance."""
    digraph = analyze_functional(automaton.pi_prime())
    gamma = digraph.gamma
    k = automaton.num_states

    # Enough rounds to reach distance 2γ + K and then some: the drift per
    # circuit is at least 1 when nonzero, so O((2γ + K) · γ + K) rounds do.
    horizon = 4 * (2 * gamma + k + 2) * (gamma + 1) + 8 * (k + 2)
    run = simulate_infinite_line(automaton, horizon)

    instance = _try_drifting(automaton, run, gamma, k)
    if instance is None:
        placement = bounded_agent_placement(run.max_distance())
        instance = Thm42Instance(
            placement.tree,
            placement.start1,
            placement.start2,
            "bounded",
            gamma,
            0,
            0,
            automaton.memory_bits,
            None,
        )

    if verify:
        outcome = run_rendezvous_fast(
            instance.tree,
            automaton,
            instance.start1,
            instance.start2,
            delay=0,
            max_rounds=verify_rounds,
            certify=True,
        )
        if outcome.met:
            raise ConstructionError(
                f"Thm 4.2 construction failed: agents met at round {outcome.meeting_round}"
            )
        if not outcome.certified_never:  # pragma: no cover
            raise ConstructionError("Thm 4.2 verification inconclusive")
        return Thm42Instance(
            instance.tree,
            instance.start1,
            instance.start2,
            instance.kind,
            instance.gamma,
            instance.x,
            instance.x_prime,
            instance.memory_bits,
            outcome,
        )
    return instance


def _try_drifting(
    automaton: LineAutomaton, run, gamma: int, k: int
) -> Optional[Thm42Instance]:
    """The drifting branch; None if the agent never goes far enough."""
    threshold = 2 * gamma + k
    t0 = next(
        (t for t, p in enumerate(run.positions) if abs(p) >= threshold), None
    )
    if t0 is None or t0 + 3 * gamma + k + 2 > run.rounds:
        return None

    # The agent's state at t0 lies on its π'-circuit (t0 > |S|); one circuit
    # execution spans the next |C_i| rounds.  Find the extreme position: the
    # farthest point reached during one circuit execution, in the direction
    # that extends away from the start (paper's definition via
    # dist(u0,uj) = dist(u0,uk) + dist(uk,uj)).
    state_t0 = run.states[t0] if t0 >= 1 else automaton.initial_state
    digraph = analyze_functional(automaton.pi_prime())
    circuit_len = digraph.circuit_length(state_t0)
    window = run.positions[t0 : t0 + circuit_len + 1]
    u0, uk = window[0], window[-1]
    drift = uk - u0
    if drift == 0:
        return None  # zero net drift: treat as bounded
    # Extreme position: farthest in the drift direction within the window.
    if drift > 0:
        extreme = max(window)
    else:
        extreme = min(window)
    # τ: first round in (t0, t0 + circuit_len] standing on the extreme.
    tau = next(
        t for t in range(t0, t0 + circuit_len + 1) if run.positions[t] == extreme
    )
    x = abs(run.positions[tau])
    tau_prime = tau + 2 * gamma
    if tau_prime > run.rounds:  # pragma: no cover - horizon prevents this
        raise ConstructionError("Thm 4.2 horizon too small")
    x_prime = abs(run.positions[tau_prime])
    if x_prime == x:  # pragma: no cover - drift guarantees x' > x
        raise ConstructionError("Thm 4.2: x' == x despite drift")

    # Build L: x edges | e | x' edges, oriented so that the u-agent's drift
    # direction points into its own x-edge side (it must hit that extremity
    # at time τ, as Lemma 4.6's bookkeeping requires).  Coloring phase: in
    # the infinite run the agent started at node 0 and edge {p, p+1} has
    # color p mod 2; translate so the u-agent's start plays the role of 0.
    num_nodes = x + x_prime + 2
    if drift < 0:
        # u-agent at node x drifting left; finite edge {x+j, x+j+1} must
        # carry color j mod 2  =>  first_color = x mod 2.
        start1, start2 = x, x + 1
        tree = edge_colored_line(num_nodes, first_color=x % 2)
    else:
        # Mirror layout: u-agent at node x'+1 drifting right; edge
        # {x'+1, x'+2} plays the role of infinite edge {0, 1} (color 0)
        # =>  first_color = (x'+1) mod 2.
        start1, start2 = x_prime + 1, x_prime
        tree = edge_colored_line(num_nodes, first_color=(x_prime + 1) % 2)
    if perfectly_symmetrizable(tree, start1, start2):  # pragma: no cover
        raise ConstructionError("Thm 4.2 produced a symmetrizable pair")
    return Thm42Instance(
        tree, start1, start2, "drifting", gamma, x, x_prime,
        automaton.memory_bits, None,
    )
