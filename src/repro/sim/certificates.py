"""Non-meeting certificates: machine-checkable impossibility proofs.

For finite-state agents, the engine's ``certify=True`` flag detects a
repeated joint configuration.  This module upgrades that detection into a
*standalone proof object*: a :class:`NonMeetingCertificate` records the
lasso (prefix + cycle) of joint configurations and can be re-verified
independently of the run that produced it — replaying each transition with
the pure automaton semantics and checking

1. every consecutive pair of configurations follows the model's round rule;
2. no configuration in the lasso has the two agents co-located;
3. the cycle closes (last configuration's successor is the cycle head).

Together these prove the agents never meet, ever.  The lower-bound
builders attach certificates to their instances; tests and users can call
``certificate.verify()`` at any time, e.g. after deserializing an instance
from JSON.

A :class:`SymmetryCertificate` is the paper's Fact 1.1 as a proof object,
and it needs no run at all.  It records a port-preserving automorphism
``f`` of the tree with ``f(start1) = start2``.  Two identical
deterministic agents started together at ``start1`` and ``start2`` see
the same degree and entry port in every round, so they take the same
action and stay ``f``-related: agent 2 is always at ``f`` of agent 1's
node.  ``f`` has no fixed node, so the agents never meet.  The argument
holds for any agent (automaton or register program), but only with
delay 0, identical agents and no faults.  Every engine tier's
``certify=True`` path returns this verdict before round 1 (see
:func:`symmetry_certificate`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..agents.automaton import Automaton
from ..agents.observations import NULL_PORT, STAY, resolve_action
from ..errors import SimulationError
from ..trees.automorphism import port_preserving_automorphism
from ..trees.tree import Tree
from .delays import delay_vector
from .engine import _AgentState, _step

__all__ = [
    "JointConfig",
    "NonMeetingCertificate",
    "SymmetryCertificate",
    "build_certificate",
    "symmetry_certificate",
]


class JointConfig(NamedTuple):
    """One joint configuration: everything that determines the future."""

    pos1: int
    state1: int
    in1: int
    pos2: int
    state2: int
    in2: int

    @property
    def meeting(self) -> bool:
        return self.pos1 == self.pos2

    def key(self) -> tuple:
        return (self.pos1, self.state1, self.in1, self.pos2, self.state2, self.in2)


def _advance_one(tree: Tree, automaton: Automaton, pos: int, state: int, in_port: int):
    """Pure one-round successor of a single agent (no engine state)."""
    degree = tree.degree(pos)
    nxt_state = automaton.transition(state, in_port, degree)
    action = resolve_action(automaton.output[nxt_state], degree)
    if action == STAY:
        return pos, nxt_state, NULL_PORT
    nxt_pos, nxt_in = tree.move(pos, action)
    return nxt_pos, nxt_state, nxt_in


class NonMeetingCertificate(NamedTuple):
    """A lasso of joint configurations proving eternal non-meeting.

    ``prefix`` runs from the first both-started configuration to the cycle
    head; ``cycle`` is the repeating part (head included once).  The
    pre-start phase (delay warm-up) is covered by ``warmup_ok`` computed at
    build time: the builder checks no meeting occurs before the lasso
    begins (finitely many rounds).
    """

    tree: Tree
    automaton: Automaton
    start1: int
    start2: int
    delay: int
    delayed: int
    prefix: tuple[JointConfig, ...]
    cycle: tuple[JointConfig, ...]

    @property
    def lasso_length(self) -> int:
        return len(self.prefix) + len(self.cycle)

    def verify(self) -> bool:
        """Re-check the certificate from scratch; raises on malformation,
        returns True when the proof is valid."""
        if not self.cycle:
            raise SimulationError("certificate has an empty cycle")
        chain = list(self.prefix) + list(self.cycle)
        for config in chain:
            if config.meeting:
                return False
        for here, there in zip(chain, chain[1:]):
            if self._successor(here) != there:
                return False
        # The cycle must close onto its own head.
        if self._successor(chain[-1]) != self.cycle[0]:
            return False
        # Finally, the warm-up: replay from the true starts up to the
        # prefix head and check no meeting en route.
        return self._warmup_reaches(chain[0])

    def _successor(self, config: JointConfig) -> JointConfig:
        p1, s1, i1 = _advance_one(
            self.tree, self.automaton, config.pos1, config.state1, config.in1
        )
        p2, s2, i2 = _advance_one(
            self.tree, self.automaton, config.pos2, config.state2, config.in2
        )
        return JointConfig(p1, s1, i1, p2, s2, i2)

    def _warmup_reaches(self, target: JointConfig) -> bool:
        """Replay the delayed startup and confirm it reaches ``target``
        without a meeting."""
        from .engine import run_rendezvous

        horizon = self.delay + self.lasso_length + 4
        outcome = run_rendezvous(
            self.tree,
            self.automaton,
            self.start1,
            self.start2,
            delay=self.delay,
            delayed=self.delayed,
            max_rounds=horizon,
            record_trace=True,
        )
        if outcome.met:
            return False
        assert outcome.trace is not None
        return any(
            (rec.pos1, rec.pos2) == (target.pos1, target.pos2)
            for rec in outcome.trace.records
        )


class SymmetryCertificate(NamedTuple):
    """Fact 1.1: a port-preserving involution carrying ``start1`` to
    ``start2`` proves that two identical agents started together there
    never meet.

    ``mapping[x]`` is ``f(x)``.  The proof covers the simultaneous-start,
    identical-agent, fault-free instance only: a delay or a fault breaks
    the lockstep, and two different agents need not act alike.
    """

    tree: Tree
    start1: int
    start2: int
    mapping: tuple[int, ...]

    def verify(self) -> bool:
        """Re-check ``f`` edge by edge, without the builder's search.

        ``f`` must be a fixed-point-free involution of the nodes that
        carries ``start1`` to ``start2`` and maps every edge leaving
        ``x`` by port ``p`` to the edge leaving ``f(x)`` by port ``p``.
        Checked at every node, that covers both ends of every edge.
        """
        tree, f = self.tree, self.mapping
        n = tree.n
        if len(f) != n or not (0 <= self.start1 < n and 0 <= self.start2 < n):
            return False
        if f[self.start1] != self.start2:
            return False
        for x, fx in enumerate(f):
            if not 0 <= fx < n or fx == x or f[fx] != x:
                return False
            if tree.neighbors(fx) != tuple(f[y] for y in tree.neighbors(x)):
                return False
        return True


def symmetry_certificate(
    tree: Tree, start1: int, start2: int
) -> Optional[SymmetryCertificate]:
    """The :class:`SymmetryCertificate` for ``(start1, start2)``, or
    ``None`` when the tree's labeling has no port-preserving automorphism
    carrying one start to the other.  O(n).

    The caller owns the other premises: delay 0, identical agents and
    an empty fault plan.
    """
    # A fixed-point-free involution needs an even node count, and f
    # preserves degrees.
    if start1 == start2 or tree.n % 2 or tree.degree(start1) != tree.degree(start2):
        return None
    f = port_preserving_automorphism(tree)
    if f is None or f[start1] != start2:
        return None
    return SymmetryCertificate(
        tree, start1, start2, tuple(f[x] for x in range(tree.n))
    )


def build_certificate(
    tree: Tree,
    automaton: Automaton,
    start1: int,
    start2: int,
    *,
    delay: int = 0,
    delayed: int = 2,
    max_rounds: int = 2_000_000,
) -> NonMeetingCertificate:
    """Run the instance and extract the configuration lasso.

    Raises :class:`SimulationError` if the agents actually meet or the
    budget is exhausted before a recurrence.
    """
    # Warm up through the delay phase with the reference tier's agent
    # steps, then track pure joint configurations.
    a1, a2 = agents = [
        _AgentState(automaton.clone(), start, start_round)
        for start, start_round in zip(
            (start1, start2), delay_vector(delay, delayed)
        )
    ]
    if start1 == start2:
        raise SimulationError("instance meets at round 0")

    seen: dict[tuple, int] = {}
    configs: list[JointConfig] = []

    for rnd in range(1, max_rounds + 1):
        for a in agents:
            _step(tree, a, rnd)
        if a1.pos == a2.pos:
            raise SimulationError(f"agents met at round {rnd}: no certificate")
        if a1.started and a2.started:
            config = JointConfig(
                a1.pos, a1.agent.state, a1.in_port,
                a2.pos, a2.agent.state, a2.in_port,
            )
            idx = seen.get(config.key())
            if idx is not None:
                return NonMeetingCertificate(
                    tree,
                    automaton,
                    start1,
                    start2,
                    delay,
                    delayed,
                    tuple(configs[:idx]),
                    tuple(configs[idx:]),
                )
            seen[config.key()] = len(configs)
            configs.append(config)
    raise SimulationError("no recurrence within the round budget")
