"""Functional-digraph analysis of an automaton's degree-2 behavior (§4.2).

The Ω(log log n) lower bound studies the transition function
``π' : S → S`` applied at degree-2 nodes of the edge-colored line.  Its
*transition digraph* (one out-arc per state) decomposes into connected
components, each a circuit with in-trees hanging off it.  The construction
needs:

- the circuits ``C_1 .. C_r`` and ``γ = lcm(|C_1|, .., |C_r|)``;
- for each state, the tail length before its orbit enters a circuit;
- (in :mod:`repro.lowerbounds.loglog_line`) the *extreme position* of a
  circuit — the farthest point of the spatial displacement pattern one full
  circuit execution produces.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ..records import TupleRecord, tuple_new

__all__ = [
    "FunctionalDigraph",
    "CircuitProfile",
    "analyze_functional",
    "circuit_profile",
    "lcm_of",
]


def lcm_of(values: Sequence[int]) -> int:
    out = 1
    for v in values:
        out = math.lcm(out, v)
    return out


class FunctionalDigraph(TupleRecord):
    """Decomposition of a functional graph ``f : S -> S``.

    Attributes
    ----------
    f:
        The function as a table.
    circuits:
        The vertex lists of all directed cycles, each listed in orbit order.
    circuit_of:
        ``circuit_of[s]`` is the index (into ``circuits``) of the circuit the
        orbit of ``s`` eventually enters.
    tail_length:
        Number of applications of ``f`` before ``s``'s orbit first lands on
        its circuit (0 when ``s`` is itself a circuit state).
    gamma:
        ``lcm`` of all circuit lengths — the paper's γ.
    """

    __slots__ = ()

    def __new__(
        cls,
        f: tuple[int, ...],
        circuits: tuple[tuple[int, ...], ...],
        circuit_of: tuple[int, ...],
        tail_length: tuple[int, ...],
        gamma: int,
    ):
        return tuple_new(cls, (f, circuits, circuit_of, tail_length, gamma))

    @property
    def num_states(self) -> int:
        return len(self.f)

    def on_circuit(self, s: int) -> bool:
        return self.tail_length[s] == 0

    def circuit_length(self, s: int) -> int:
        return len(self.circuits[self.circuit_of[s]])

    def max_tail(self) -> int:
        return max(self.tail_length)


def analyze_functional(f: Sequence[int]) -> FunctionalDigraph:
    """Decompose the functional graph of ``f`` (table of size ``|S|``).

    Linear time: iterative cycle detection with three-color marking.
    """
    n = len(f)
    table = tuple(int(x) for x in f)
    for s in table:
        if not (0 <= s < n):
            raise ValueError("functional table maps outside the state set")

    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * n
    circuits: list[tuple[int, ...]] = []
    circuit_of = [-1] * n
    tail = [-1] * n

    for root in range(n):
        if color[root] != WHITE:
            continue
        # Walk the orbit until hitting a processed state or revisiting a gray one.
        path: list[int] = []
        s = root
        while color[s] == WHITE:
            color[s] = GRAY
            path.append(s)
            s = table[s]
        if color[s] == GRAY:
            # Found a fresh cycle: it starts at the first occurrence of s.
            start = path.index(s)
            cycle = tuple(path[start:])
            idx = len(circuits)
            circuits.append(cycle)
            for v in cycle:
                circuit_of[v] = idx
                tail[v] = 0
            # The prefix of the path leads into this cycle.
            for offset, v in enumerate(reversed(path[:start]), start=1):
                circuit_of[v] = idx
                tail[v] = offset
        else:
            # Path drains into previously processed territory.
            idx = circuit_of[s]
            base = tail[s]
            for offset, v in enumerate(reversed(path), start=1):
                circuit_of[v] = idx
                tail[v] = base + offset
        for v in path:
            color[v] = BLACK

    gamma = lcm_of([len(c) for c in circuits])
    return FunctionalDigraph(
        f=table,
        circuits=tuple(circuits),
        circuit_of=tuple(circuit_of),
        tail_length=tuple(tail),
        gamma=gamma,
    )


class CircuitProfile(TupleRecord):
    """Circuit structure of an automaton, per observation of an alphabet.

    The paper's γ analysis fixes *one* observation (degree 2 on the line:
    π') and decomposes its functional digraph.  A general automaton over
    an alphabet of ``(in_port, degree)`` observations has one functional
    restriction per observation; this profile carries them all, plus the
    natural aggregates the program-atlas rows report:

    - ``gamma`` — lcm of the per-observation γ's: the period after which
      *any* repeated fixed observation provably cycles the machine;
    - ``circuits`` — total circuit count across observations;
    - ``max_tail`` — the longest burn-in before any orbit under any
      single observation reaches its circuit.
    """

    __slots__ = ()

    def __new__(
        cls,
        alphabet: tuple[tuple[int, int], ...],
        per_observation: tuple[FunctionalDigraph, ...],
    ):
        return tuple_new(cls, (alphabet, per_observation))

    @property
    def gamma(self) -> int:
        return lcm_of([d.gamma for d in self.per_observation])

    @property
    def circuits(self) -> int:
        return sum(len(d.circuits) for d in self.per_observation)

    @property
    def max_tail(self) -> int:
        return max(d.max_tail() for d in self.per_observation)

    def observation(self, in_port: int, degree: int) -> FunctionalDigraph:
        """The functional decomposition for one observation."""
        return self.per_observation[self.alphabet.index((in_port, degree))]


def circuit_profile(automaton, alphabet=None) -> CircuitProfile:
    """Per-observation functional decomposition of an automaton.

    ``automaton`` is anything with ``num_states`` and
    ``transition(state, in_port, degree)``; ``alphabet`` defaults to the
    automaton's own (a lowered automaton knows its lowering alphabet).
    This is the seam that feeds minimized lowered machines into the §4.2
    circuit machinery: on a line automaton with alphabet
    ``[(0, 1), (0, 2)]``, ``profile.observation(0, 2)`` is exactly the
    π'-digraph the Theorem 4.2 construction consumes.
    """
    if alphabet is None:
        declared = getattr(automaton, "alphabet", None)
        if declared is None:
            raise ValueError(
                "automaton carries no observation alphabet; pass one explicitly"
            )
        alphabet = sorted(declared)
    alphabet = tuple((int(ip), int(d)) for ip, d in alphabet)
    per = tuple(
        analyze_functional(
            [automaton.transition(s, ip, d) for s in range(automaton.num_states)]
        )
        for ip, d in alphabet
    )
    return CircuitProfile(alphabet=alphabet, per_observation=per)
