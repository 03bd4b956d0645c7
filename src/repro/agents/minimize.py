"""Automaton minimization: the honest memory measure for every agent shape.

The paper measures an automaton's memory as ⌈log₂ K⌉ bits, so a fair
comparison between agents requires K to be *minimal*: an agent padded with
unreachable or behaviorally equivalent states should not be charged for
them.  This module provides Moore-style partition refinement at three
granularities:

1. :func:`minimize_automaton` — the general engine, over an explicit
   observation alphabet of ``(in_port, degree)`` pairs.  This is what the
   program-lowering pipeline feeds: a
   :class:`~repro.agents.lowering.LoweredAutomaton` carries its lowering
   alphabet and is minimized over exactly the observations it was
   enumerated for (unreachable-state pruning, then output/transition
   refinement to a fixed point).  Results are cached on the automaton —
   the program-atlas grid re-analyzes the same lowered machines across
   trees, so each machine pays for one refinement ever.
2. :func:`minimize_line_automaton` / :func:`minimize_tree_automaton` —
   the historical entry points for :class:`LineAutomaton` (degree-only
   alphabet) and bounded-degree tree automata, now thin wrappers over the
   general engine.
3. :func:`minimize_lassos` — the linear-time special case for *traced
   lassos* (:mod:`repro.sim.traced`): a family of eventually-periodic
   action chains, one per start node of a tree, minimized jointly.  Moore
   refinement on a chain needs O(length) sweeps (distinguishing
   information travels one edge per sweep), hopeless at trace scale;
   instead each lasso's cycle is reduced to its minimal period in
   canonical rotation and the tails are folded backwards through a shared
   suffix-interning table, which is the same fixed point computed in
   O(total length).  Cross-chain sharing is the point: the Theorem 4.1
   agent's traces from different starts converge to the same steady-state
   behavior (PR 4's dead-state release is what makes the machine states
   equal), and the joint minimal automaton exposes exactly how much of
   the per-start tables is shared behavior rather than genuine state.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple, Optional

from .automaton import Automaton, LineAutomaton

__all__ = [
    "MinimizationResult",
    "AutomatonMinimization",
    "LassoFamilyMinimization",
    "minimize_automaton",
    "minimize_line_automaton",
    "minimize_tree_automaton",
    "minimize_lassos",
    "automata_equivalent",
    "behaviorally_equivalent",
]

# Observation alphabet of a line automaton: degree 1 or degree 2 (the entry
# port is implied by the edge coloring — §4.2 of the paper).
_OBS = (1, 2)
_LINE_ALPHABET = ((0, 1), (0, 2))


# ----------------------------------------------------------------------
# The refinement engine
# ----------------------------------------------------------------------

def _reachable(automaton: Automaton, alphabet) -> list[int]:
    seen = {automaton.initial_state}
    stack = [automaton.initial_state]
    while stack:
        s = stack.pop()
        for ip, d in alphabet:
            nxt = automaton.transition(s, ip, d)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return sorted(seen)


def _moore_blocks(
    automaton: Automaton, reachable: Sequence[int], alphabet
) -> dict[int, int]:
    """Coarsest output/transition-stable partition of ``reachable``."""
    block_of: dict[int, int] = {}
    signature_to_block: dict[tuple, int] = {}
    for s in reachable:
        sig = (automaton.output[s],)
        block_of[s] = signature_to_block.setdefault(sig, len(signature_to_block))
    while True:
        signature_to_block = {}
        new_block_of: dict[int, int] = {}
        for s in reachable:
            sig = (
                automaton.output[s],
                tuple(
                    block_of[automaton.transition(s, ip, d)] for ip, d in alphabet
                ),
            )
            new_block_of[s] = signature_to_block.setdefault(
                sig, len(signature_to_block)
            )
        if new_block_of == block_of:
            return block_of
        block_of = new_block_of


class AutomatonMinimization(NamedTuple):
    """Outcome of general-alphabet minimization.

    ``state_map[s]`` gives the minimal automaton's state representing the
    original state ``s`` (only defined for reachable states).
    """

    original: Automaton
    minimized: Automaton
    state_map: dict[int, int]
    alphabet: tuple[tuple[int, int], ...]

    @property
    def original_states(self) -> int:
        return self.original.num_states

    @property
    def minimal_states(self) -> int:
        return self.minimized.num_states

    @property
    def bits_saved(self) -> int:
        return self.original.memory_bits - self.minimized.memory_bits


def minimize_automaton(
    automaton: Automaton,
    alphabet: Optional[Sequence[tuple[int, int]]] = None,
    *,
    cache: bool = True,
) -> AutomatonMinimization:
    """Minimize an automaton over an observation alphabet.

    ``alphabet`` is the list of ``(in_port, degree)`` observations the
    minimal machine must agree on; when omitted it is read off the
    automaton's own ``alphabet`` attribute (a
    :class:`~repro.agents.lowering.LoweredAutomaton` knows the
    observations it was enumerated for).  The quotient is a plain table
    :class:`Automaton` restricted to that alphabet.

    Results are cached per (automaton object, alphabet): the atlas grid
    asks for the same lowered machine under the same alphabet once per
    tree, and the refinement must run once, not once per row.
    """
    if alphabet is None:
        declared = getattr(automaton, "alphabet", None)
        if declared is None:
            raise ValueError(
                "automaton carries no observation alphabet; pass one explicitly"
            )
        alphabet = sorted(declared)
    alphabet = tuple((int(ip), int(d)) for ip, d in alphabet)
    if not alphabet:
        raise ValueError("minimization needs a non-empty observation alphabet")

    if cache:
        store = automaton.__dict__.setdefault("_minimization_cache", {})
        hit = store.get(alphabet)
        if hit is not None:
            return hit

    reachable = _reachable(automaton, alphabet)
    block_of = _moore_blocks(automaton, reachable, alphabet)
    num_blocks = len(set(block_of.values()))
    representatives: dict[int, int] = {}
    for s in reachable:
        representatives.setdefault(block_of[s], s)
    table: dict[tuple[int, int, int], int] = {}
    outputs = []
    for block in range(num_blocks):
        rep = representatives[block]
        outputs.append(automaton.output[rep])
        for ip, d in alphabet:
            table[(block, ip, d)] = block_of[automaton.transition(rep, ip, d)]
    minimized = Automaton(
        num_blocks, table, outputs, block_of[automaton.initial_state]
    )
    result = AutomatonMinimization(automaton, minimized, dict(block_of), alphabet)
    if cache:
        automaton.__dict__["_minimization_cache"][alphabet] = result
    return result


# ----------------------------------------------------------------------
# Historical entry points (line / bounded-degree tree automata)
# ----------------------------------------------------------------------

class MinimizationResult(NamedTuple):
    """Outcome of line-automaton minimization.

    ``state_map[s]`` gives the minimal automaton's state representing the
    original state ``s`` (only defined for reachable states).
    """

    original: LineAutomaton
    minimized: LineAutomaton
    state_map: dict[int, int]

    @property
    def original_states(self) -> int:
        return self.original.num_states

    @property
    def minimal_states(self) -> int:
        return self.minimized.num_states

    @property
    def bits_saved(self) -> int:
        return self.original.memory_bits - self.minimized.memory_bits


def minimize_line_automaton(automaton: LineAutomaton) -> MinimizationResult:
    """Minimize a line automaton by Moore partition refinement.

    Same engine as :func:`minimize_automaton` over the degree-only line
    alphabet, with the quotient rebuilt as a :class:`LineAutomaton` so
    the lower-bound constructions (``pi_prime`` and friends) keep
    working on the minimal machine.
    """
    general = minimize_automaton(automaton, _LINE_ALPHABET, cache=False)
    quotient = general.minimized
    minimized = LineAutomaton(
        [
            (quotient.transition(b, 0, 1), quotient.transition(b, 0, 2))
            for b in range(quotient.num_states)
        ],
        quotient.output,
        initial_state=quotient.initial_state,
    )
    return MinimizationResult(automaton, minimized, dict(general.state_map))


def automata_equivalent(
    a: Automaton,
    b: Automaton,
    alphabet: Sequence[tuple[int, int]],
    max_steps: Optional[int] = None,
) -> bool:
    """Do two automata produce identical actions on every observation
    sequence over ``alphabet``?  Product walk over the reachable pair
    space — finite, so the check is exact; ``max_steps`` optionally
    bounds the walk as belt and braces.
    """
    if a.output[a.initial_state] != b.output[b.initial_state]:
        return False
    seen = set()
    stack = [(a.initial_state, b.initial_state)]
    steps = 0
    while stack and (max_steps is None or steps < max_steps):
        sa, sb = stack.pop()
        if (sa, sb) in seen:
            continue
        seen.add((sa, sb))
        steps += 1
        for ip, d in alphabet:
            na = a.transition(sa, ip, d)
            nb = b.transition(sb, ip, d)
            if a.output[na] != b.output[nb]:
                return False
            stack.append((na, nb))
    return True


def behaviorally_equivalent(
    a: LineAutomaton, b: LineAutomaton, horizon: int = 256
) -> bool:
    """Do two line automata produce identical actions on every observation
    sequence?  The line-alphabet instance of :func:`automata_equivalent`
    (``horizon`` scales the optional step bound, as before).
    """
    return automata_equivalent(
        a, b, _LINE_ALPHABET,
        max_steps=horizon * max(a.num_states, b.num_states),
    )


def minimize_tree_automaton(
    automaton: "Automaton", max_degree: int = 3
) -> tuple[int, dict[int, int]]:
    """Minimal state count of a general tree automaton (max degree bounded).

    Same engine as :func:`minimize_automaton`, over the full observation
    alphabet ``(in_port, degree)`` with ``in_port ∈ {-1, 0..max_degree-1}``
    and ``degree ∈ {1..max_degree}``.  Returns ``(minimal_states, block_of)``
    — enough for the honest-bits reporting of the Theorem 4.3 experiments
    (rebuilding a quotient ``Automaton`` is straightforward but unneeded).
    """
    obs = [
        (i, d)
        for i in range(-1, max_degree)
        for d in range(1, max_degree + 1)
    ]
    general = minimize_automaton(automaton, obs, cache=False)
    return general.minimal_states, dict(general.state_map)


# ----------------------------------------------------------------------
# Traced-lasso families (route B of the lowering subsystem)
# ----------------------------------------------------------------------

class LassoFamilyMinimization(NamedTuple):
    """The joint minimal automaton of a family of lassoed action chains.

    The input chains (one per start node of a tree, from
    :mod:`repro.sim.traced`) are observation-blind: state ``t`` of chain
    ``c`` emits its recorded action and steps to ``t + 1``, with the
    lasso's back edge closing the cycle.  The joint quotient identifies
    states with identical future action streams *across* chains, so the
    result is again functional: ``successor[q]`` is the unique next
    class, ready for
    :func:`~repro.agents.digraph.analyze_functional`.

    ``entries[c]`` is the class of chain ``c``'s initial state.
    """

    raw_states: int
    successor: tuple[int, ...]
    output: tuple[int, ...]
    entries: tuple[int, ...]

    @property
    def minimal_states(self) -> int:
        return len(self.successor)


def _minimal_period(cycle: Sequence[int]) -> int:
    """Smallest ``p`` (dividing ``len(cycle)``) with ``cycle`` p-periodic
    under rotation."""
    lam = len(cycle)
    for cand in range(1, lam):
        if lam % cand:
            continue
        if all(cycle[i] == cycle[(i + cand) % lam] for i in range(lam)):
            return cand
    return lam


def _canonical_rotation(seq: Sequence[int]) -> int:
    """Index of the lexicographically minimal rotation (Booth)."""
    doubled = list(seq) + list(seq)
    n = len(doubled)
    fail = [-1] * n
    k = 0
    for j in range(1, n):
        sj = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and sj != doubled[k + i + 1]:
            if sj < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != doubled[k + i + 1]:
            if sj < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k % len(seq)


def minimize_lassos(
    lassos: Sequence[tuple[Sequence[int], int]],
) -> LassoFamilyMinimization:
    """Jointly minimize a family of lassoed action chains, in linear time.

    Each lasso is ``(actions, back)``: the chain's per-round actions, and
    the index its final state steps back to (``len(actions) - 1`` for a
    finished trace, whose last state absorbs).  Two chain states are
    equivalent iff their future action streams coincide; the fixed point
    is computed directly — minimal cycle period in canonical rotation,
    then tails interned backwards on ``(action, successor class)`` — so
    the cost is O(total chain length), not the O(length²) a naive Moore
    sweep needs on chains.
    """
    classes: dict[tuple, int] = {}
    successor: list[int] = []
    output: list[int] = []

    def new_class(action: int, succ: int) -> int:
        cid = len(successor)
        successor.append(succ)
        output.append(action)
        return cid

    entries = []
    raw = 0
    for actions, back in lassos:
        actions = list(actions)
        m = len(actions)
        if not (0 <= back < m):
            raise ValueError(f"lasso back edge {back} outside chain of {m}")
        raw += m
        cycle = actions[back:]
        p = _minimal_period(cycle)
        core = cycle[:p]
        rot = _canonical_rotation(core)
        canon = tuple(core[rot:] + core[:rot])
        cycle_key = ("cycle", canon)
        base = classes.get(cycle_key)
        if base is None:
            base = len(successor)
            for i in range(p):
                new_class(canon[i], 0)
            for i in range(p):
                successor[base + i] = base + (i + 1) % p
                classes[(canon[i], successor[base + i])] = base + i
            classes[cycle_key] = base
        # Chain state ``back`` emits core[0] == canon[(p - rot) % p].
        cur = base + (p - rot) % p
        for t in range(back - 1, -1, -1):
            key = (actions[t], cur)
            got = classes.get(key)
            if got is None:
                got = new_class(actions[t], cur)
                classes[key] = got
            cur = got
        entries.append(cur)
    return LassoFamilyMinimization(
        raw_states=raw,
        successor=tuple(successor),
        output=tuple(output),
        entries=tuple(entries),
    )
