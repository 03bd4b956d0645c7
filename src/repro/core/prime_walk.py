"""The prime-speed rendezvous protocol on paths (Lemma 4.1).

Protocol ``prime`` for two identical *blind* agents on an m-node path:

    start in an arbitrary direction;
    move at speed 1 until reaching one extremity of the path;
    p <- 2
    while no rendezvous:
        traverse the entire path twice, at speed 1/p
        p <- smallest prime larger than p

Speed ``1/s`` means the agent idles ``s-1`` rounds before traversing each
edge.  ``prime(i)`` is the variant that stops after the i-th prime.  The
lemma: whenever blind rendezvous on the path is feasible (m odd, or m even
and the starts not mirror-symmetric), the agents meet by prime index
``O(log m)`` — memory O(log log m) bits: the protocol stores only the
current prime and an idle countdown.

The same routine runs on the *virtual* rendezvous path P of Theorem 4.1 via
a navigator object (see :mod:`repro.core.rendezvous_path`); a navigator
encapsulates "traverse the path once from the extremity you are at".
"""

from __future__ import annotations

from typing import Optional, Protocol

from ..agents.program import AgentProgram, Ctx, Registers, Routine, walk

__all__ = [
    "is_prime",
    "next_prime",
    "nth_prime",
    "PathNavigator",
    "LineNavigator",
    "prime_rendezvous_routine",
    "prime_line_agent",
    "blind_rendezvous_feasible",
]


def is_prime(x: int) -> bool:
    """Trial-division primality — the 'exhaustive search' the paper allows
    (finding the next prime with O(log p) bits)."""
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def next_prime(p: int) -> int:
    """The smallest prime strictly larger than ``p``."""
    q = p + 1
    while not is_prime(q):
        q += 1
    return q


_NTH_PRIME_CACHE = [2]


def nth_prime(i: int) -> int:
    """The i-th prime (1-based: nth_prime(1) == 2).

    Memoized: the round-budget estimator calls this per solved pair, so
    grid workloads (exhaustive verification) hit it tens of thousands of
    times.  The cache is simulator bookkeeping — the *agents* still find
    their next prime by trial division, as the paper's memory account
    requires.
    """
    if i < 1:
        raise ValueError("prime index is 1-based")
    while len(_NTH_PRIME_CACHE) < i:
        _NTH_PRIME_CACHE.append(next_prime(_NTH_PRIME_CACHE[-1]))
    return _NTH_PRIME_CACHE[i - 1]


def blind_rendezvous_feasible(m: int, a: int, b: int) -> bool:
    """Lemma 4.1 feasibility on the m-node path (1-based positions a < b):
    possible iff m is odd, or m is even and a - 1 != m - b."""
    if not (1 <= a < b <= m):
        raise ValueError("need 1 <= a < b <= m")
    return m % 2 == 1 or (a - 1) != (m - b)


class PathNavigator(Protocol):
    """One path traversal, from the extremity the agent stands on to the
    other, at speed ``1/speed`` (idle ``speed-1`` rounds before each move)."""

    def traverse(self, ctx: Ctx, regs: Registers, speed: int) -> Routine: ...


class LineNavigator:
    """Navigator for a *real* path: blind traversal end to end.

    At a degree-2 node "the other edge" is ``1 - in_port`` whatever the port
    labeling — this is exactly the paper's blind-agent ability.
    """

    def traverse(self, ctx: Ctx, regs: Registers, speed: int) -> Routine:
        # An extremity has the single port 0; at each degree-2 node the
        # walk continues by the entry port + 1 (= the other edge), held
        # across the idle rounds since a null move resets the observation
        # to (-1, d) (paper §2.1).
        yield from walk(ctx, 0, +1, 1, speed)


def prime_rendezvous_routine(
    ctx: Ctx,
    regs: Registers,
    navigator: PathNavigator,
    max_primes: Optional[int] = None,
) -> Routine:
    """The prime loop, starting from an extremity of the (possibly virtual)
    path: for each of the first ``max_primes`` primes p (all primes when
    ``None``), traverse the path twice at speed 1/p.

    Each double traversal returns the agent to the extremity it started
    this prime at, so the routine as a whole is extremity-preserving.
    """
    p = 2
    k = 1
    while max_primes is None or k <= max_primes:
        regs.declare("prime_p", p)
        regs["prime_p"] = p
        regs.declare("prime_k", k)
        regs["prime_k"] = k
        yield from navigator.traverse(ctx, regs, p)
        yield from navigator.traverse(ctx, regs, p)
        p = next_prime(p)
        k += 1


def _prime_line_program(
    start_degree: int, regs: Registers, max_primes: Optional[int]
) -> Routine:
    """Lemma 4.1's full agent for real paths."""
    ctx = Ctx(-1, start_degree)
    if ctx.degree == 0:  # one-node path: wait (rendezvous is trivial)
        return
    # Start in "arbitrary" direction — port 0 (both agents use the same
    # deterministic rule, as identical agents must) — and move at speed 1
    # until an extremity is reached.
    if ctx.degree != 1:
        yield from walk(ctx, 0)
    yield from prime_rendezvous_routine(ctx, regs, LineNavigator(), max_primes)


def prime_line_agent(max_primes: Optional[int] = None) -> AgentProgram:
    """The Lemma 4.1 blind agent for paths, as a simulator-ready program.

    ``max_primes=i`` yields the paper's ``prime(i)``; the default runs the
    unbounded protocol (the simulator's round budget bounds it in practice).
    """
    return AgentProgram(_prime_line_program, max_primes)
