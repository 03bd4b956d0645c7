"""Arbitrary-delay rendezvous baseline: the Θ(log n) side of the gap.

The paper cites [14] (Czyzowicz–Kosowski–Pelc) for an O(log n)-bit agent
that rendezvous in arbitrary graphs under arbitrary delay.  The gap table
(E7 of ``repro report --full``) needs a concrete arbitrary-delay agent for
trees; this module provides a tree-specialized stand-in (DESIGN.md
substitution: same guarantee on trees, simpler machinery than [14]'s
universal sequences):

1.  Explore (closed basic walk, reconstruct the labeled tree, return home).
2.  Central node, or central edge whose labeled halves differ → walk to the
    canonically chosen node and wait forever.  Correct under any delay.
3.  Labeled tree symmetric (unique nontrivial port-preserving automorphism
    ``f``) → *label-based time multiplexing*: the agent derives a perfect
    short label — the rank of the invariant key

        K(w) = sorted pair of port-labeled marked codes of T rooted at the
               two central-edge extremities, marked at w

    which satisfies K(w) = K(w') iff w' ∈ {w, f(w)}.  Non-symmetric starts
    thus get distinct ranks in [0, n).  The agent repeats forever the block
    sequence ``111 000 · Manchester(rank bits)`` where block 1 = two full
    basic-walk tours from home and block 0 = an equally long wait at home.
    For any delay, distinct labels force some full tour of one agent inside
    a full waiting block of the other (the ``111``/``000`` header makes the
    block sequences shift-distinguishable; Manchester bodies never contain
    ``111``), and a full tour visits every node — rendezvous.

Memory: all *registers* (step counters up to 4(n-1), bit index, rank) are
O(log n) bits, matching [14]'s bound; the reconstruction is simulator
bookkeeping as everywhere else (DESIGN.md substitution #1).
"""

from __future__ import annotations

from ..agents.observations import NULL_PORT
from ..agents.program import AgentProgram, Ctx, Registers, Routine, move, stay
from ..trees.automorphism import port_preserving_automorphism
from ..trees.basic_walk import TranscriptReconstructor, basic_walk_first_hit
from ..trees.center import find_center
from ..trees.tree import Tree

__all__ = ["baseline_agent", "baseline_program", "invariant_rank"]


def invariant_rank(tree: Tree, x: int, y: int, w: int) -> int:
    """Rank of node ``w`` under the symmetric-invariant key K (module doc).

    Keys are fully materialized nested codes (no interner), so they compare
    canonically: both agents agree on every node's rank even though each
    reconstructs the tree with private node numbering, and
    ``K(w) == K(w')`` iff ``w' ∈ {w, f(w)}`` for the unique port-preserving
    automorphism ``f``.
    """
    nested = {}
    for node in range(tree.n):
        nested[node] = tuple(
            sorted(
                (
                    _nested_marked(tree, x, node),
                    _nested_marked(tree, y, node),
                )
            )
        )
    distinct = sorted(set(nested.values()))
    return distinct.index(nested[w])


def _nested_marked(tree: Tree, root: int, mark: int) -> tuple:
    """Self-contained port-labeled marked rooted code (totally ordered)."""
    from ..trees.automorphism import _postorder

    out: dict[int, tuple] = {}
    for node, parent in _postorder(tree, root, None):
        entries = [1 if node == mark else 0]
        for nbr in tree.neighbors(node):
            if nbr == parent:
                continue
            entries.append((tree.port(node, nbr), tree.port(nbr, node), out[nbr]))
        out[node] = tuple(entries)
    return out[root]


def _rank_bits(rank: int, n: int) -> list[int]:
    """Fixed-width (``ceil(log2 n)``) big-endian bits of ``rank``."""
    width = max(1, (n - 1).bit_length())
    return [(rank >> (width - 1 - i)) & 1 for i in range(width)]


def baseline_program(start_degree: int, regs: Registers) -> Routine:
    """The arbitrary-delay agent as a register program."""
    ctx = Ctx(NULL_PORT, start_degree)
    if start_degree == 0:
        return  # one-node tree

    # ---- Phase 1: explore and reconstruct ----------------------------------
    rec = TranscriptReconstructor(ctx.degree)
    port = 0
    while not rec.closed:
        out = port
        yield from move(ctx, out)
        rec.feed(out, ctx.in_port, ctx.degree)
        port = (ctx.in_port + 1) % ctx.degree
    tree = rec.tree()  # home node = 0
    n = tree.n
    regs.declare("base_n", 2 * n)
    regs["base_n"] = n

    center = find_center(tree)
    if center.is_node:
        steps = basic_walk_first_hit(tree, 0, center.node)
        yield from _walk_steps(ctx, regs, int(steps), n)
        return  # wait forever at the central node

    x, y = center.edge  # type: ignore[misc]
    f = port_preserving_automorphism(tree)
    if f is None:
        # Labeled halves differ: canonical extremity by port + labeled code.
        from ..trees.automorphism import port_labeled_nested_code

        key_x = (tree.port(x, y), port_labeled_nested_code(tree, x, block=y))
        key_y = (tree.port(y, x), port_labeled_nested_code(tree, y, block=x))
        target = x if key_x < key_y else y
        steps = basic_walk_first_hit(tree, 0, target)
        yield from _walk_steps(ctx, regs, int(steps), n)
        return  # wait forever

    # ---- Phase 2: symmetric labeling — label-based multiplexing ------------
    rank = invariant_rank(tree, x, y, 0)  # own position is node 0
    regs.declare("base_rank", max(n - 1, 1))
    regs["base_rank"] = rank
    bits = [1, 1, 1, 0, 0, 0] + [b for bit in _rank_bits(rank, n) for b in (bit, 1 - bit)]
    block = 4 * (n - 1)  # two full tours, or an equally long wait
    regs.declare("base_bit_index", len(bits) - 1)
    regs.declare("base_block_step", max(block - 1, 1))
    while True:
        for idx, bit in enumerate(bits):
            regs["base_bit_index"] = idx
            if bit:
                for tour in range(2):
                    yield from _full_tour(ctx, regs, n)
            else:
                yield from _timed_wait(ctx, regs, block)


def _walk_steps(ctx: Ctx, regs: Registers, steps: int, n: int) -> Routine:
    """Basic walk of exactly ``steps`` T-steps from the current node."""
    regs.declare("base_walk", max(2 * (n - 1), 1))
    regs["base_walk"] = 0
    port = 0
    for k in range(steps):
        yield from move(ctx, port)
        regs["base_walk"] = k + 1
        port = (ctx.in_port + 1) % ctx.degree


def _full_tour(ctx: Ctx, regs: Registers, n: int) -> Routine:
    """One closed basic-walk tour (2(n-1) moves) from the home node."""
    regs.declare("base_block_step", max(2 * (n - 1), 1))
    port = 0
    for k in range(2 * (n - 1)):
        yield from move(ctx, port)
        regs["base_block_step"] = k
        port = (ctx.in_port + 1) % ctx.degree


def _timed_wait(ctx: Ctx, regs: Registers, rounds: int) -> Routine:
    regs.declare("base_block_step", max(rounds - 1, 1))
    for k in range(rounds):
        yield from stay(ctx)
        regs["base_block_step"] = k


def baseline_agent() -> AgentProgram:
    """The arbitrary-delay Θ(log n) baseline, simulator-ready."""
    return AgentProgram(baseline_program)
