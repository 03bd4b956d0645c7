"""Synchro's inserted Explo-bis held to the interpreted routine it replaces.

Synchro runs each inserted Explo-bis as one closed basic walk and takes
Fact 2.1's outputs from Stage 1's map of the tree (``explo._facts_at``).
The oracle is Synchro as it was before: a test-local copy that
interprets ``explo_bis_routine`` move by move, reconstructs the tree from
its own transcript and analyses it.  Both must give the same per-round
trail and the same registers; a solo trail per start fixes every joint
run, since agents interact only by meeting.
"""

from __future__ import annotations

import pytest

from repro.agents import NULL_PORT, Ctx, Registers, drive, resolve_action, walk
from repro.core import algorithm, estimate_round_budget, measure_memory, rendezvous_agent
from repro.core.explo import _charge_facts, _facts_at, explo_bis_routine
from repro.trees import all_trees, basic_walk

# How many trees on n nodes have a symmetric contraction (a line always).
SYMMETRIC_TREES = {2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 3, 8: 6, 9: 10}


def interpreted_synchro(ctx, regs, explo):
    """The oracle: Synchro inserting the interpreted Explo-bis."""
    nu = explo.nu
    total = 2 * (nu - 1)
    if total == 0:
        return
    regs.declare("synchro_arrivals", total)
    regs["synchro_arrivals"] = 0
    port = 0
    arrivals = 0
    while arrivals < total:
        yield from walk(ctx, port)
        arrivals += 1
        regs["synchro_arrivals"] = arrivals
        resume = (ctx.in_port + 1) % ctx.degree
        if arrivals < total:
            yield from explo_bis_routine(ctx, regs)
        port = resume


@pytest.fixture
def oracle(monkeypatch):
    """Run ``fn()`` with the Theorem 4.1 agent on the interpreted Synchro."""

    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(algorithm, "synchro_routine", interpreted_synchro)
            return fn()

    return run


def trail_of(tree, start, prototype):
    """Every round's node of an unbounded solo drive, and its registers."""
    agent = prototype.clone()
    trail = [start]
    run = drive(tree, start, agent.routine(tree.degree(start)), agent.registers,
                trail=trail)
    assert run.finished
    return trail, agent.registers.snapshot()


def stepped(tree, start, prototype, budget):
    """Round by round through ``start``/``step``, as the engines drive an
    agent: (raw action, node, register bank) after every round."""
    agent = prototype.clone()
    pos = start
    raw = agent.start(tree.degree(pos))
    rounds = [(raw, pos, agent.registers.snapshot())]
    for _ in range(budget):
        if agent.finished:
            break
        a = resolve_action(raw, tree.degree(pos))
        if a == -1:
            obs = (NULL_PORT, tree.degree(pos))
        else:
            pos, in_port = tree.move(pos, a)
            obs = (in_port, tree.degree(pos))
        raw = agent.step(*obs)
        rounds.append((raw, pos, agent.registers.snapshot()))
    return rounds


@pytest.mark.parametrize("n", range(1, 9))
def test_walk_synchro_matches_interpreted_synchro(oracle, n):
    """Every start of every tree on n <= 8 nodes: the same per-round
    trail and final registers unbounded, the same rounds through
    ``step`` over Stage 1 and Synchro, and the same ``MemoryReport`` at
    a full and two cut budgets."""
    prototype = rendezvous_agent(max_outer=1)
    for tree in all_trees(n):
        full = estimate_round_budget(tree, 1)
        for start in range(tree.n):
            trail, bank = trail_of(tree, start, prototype)
            assert (trail, bank) == oracle(lambda: trail_of(tree, start, prototype))
            # Stage 1 and Synchro end within 3n + 4(n-1)^2 < 4n^2 rounds.
            head = 4 * n * n
            assert stepped(tree, start, prototype, head) == oracle(
                lambda: stepped(tree, start, prototype, head)
            )
            for budget in (full, len(trail) // 2, 2 * n * n):
                report = measure_memory(tree, start, prototype, budget)
                assert report == oracle(
                    lambda: measure_memory(tree, start, prototype, budget)
                )


def correspondence(recon, tree, node):
    """Map a reconstruction (node 0 = ``node``) onto ``tree`` by walking
    the same closed basic walk in both."""
    pairs = {0: node}
    for a, b in zip(basic_walk(recon, 0), basic_walk(tree, node)):
        assert (a.out_port, a.in_port) == (b.out_port, b.in_port)
        pairs[a.to_node] = b.to_node
    return pairs


def explo_bis_from(tree, start):
    """A real Explo-bis from ``start``: its result, its registers, and the
    map from its reconstruction onto ``tree``."""
    ctx = Ctx(NULL_PORT, tree.degree(start))
    regs = Registers()
    run = drive(tree, start, explo_bis_routine(ctx, regs), regs)
    result = run.value
    return result, regs.report(), correspondence(result.tree, tree, run.node)


@pytest.mark.parametrize("n", range(2, 10))
def test_facts_from_stage1_map_equal_a_real_explo_bis(n):
    """For every tree on n <= 9 nodes whose contraction is symmetric, every
    Stage-1 start and every branching node w: Fact 2.1's outputs read off
    Stage 1's contraction at w equal those of an Explo-bis run from w —
    kind, steps, central port and the target as a node of the tree — and
    so do the registers they are written to."""
    symmetric = 0
    for tree in all_trees(n):
        real = {}
        for start in range(tree.n):
            stage1, _, to_tree = explo_bis_from(tree, start)
            if stage1.kind != "central_edge_symmetric":
                continue
            contraction = stage1.contraction
            for a, recon_node in enumerate(contraction.to_original):
                w = to_tree[recon_node]
                if w not in real:
                    real[w] = explo_bis_from(tree, w)
                result, registers, real_to_tree = real[w]
                kind, steps, target, central_port = _facts_at(contraction, a)
                assert (kind, steps, central_port) == (
                    result.kind, result.steps_to_target, result.central_port
                )
                assert to_tree[contraction.to_original[target]] == real_to_tree[
                    result.contraction.to_original[result.target]
                ]
                charged = Registers()
                _charge_facts(charged, stage1.nu, steps, central_port)
                assert charged.report() == registers
        symmetric += bool(real)
    assert symmetric == SYMMETRIC_TREES[n]
