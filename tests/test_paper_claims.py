"""Executable index of the paper's numbered claims.

Each test reproduces one internal claim of Fraigniaud-Pelc at small scale —
not the headline theorems (those live in tests/core, tests/lowerbounds and
the benchmarks) but the load-bearing intermediate claims of §4.1's proof.
Together with E1-E8 this file is the paper's table of contents in pytest
form.
"""

import random

from repro.agents import NULL_PORT, Ctx, Registers
from repro.agents import drive as drive_solo
from repro.core import (
    CENTRAL_EDGE_SYMMETRIC,
    explo_bis_routine,
    explo_routine,
    synchro_routine,
)
from repro.core.rendezvous_path import RendezvousPathNavigator
from repro.sim import run_solo
from repro.trees import (
    canonical_form,
    contract,
    line,
    random_relabel,
    random_tree,
    subdivide,
)


def drive(tree, start, factory):
    """Run a routine; return (value, rounds, final position, node sequence)."""
    ctx = Ctx(NULL_PORT, tree.degree(start))
    regs = Registers()
    seq = [start]
    run = drive_solo(tree, start, factory(ctx, regs), regs, trail=seq)
    return run.value, run.rounds, run.node, seq


class TestClaim41:
    """Claim 4.1: once at v̂, Explo-bis on T behaves like Explo on T'."""

    def test_explo_bis_results_match_explo_on_contraction(self):
        rng = random.Random(7)
        for _ in range(15):
            t = random_relabel(subdivide(random_tree(8, rng), 2), rng)
            c = contract(t)
            tp = c.contracted
            if tp.n < 2:
                continue
            for a in range(tp.n):
                v = c.to_original[a]
                res_t, _, _, _ = drive(t, v, explo_bis_routine)
                res_tp, _, _, _ = drive(tp, a, explo_routine)
                assert res_t.kind == res_tp.kind
                assert res_t.nu == res_tp.nu
                assert res_t.steps_to_target == res_tp.steps_to_target
                assert res_t.central_port == res_tp.central_port
                assert canonical_form(res_t.contraction.contracted) == canonical_form(
                    res_tp.tree
                )


class TestClaim42:
    """Claim 4.2: after Synchro the delay is exactly β = |L - L'|."""

    def test_delay_after_synchro(self):
        rng = random.Random(11)
        t = random_relabel(line(11), rng)

        def stage1_plus_synchro(ctx, regs):
            res = yield from explo_bis_routine(ctx, regs)
            yield from synchro_routine(ctx, regs, res)
            return res

        # L(v): rounds of the pre-Explo leaf walk = 0 for leaves, else the
        # basic-walk distance to the first leaf hit.
        durations = {}
        for v in range(t.n):
            _, rounds, _, _ = drive(t, v, stage1_plus_synchro)
            durations[v] = rounds
        leaf_duration = durations[0]
        for v in range(t.n):
            res, explo_rounds, end, _ = drive(t, v, explo_bis_routine)
            walk_to_leaf = explo_rounds - 2 * (t.n - 1)  # = L(v)
            # β between agent v and an agent starting at a leaf:
            assert durations[v] - leaf_duration == walk_to_leaf


class TestClaim43:
    """Claim 4.3: the instruction sequence traverses one common path P,
    from opposite extremities for the two agents."""

    def test_opposite_traversals_reverse_each_other(self):
        from repro.trees import edge_colored_line

        t = edge_colored_line(9)  # mirror-symmetric labeling
        c = contract(t)

        def traverse_from(start):
            def factory(ctx, regs):
                nav = RendezvousPathNavigator(c.nu, t.num_leaves, 0)
                yield from nav.traverse(ctx, regs, 1)

            _, _, end, seq = drive(t, start, factory)
            return end, seq

        end_a, seq_a = traverse_from(0)
        end_b, seq_b = traverse_from(8)
        assert end_a == 8 and end_b == 0
        # On the mirror labeling, B's walk is the mirror of A's; composed
        # with the traversal claim, B's node sequence must be A's reversed
        # (as walks of P, B starts where A ends).
        mirror = {i: 8 - i for i in range(9)}
        assert seq_b == [mirror[x] for x in seq_a]
        assert len(seq_a) == len(seq_b)


class TestClaim44AndLemma42:
    """Claim 4.4: the inter-agent delay at the outer loop's start is the
    same at every iteration; Lemma 4.2: prime-start delays are bounded by
    |t - t'| + 16nℓ."""

    def _prime_entry_rounds(self, tree, start, max_outer):
        run = run_solo(
            tree, start,
            __import__("repro.core", fromlist=["rendezvous_agent"]).rendezvous_agent(
                max_outer=max_outer
            ),
            400_000,
        )
        # prime_k flips to 1 at the start of each prime(i) execution
        return [r for r, v in run.value_series("prime_k") if v == 1], run

    def test_constant_outer_loop_delay(self):
        rng = random.Random(5)
        t = random_relabel(line(9), rng)
        ra, run_a = self._prime_entry_rounds(t, 0, 2)
        rb, run_b = self._prime_entry_rounds(t, 8, 2)
        outer_a = [r for r, _ in run_a.value_series("outer_i")]
        outer_b = [r for r, _ in run_b.value_series("outer_i")]
        count = min(len(outer_a), len(outer_b))
        deltas = {outer_b[k] - outer_a[k] for k in range(count)}
        assert len(deltas) == 1  # Claim 4.4: the delay never drifts

    def test_prime_start_delay_bounded(self):
        rng = random.Random(5)
        t = random_relabel(line(9), rng)
        ra, _ = self._prime_entry_rounds(t, 0, 1)
        rb, _ = self._prime_entry_rounds(t, 8, 1)
        n, ell = t.n, t.num_leaves
        bound = 4 * n + 16 * n * ell  # |t - t'| <= 4n, plus the Lemma 4.2 term
        for a, b in zip(ra, rb):
            assert abs(a - b) <= bound


class TestLemma44Parity:
    """Lemma 4.4 (Parity Lemma) in its exact statement."""

    def test_parity_of_distance(self):
        from repro.agents import pausing_walker
        from repro.sim import run_rendezvous
        from repro.trees import edge_colored_line

        t = edge_colored_line(12)
        out = run_rendezvous(
            t, pausing_walker(2), 2, 7, max_rounds=120, record_trace=True
        )
        trace = out.trace
        pos = trace.positions()
        q1 = q2 = 0
        initial_parity = (abs(pos[0][0] - pos[0][1])) % 2
        for k, rec in enumerate(trace.records, start=1):
            q1 += 0 if rec.moved1 else 1
            q2 += 0 if rec.moved2 else 1
            if (q1 - q2) % 2 == 0:
                assert abs(pos[k][0] - pos[k][1]) % 2 == initial_parity
            else:
                assert abs(pos[k][0] - pos[k][1]) % 2 != initial_parity


class TestFact21Footnote:
    """The 'why the farthest extremity' footnote: in the symmetric case the
    target is always across the central edge from v̂."""

    def test_farthest_extremity_is_across(self):
        rng = random.Random(13)
        for m in (6, 8, 10):
            t = random_relabel(line(m), rng)
            res, _, end, _ = drive(t, 0, explo_bis_routine)
            if res.kind != CENTRAL_EDGE_SYMMETRIC:
                continue
            # from the leaf 0 of a line, the farthest extremity of the
            # central path is the OTHER endpoint: 1 T'-step away
            assert res.steps_to_target == 1


class TestMirrorConjugacy:
    """The symmetry engine behind every impossibility argument: on a
    mirror-symmetric labeled tree, two identical agents started at mirror
    positions evolve as exact mirror images, round by round, forever."""

    def test_two_sided_tree_mirror_runs(self):
        from repro.core import rendezvous_agent
        from repro.trees import port_preserving_automorphism
        from repro.trees.sidetrees import all_side_trees, root_edge_color, two_sided_tree

        side = all_side_trees(4, root_port_up=root_edge_color(4))[5]
        ts = two_sided_tree(side, side, 4)
        f = port_preserving_automorphism(ts.tree)
        assert f is not None and f[ts.u] == ts.v

        horizon = 4000
        run_u = run_solo(ts.tree, ts.u, rendezvous_agent(max_outer=1), horizon)
        run_v = run_solo(ts.tree, ts.v, rendezvous_agent(max_outer=1), horizon)
        assert len(run_u.positions) == len(run_v.positions)
        for pu, pv in zip(run_u.positions, run_v.positions):
            assert f[pu] == pv

    def test_mirror_line_runs(self):
        from repro.core import rendezvous_agent
        from repro.trees import edge_colored_line, port_preserving_automorphism

        t = edge_colored_line(10)
        f = port_preserving_automorphism(t)
        assert f is not None
        run_a = run_solo(t, 2, rendezvous_agent(max_outer=1), 3000)
        run_b = run_solo(t, f[2], rendezvous_agent(max_outer=1), 3000)
        for pa, pb in zip(run_a.positions, run_b.positions):
            assert f[pa] == pb
