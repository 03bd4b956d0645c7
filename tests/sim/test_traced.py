"""Unit tests for route-B lowering: solo traces, mirrors, suffix links."""

import random

import pytest

from repro.agents import AgentProgram, Ctx, NULL_PORT, STAY, move, stay
from repro.core import baseline_agent, rendezvous_agent
from repro.errors import BudgetExceededError, SimulationError
from repro.sim import run_rendezvous
from repro.sim.multi import run_gathering_reference
from repro.sim.traced import (
    ACTIVE,
    CYCLED,
    FINISHED,
    GLOBAL_TRACE_CACHE,
    MirrorTrace,
    SoloTrace,
    TraceCache,
    ensure_lasso,
    run_gathering_traced,
    run_rendezvous_traced,
    solo_trace,
    sweep_delays_traced,
    sweep_gathering_traced,
    traced_automaton,
)
from repro.trees import edge_colored_line, line
from repro.trees.automorphism import port_preserving_automorphism


def walker3():
    def prog(start_degree, regs):
        ctx = Ctx(NULL_PORT, start_degree)
        regs.declare("s", 3)
        for k in range(3):
            regs["s"] = k
            yield from move(ctx, 0)

    return AgentProgram(prog)


def perpetual_walker():
    def prog(start_degree, regs):
        ctx = Ctx(NULL_PORT, start_degree)
        regs.declare("k", 2)
        while True:
            for k in range(2):
                regs["k"] = k
                yield from move(ctx, 0)
            yield from stay(ctx, 1)
            yield from move(ctx, 1)

    return AgentProgram(prog)


class TestSoloTrace:
    def test_finished_trace_folds_constant(self):
        t = line(6)
        trace = SoloTrace(t, walker3(), 1)
        trace.extend(50)
        assert trace.status == FINISHED
        m = trace.rounds_recorded
        final = trace.positions[m]
        for k in (m, m + 1, m + 7, m + 500):
            assert trace.position_after(k) == final
            if k > m:
                assert trace.action_at(k) == STAY

    def test_cycled_trace_folds_periodically(self):
        t = edge_colored_line(7)
        trace = SoloTrace(t, perpetual_walker(), 2)
        trace.extend(100_000)
        assert trace.status == CYCLED
        c, lam = trace.cycle_start, trace.cycle_len
        for k in range(c + 1, c + lam + 1):
            assert trace.position_after(k) == trace.position_after(k + lam)
            assert trace.action_at(k) == trace.action_at(k + lam)

    def test_trace_matches_reference_positions(self):
        # the trace's per-round positions equal a reference solo drive
        t = line(9)
        agent = perpetual_walker()
        trace = SoloTrace(t, agent, 4)
        trace.extend(60)
        clone = agent.clone()
        pos = 4
        raw = clone.start(t.degree(pos))
        from repro.agents.observations import resolve_action

        for rnd in range(1, 61):
            a = resolve_action(raw, t.degree(pos))
            if a == STAY:
                obs = (NULL_PORT, t.degree(pos))
            else:
                pos, ip = t.move(pos, a)
                obs = (ip, t.degree(pos))
            assert trace.position_after(rnd) == pos
            assert trace.action_at(rnd) == a
            raw = clone.step(*obs)

    def test_ensure_lasso_budget_error(self):
        # the Thm 4.1 agent needs ~1e6 rounds to finish: a small budget
        # must raise the budget error (the degrade signal), not hang
        trace = SoloTrace(line(8), rendezvous_agent(max_outer=10), 0)
        with pytest.raises(BudgetExceededError):
            ensure_lasso(trace, 500)
        assert trace.status == ACTIVE  # still honest, still extendable

    def test_invalid_start_rejected(self):
        with pytest.raises(SimulationError):
            SoloTrace(line(3), walker3(), 7)


class TestTracedAutomaton:
    def test_finished_trace_rolls_into_chain(self):
        t = line(6)
        trace = ensure_lasso(SoloTrace(t, walker3(), 1), 100)
        aut = traced_automaton(trace)
        assert aut.num_states == trace.rounds_recorded
        # replay through the automaton: same resolved actions
        state = aut.initial_state
        for rnd in range(1, 10):
            assert aut.output[state] == trace.action_at(rnd)
            state = aut.transition(state, 0, 2)

    def test_cycled_trace_closes_the_lasso(self):
        t = edge_colored_line(7)
        trace = ensure_lasso(SoloTrace(t, perpetual_walker(), 2), 100_000)
        aut = traced_automaton(trace)
        state = aut.initial_state
        for rnd in range(1, 3 * trace.rounds_recorded):
            assert aut.output[state] == trace.action_at(rnd)
            state = aut.transition(state, 0, 2)

    def test_requires_a_lassoed_trace(self):
        trace = SoloTrace(line(8), rendezvous_agent(max_outer=10), 0)
        trace.extend(100)
        with pytest.raises(SimulationError):
            traced_automaton(trace)


class TestMirrorTrace:
    def test_mirror_costs_zero_interpretation(self):
        t = edge_colored_line(6)
        f = port_preserving_automorphism(t)
        assert f is not None
        cache = TraceCache()
        agent = baseline_agent()
        src = cache.get(t, agent, 0)
        src.extend(50)
        mirror = cache.get(t, agent, f[0])
        assert isinstance(mirror, MirrorTrace)
        assert mirror.agent is None  # never interpreted
        mirror.extend(50)
        for rnd in range(1, 51):
            assert mirror.position_after(rnd) == f[src.position_after(rnd)]
            assert mirror.action_at(rnd) == src.action_at(rnd)

    def test_mirror_equals_direct_interpretation(self):
        t = edge_colored_line(6)
        f = port_preserving_automorphism(t)
        agent = baseline_agent()
        cache = TraceCache()
        src = cache.get(t, agent, 1)
        src.extend(1)  # make it the registered real trace
        mirror = cache.get(t, agent, f[1])
        direct = SoloTrace(t, agent, f[1])
        mirror.extend(200)
        direct.extend(200)
        upto = min(mirror.rounds_recorded, direct.rounds_recorded)
        assert mirror.positions[:upto + 1] == direct.positions[:upto + 1]
        assert mirror.actions[:upto] == direct.actions[:upto]


class TestSuffixLinking:
    def test_thm41_traces_link_across_starts(self):
        # all starts of one symmetric-ish line converge to the canonical
        # figure-2 loop; sibling traces must link instead of re-interpreting
        rng = random.Random(3)
        from repro.trees.labelings import random_relabel

        t = random_relabel(line(12), rng)
        cache = TraceCache()
        proto = rendezvous_agent(max_outer=10)
        traces = [cache.get(t, proto, s) for s in range(t.n)]
        for tr in traces:
            tr.extend(4000)
        linked = [tr for tr in traces if tr._link is not None]
        assert linked, "no sibling trace linked on a symmetric line"
        for tr in linked:
            src, off = tr._link
            # linked rounds replay the source exactly
            for rnd in range(tr._link_round, min(tr.rounds_recorded, 4000) + 1):
                assert tr.positions[rnd] == src.positions[rnd + off]

    def test_linked_traces_keep_reference_parity(self):
        rng = random.Random(3)
        from repro.trees.labelings import random_relabel

        t = random_relabel(line(12), rng)
        proto = rendezvous_agent(max_outer=10)
        ref_proto = rendezvous_agent(max_outer=10)
        for (u, v) in [(0, 11), (1, 10), (2, 9), (3, 8)]:
            ref = run_rendezvous(t, ref_proto, u, v, max_rounds=60_000)
            low = run_rendezvous_traced(t, proto, u, v, max_rounds=60_000)
            assert (ref.met, ref.meeting_round, ref.meeting_node) == (
                low.met, low.meeting_round, low.meeting_node
            )


class TestTracedRuns:
    def test_rendezvous_parity_with_delays(self):
        t = line(9)
        proto = baseline_agent()
        for (u, v, delay, delayed) in [
            (1, 5, 0, 2), (0, 7, 3, 1), (2, 8, 5, 2), (4, 4, 0, 2),
        ]:
            ref = run_rendezvous(
                t, baseline_agent(), u, v,
                delay=delay, delayed=delayed, max_rounds=50_000,
            )
            low = run_rendezvous_traced(
                t, proto, u, v,
                delay=delay, delayed=delayed, max_rounds=50_000,
            )
            assert (ref.met, ref.meeting_round, ref.meeting_node,
                    ref.crossings) == (
                low.met, low.meeting_round, low.meeting_node, low.crossings
            )

    def test_certifies_never_meeting_program_agents(self):
        t = edge_colored_line(4)
        f = port_preserving_automorphism(t)
        u = 0
        # delay 0 on a symmetric pair: every tier, the reference engine
        # included, certifies from the automorphism before round 1
        ref = run_rendezvous(
            t, baseline_agent(), u, f[u], max_rounds=50_000, certify=True
        )
        assert ref.certified_never and ref.rounds_executed == 0
        # a delay breaks the symmetry argument: the reference engine has
        # no finite state to certify programs with and runs out its
        # budget, while the traced backend certifies via machine-state
        # lassos
        ref = run_rendezvous(
            t, baseline_agent(), u, f[u], delay=2, max_rounds=50_000,
            certify=True,
        )
        low = run_rendezvous_traced(
            t, baseline_agent(), u, f[u], delay=2, max_rounds=50_000,
            certify=True,
        )
        assert ref.undecided  # the oracle can only run out its budget
        assert low.certified_never  # lowering turns that into proof
        assert low.rounds_executed > 0  # by the lasso, not the symmetry

    def test_record_trace_matches_reference(self):
        t = line(7)
        ref = run_rendezvous(
            t, baseline_agent(), 1, 5,
            delay=2, max_rounds=5000, record_trace=True,
        )
        low = run_rendezvous_traced(
            t, baseline_agent(), 1, 5,
            delay=2, max_rounds=5000, record_trace=True,
        )
        rr = [(r.round_index, r.pos1, r.pos2, r.action1, r.action2)
              for r in ref.trace.records]
        ll = [(r.round_index, r.pos1, r.pos2, r.action1, r.action2)
              for r in low.trace.records]
        assert rr == ll

    def test_outcome_agents_are_fresh_clones(self):
        out = run_rendezvous_traced(line(7), baseline_agent(), 1, 5,
                                    max_rounds=5000)
        assert out.met
        for agent in out.agents:
            assert agent.registers.report() == {}  # unexecuted, documented

    def test_gathering_parity(self):
        t = line(8)
        proto = baseline_agent()
        for starts, delays in [
            ([0, 3, 6], None), ([1, 4, 7], [0, 1, 2]), ([0, 2, 5, 7], None),
        ]:
            ref = run_gathering_reference(
                t, baseline_agent(), starts, delays=delays, max_rounds=50_000
            )
            low = run_gathering_traced(
                t, proto, starts, delays=delays, max_rounds=50_000
            )
            assert (ref.gathered, ref.gathering_round, ref.gathering_node,
                    ref.largest_cluster) == (
                low.gathered, low.gathering_round, low.gathering_node,
                low.largest_cluster
            )


class TestTracedSweeps:
    def test_delay_sweep_matches_per_delay_reference(self):
        t = line(6)
        proto = baseline_agent()
        for dv in sweep_delays_traced(t, proto, 0, 3, max_delay=6):
            ref = run_rendezvous(
                t, baseline_agent(), 0, 3,
                delay=dv.delay, delayed=dv.delayed, max_rounds=100_000,
            )
            assert ref.met == dv.met
            if dv.met:
                assert ref.meeting_round == dv.meeting_round

    def test_same_start_sweep_meets_at_round_zero(self):
        verdicts = sweep_delays_traced(line(6), baseline_agent(), 2, 2,
                                       max_delay=3)
        assert all(dv.met and dv.meeting_round == 0 for dv in verdicts)

    def test_gathering_sweep_matches_reference(self):
        t = line(8)
        proto = baseline_agent()
        vectors = [[0, 0, 0], [0, 1, 2], [2, 1, 0]]
        verdicts = sweep_gathering_traced(t, proto, [0, 3, 6], vectors)
        for vec, gv in zip(vectors, verdicts):
            ref = run_gathering_reference(
                t, baseline_agent(), [0, 3, 6], delays=vec, max_rounds=100_000
            )
            assert ref.gathered == gv.gathered
            if gv.gathered:
                assert ref.gathering_round == gv.gathering_round

    def test_unlassoable_trace_raises_budget_error(self):
        with pytest.raises(BudgetExceededError):
            sweep_delays_traced(
                line(8), rendezvous_agent(max_outer=10), 0, 5,
                max_delay=4, trace_budget=500,
            )


class TestLinkEdgeCases:
    def test_link_inside_source_cycle_folds_past_raw_region(self):
        """A link landing *inside* the source's cycle shifts the cycle
        range past the source's recorded rounds; the carry-over must
        complete it through the source's fold, not crash indexing."""
        t = edge_colored_line(7)
        agent = perpetual_walker()
        src = SoloTrace(t, agent, 2)
        src.extend(100_000)
        assert src.status == CYCLED
        c, lam = src.cycle_start, src.cycle_len

        twin = SoloTrace(t, agent, 2)  # identical trajectory: twin(t)=src(t)
        r = c + max(lam // 2, 1)
        twin.extend(r)
        assert twin.status == ACTIVE
        twin._link = (src, 0)
        twin._link_round = r
        twin._extend_linked(r + 1)
        assert twin.status == CYCLED
        for k in range(1, c + 3 * lam):
            assert twin.position_after(k) == src.position_after(k)
            assert twin.action_at(k) == src.action_at(k)

    def test_mutual_links_are_refused(self):
        t = line(7)
        agent = baseline_agent()
        a = SoloTrace(t, agent, 0)
        b = SoloTrace(t, agent, 1)
        c = SoloTrace(t, agent, 2)
        a._link = (b, 3)
        # b must not link back into its own chain ...
        assert b._resolve_link(a, 10, 7) is None
        # ... while an unrelated trace flattens through to the root
        assert c._resolve_link(a, 10, 7) == (b, 6)


class TestCacheEviction:
    def test_dead_trees_leave_the_cache(self):
        import gc

        cache = TraceCache()
        proto = baseline_agent()
        for _ in range(10):
            t = line(6)
            cache.get(t, proto, 1).extend(20)
            del t
        gc.collect()
        per_tree = cache._by_proto[proto]
        assert len(per_tree) == 0, "trace entries pinned their dead trees"


class TestCacheSharing:
    def test_traces_are_shared_per_prototype_tree_start(self):
        t = line(7)
        proto = baseline_agent()
        a = solo_trace(t, proto, 2)
        b = solo_trace(t, proto, 2)
        assert a is b
        assert solo_trace(t, proto, 3) is not a
        assert solo_trace(t, baseline_agent(), 2) is not a  # other prototype
        fresh = SoloTrace(t, proto, 2)  # built outside the cache
        assert fresh is not a and solo_trace(t, proto, 2) is a

    def test_global_cache_clear(self):
        t = line(5)
        proto = baseline_agent()
        a = solo_trace(t, proto, 1)
        GLOBAL_TRACE_CACHE.clear()
        assert solo_trace(t, proto, 1) is not a


class TestTypedBuffers:
    def test_buffers_are_arrays_sized_to_the_tree(self):
        from array import array

        small = SoloTrace(line(6), baseline_agent(), 1)
        small.extend(50)
        assert isinstance(small.actions, array) and isinstance(small.positions, array)
        assert (small.actions.typecode, small.positions.typecode) == ("b", "b")
        big = SoloTrace(line(300), baseline_agent(), 1)
        assert (big.actions.typecode, big.positions.typecode) == ("b", "h")

    def test_out_of_range_values_raise_instead_of_wrapping(self):
        from repro.sim.traced import _buffer

        trace = SoloTrace(line(6), baseline_agent(), 1)
        with pytest.raises(OverflowError):
            trace.positions.append(128)
        with pytest.raises(OverflowError):
            trace.actions.append(-129)
        assert [_buffer(top).typecode for top in (0, 127, 128, 2**15, 2**31)] == [
            "b", "b", "h", "i", "q"
        ]
        assert list(_buffer(300, (-1, 299))) == [-1, 299]

    def test_mirror_and_linked_traces_keep_array_buffers(self):
        from array import array

        t = edge_colored_line(6)
        f = port_preserving_automorphism(t)
        cache = TraceCache()
        proto = baseline_agent()
        cache.get(t, proto, 0).extend(1)
        mirror = cache.get(t, proto, f[0])
        mirror.extend(40)
        assert isinstance(mirror, MirrorTrace)
        assert mirror.positions.typecode == mirror.source.positions.typecode
        rng = random.Random(3)
        from repro.trees.labelings import random_relabel

        t2 = random_relabel(line(12), rng)
        proto = rendezvous_agent(max_outer=10)
        traces = [cache.get(t2, proto, s) for s in range(t2.n)]
        for tr in traces:
            tr.extend(4000)
        linked = [tr for tr in traces if tr._link is not None]
        assert linked
        for tr in linked + [mirror]:
            assert isinstance(tr.actions, array) and isinstance(tr.positions, array)
            assert len(tr.positions) == len(tr.actions) + 1

    def test_sibling_traces_intern_keys_in_one_table(self):
        """The suffix-merge registry's keys are built over the per-tree
        intern table: their frames are that table's objects."""
        rng = random.Random(3)
        from repro.trees.labelings import random_relabel

        t = random_relabel(line(12), rng)
        cache = TraceCache()
        proto = rendezvous_agent(max_outer=10)
        traces = [cache.get(t, proto, s) for s in range(t.n)]
        for tr in traces:
            tr.extend(4000)
        _, registry, intern = cache._by_proto[proto][t]
        assert registry and all(tr._intern is intern for tr in traces)
        for _pos, _ip, key in registry:
            for frame in key[1]:
                assert intern[frame] is frame

    def test_intern_table_holds_only_registry_keys_parts(self):
        """Brent probe and anchor keys are dropped after their comparison,
        so they must not intern into the per-tree table: every object it
        holds is part of a key the suffix-merge registry keeps."""

        def parts(obj, out):
            if isinstance(obj, tuple) and id(obj) not in out:
                out.add(id(obj))
                for item in obj:
                    parts(item, out)
            return out

        rng = random.Random(3)
        from repro.trees.labelings import random_relabel

        t = random_relabel(line(12), rng)
        cache = TraceCache()
        proto = rendezvous_agent(max_outer=10)
        traces = [cache.get(t, proto, s) for s in range(t.n)]
        for tr in traces:
            tr.extend(6000)
        assert any(tr._anchor_key is not None for tr in traces)
        _, registry, intern = cache._by_proto[proto][t]
        kept = set()
        for key in registry:
            parts(key, kept)
        assert intern and all(id(obj) in kept for obj in intern.values())
