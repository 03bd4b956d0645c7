"""Tests for memory accounting helpers and the public solve API."""

import math

import pytest

from repro.core import (
    estimate_round_budget,
    log_bits,
    loglog_bits,
    measure_memory,
    memory_report,
    rendezvous_agent,
    solve,
    solve_with_delay,
    upper_bound_bits,
)
from repro import telemetry
from repro.agents import Automaton, Registers
from repro.analysis.program_atlas import _bits as atlas_bits
from repro.core.baseline import baseline_agent
from repro.errors import InfeasibleRendezvousError
from repro.trees import complete_binary_tree, double_broom, line, star, subdivide


class TestBitHelpers:
    def test_log_bits(self):
        assert log_bits(0) == 1
        assert log_bits(1) == 1
        assert log_bits(2) == 2
        assert log_bits(7) == 3
        assert log_bits(8) == 4
        assert log_bits(255) == 8

    def test_exact_bits_agree_with_the_float_formula_below_2_49(self):
        for x in range(4097):
            assert log_bits(x) == max(1, math.ceil(math.log2(x + 1)))
        for states in range(1, 4098):
            assert atlas_bits(states) == max(1, math.ceil(math.log2(max(states, 2))))
        assert [Automaton(k, {}, [0] * k).memory_bits for k in (1, 2, 3, 4, 5, 9)] == [
            1, 1, 2, 2, 3, 4]

    def test_exact_bits_from_2_49_on(self):
        # The float formula is one bit short here: log2(2**49 + 1) rounds to 49.
        assert math.ceil(math.log2(2**49 + 1)) == 49
        assert log_bits(2**49) == 50 and log_bits(2**49 - 1) == 49
        assert log_bits(2**60) == 61 and log_bits(2**60 - 1) == 60
        assert atlas_bits(2**49 + 1) == 50 and atlas_bits(2**60 + 1) == 61
        regs = Registers()
        regs.declare("big", 2**60)
        regs.declare("mid", 2**49)
        regs["mid"] = 2**49
        assert regs.bits_declared() == 61 + 50
        assert regs.bits_used() == 1 + 50

    def test_loglog_bits_grows_very_slowly(self):
        assert loglog_bits(10) <= loglog_bits(10**6) <= loglog_bits(10**12)
        assert loglog_bits(10**12) <= 6

    def test_upper_bound_bits_monotone(self):
        assert upper_bound_bits(100, 4) <= upper_bound_bits(100, 64)
        assert upper_bound_bits(100, 4) <= upper_bound_bits(10**9, 4)


class TestMeasureMemory:
    def test_solo_measurement_declares_registers(self):
        t = line(9)
        report = measure_memory(t, 0, rendezvous_agent(max_outer=2),
                                estimate_round_budget(t, 2))
        assert report.declared > 0
        assert report.used <= report.declared
        assert "explo_nu" in report.registers

    def test_flat_under_subdivision(self):
        base = complete_binary_tree(2)
        r1 = measure_memory(base, 3, rendezvous_agent(max_outer=2),
                            estimate_round_budget(base, 2))
        big = subdivide(base, 7)
        r2 = measure_memory(big, 3, rendezvous_agent(max_outer=2),
                            estimate_round_budget(big, 2))
        assert r1.declared == r2.declared

    def test_replay_drive_counters_are_pinned(self):
        """The exact ``drive.*`` counts of the ℓ=4 memory-vs-leaves point:
        P is built once per extremity of C and its 66 traversals are
        jumped, and each of the 2(ν-1)-1 = 9 Explo-bis that Synchro
        inserts is one jumped closed walk (261 + 9 walk jumps).  A replay
        that fell back to walk-by-walk traversals, or ran an inserted
        Explo-bis move by move, would change them."""
        tree = double_broom(77, 2, 2)
        tel = telemetry.Telemetry()
        with telemetry.use(tel):
            report = measure_memory(tree, 78, rendezvous_agent(max_outer=2),
                                    estimate_round_budget(tree, 2))
        counts = {k: v for k, v in tel.counters.items() if k.startswith("drive.")}
        assert counts == {
            "drive.walk.jump": 270,
            "drive.block.jump": 66,
            "drive.block.build": 2,
        }
        assert (report.declared, report.used) == (40, 37)

    def test_baseline_memory_grows_with_n(self):
        r1 = measure_memory(line(8), 0, baseline_agent(), 600)
        r2 = measure_memory(line(64), 0, baseline_agent(), 20_000)
        assert r2.declared > r1.declared

    def test_report_str(self):
        t = line(7)
        report = measure_memory(t, 0, rendezvous_agent(max_outer=1),
                                estimate_round_budget(t, 1))
        text = str(report)
        assert "declared" in text and "bound" in text


class TestSolveAPI:
    def test_memory_attached_to_result(self):
        r = solve(line(9), 1, 4)
        assert r.met
        assert r.memory is not None

    def test_infeasible_raise_and_override(self):
        t = line(6)
        with pytest.raises(InfeasibleRendezvousError):
            solve(t, 1, 4)  # mirror pair: perfectly symmetrizable
        # NB: perfect symmetrizability quantifies over labelings; under the
        # canonical labeling the pair may be non-symmetric and the agents
        # can actually meet.  Use the mirror-symmetric labeling, where
        # Fact 1.1's impossibility bites for real:
        from repro.trees import are_symmetric_for_labeling, edge_colored_line

        sym = edge_colored_line(6)
        assert are_symmetric_for_labeling(sym, 1, 4)
        r = solve(sym, 1, 4, check_feasibility=False, max_rounds=20_000)
        assert not r.met and not r.feasible

    def test_custom_agent_injection(self):
        r = solve(line(7), 0, 3, agent=rendezvous_agent(max_outer=3))
        assert r.met

    def test_budget_override(self):
        r = solve(line(7), 0, 3, max_rounds=50)
        # tiny budget may or may not meet; must not crash and must respect it
        assert r.outcome.rounds_executed <= 50

    def test_estimate_budget_monotone(self):
        assert estimate_round_budget(line(9), 2) < estimate_round_budget(line(9), 6)
        assert estimate_round_budget(line(9), 3) < estimate_round_budget(line(33), 3)

    def test_solve_with_delay_star(self):
        r = solve_with_delay(star(5), 1, 4, 25)
        assert r.met
        assert r.feasible

    def test_record_trace(self):
        r = solve(line(7), 0, 3, record_trace=True)
        assert r.outcome.trace is not None
        assert len(r.outcome.trace) == r.outcome.rounds_executed


class TestMemoryReportFunction:
    def test_memory_report_of_fresh_agent(self):
        agent = rendezvous_agent()
        report = memory_report(agent)
        assert report.declared == 0
        assert report.registers == {}
