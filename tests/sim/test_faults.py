"""Tests for the fault-model layer (repro.sim.faults).

Covers the FaultPlan value object (validation, serialization, the CLI
grammar), the semantics of each fault kind on the reference engine, the
crash-attribution field on outcomes, reference/compiled parity for
faulted runs and sweeps (every engine runs a plan in its one loop via
``faults=``), and the registered fault scenarios end-to-end on both
backends.
"""

import pytest

from repro.agents import STAY, Automaton, alternator, counting_walker
from repro.errors import SimulationError
from repro.scenarios import Runner
from repro.sim import (
    CrashFault,
    FaultPlan,
    PauseFault,
    RelabelFault,
    run_gathering,
    run_gathering_compiled,
    run_gathering_reference,
    run_rendezvous,
    run_rendezvous_compiled,
    solve_all_delays_faulted,
    solve_gathering_faulted,
)
from repro.trees import edge_colored_line, line
from repro.trees.automorphism import is_symmetric_labeling


def stayer():
    return Automaton(1, {}, [STAY])


def walker():
    return Automaton(1, {}, [0])


class TestFaultPlanValidation:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(crashes=(CrashFault(0, 1),))

    def test_faults_are_sorted_canonically(self):
        plan = FaultPlan(
            crashes=(CrashFault(1, 5), CrashFault(0, 2)),
            pauses=(PauseFault(0, 7), PauseFault(1, 3, 2)),
            relabels=(RelabelFault(9), RelabelFault(4, 1)),
        )
        assert [c.round for c in plan.crashes] == [2, 5]
        assert [p.round for p in plan.pauses] == [3, 7]
        assert [r.round for r in plan.relabels] == [4, 9]

    def test_rejects_bad_crash_fields(self):
        with pytest.raises(SimulationError):
            FaultPlan(crashes=(CrashFault(-1, 3),))
        with pytest.raises(SimulationError):
            FaultPlan(crashes=(CrashFault(0, 0),))

    def test_rejects_two_crashes_for_one_agent(self):
        with pytest.raises(SimulationError):
            FaultPlan(crashes=(CrashFault(0, 2), CrashFault(0, 5)))

    def test_rejects_bad_pause_fields(self):
        with pytest.raises(SimulationError):
            FaultPlan(pauses=(PauseFault(0, 1, 0),))
        with pytest.raises(SimulationError):
            FaultPlan(pauses=(PauseFault(0, 0, 1),))

    def test_rejects_overlapping_pauses_same_agent(self):
        with pytest.raises(SimulationError):
            FaultPlan(pauses=(PauseFault(0, 2, 3), PauseFault(0, 4, 1)))
        # Back-to-back is fine; overlap is only within one agent.
        FaultPlan(pauses=(PauseFault(0, 2, 3), PauseFault(0, 5, 1)))
        FaultPlan(pauses=(PauseFault(0, 2, 3), PauseFault(1, 3, 2)))

    def test_rejects_two_relabels_in_one_round(self):
        with pytest.raises(SimulationError):
            FaultPlan(relabels=(RelabelFault(4, 0), RelabelFault(4, 1)))

    def test_horizon(self):
        assert FaultPlan().horizon == 0
        plan = FaultPlan(
            crashes=(CrashFault(0, 3),),
            pauses=(PauseFault(1, 4, 5),),  # active through round 8
            relabels=(RelabelFault(6),),
        )
        assert plan.horizon == 8

    def test_validate_for_rejects_out_of_range_agents(self):
        plan = FaultPlan(crashes=(CrashFault(2, 6),))
        plan.validate_for(3)
        with pytest.raises(SimulationError):
            plan.validate_for(2)

    def test_frozen_in_round_and_crashed_by(self):
        plan = FaultPlan(
            crashes=(CrashFault(1, 5),), pauses=(PauseFault(0, 2, 2),)
        )
        assert not plan.frozen_in_round(0, 1)
        assert plan.frozen_in_round(0, 2)
        assert plan.frozen_in_round(0, 3)
        assert not plan.frozen_in_round(0, 4)
        assert not plan.frozen_in_round(1, 4)
        assert plan.frozen_in_round(1, 5)
        assert plan.frozen_in_round(1, 10**6)  # crash-stop is forever
        assert plan.crashed_by(4) == ()
        assert plan.crashed_by(5) == (1,)
        assert plan.crashed_by(10**6) == (1,)


class TestFaultPlanSerialization:
    PLAN = FaultPlan(
        crashes=(CrashFault(2, 6),),
        pauses=(PauseFault(0, 2, 2),),
        relabels=(RelabelFault(3, 1), RelabelFault(6, 2)),
    )

    def test_json_roundtrip(self):
        assert FaultPlan.from_json(self.PLAN.to_json()) == self.PLAN
        assert FaultPlan.from_json({}) == FaultPlan()

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(SimulationError):
            FaultPlan.from_json({"crashes": [[0, 1]], "typo": []})

    def test_from_json_rejects_malformed_payloads(self):
        with pytest.raises(SimulationError):
            FaultPlan.from_json("crash:0@1")
        with pytest.raises(SimulationError):
            FaultPlan.from_json({"crashes": [[0]]})

    def test_parse_many_grammar(self):
        plan = FaultPlan.parse_many(
            ["crash:1@4", "pause:0@2:2", "relabel@3:5"]
        )
        assert plan.crashes == (CrashFault(1, 4),)
        assert plan.pauses == (PauseFault(0, 2, 2),)
        assert plan.relabels == (RelabelFault(3, 5),)

    def test_parse_many_defaults(self):
        plan = FaultPlan.parse_many(["pause:0@2", "relabel@3"])
        assert plan.pauses == (PauseFault(0, 2, 1),)
        assert plan.relabels == (RelabelFault(3, 0),)

    def test_parse_many_rejects_garbage(self):
        for bad in ("crash:0", "pause:x@2", "melt:0@2", "relabel@"):
            with pytest.raises(SimulationError):
                FaultPlan.parse_many([bad])

    def test_coerce(self):
        assert FaultPlan.coerce(None) is None
        assert FaultPlan.coerce(FaultPlan()) is None
        assert FaultPlan.coerce({}) is None
        assert FaultPlan.coerce(self.PLAN) is self.PLAN
        assert FaultPlan.coerce(self.PLAN.to_json()) == self.PLAN
        assert FaultPlan.coerce("crash:1@4") == FaultPlan(
            crashes=(CrashFault(1, 4),)
        )
        assert FaultPlan.coerce(["crash:1@4", "relabel@3:5"]) == FaultPlan(
            crashes=(CrashFault(1, 4),), relabels=(RelabelFault(3, 5),)
        )
        with pytest.raises(SimulationError):
            FaultPlan.coerce(3.14)


class TestFaultSemantics:
    def test_crashed_agent_never_moves_again(self):
        plan = FaultPlan(crashes=(CrashFault(1, 3),))
        out = run_rendezvous(
            line(8), walker(), 0, 7, faults=plan,
            max_rounds=40, record_trace=True,
        )
        frozen_pos = out.trace.records[1].pos2  # end of round 2
        for rec in out.trace.records[2:]:
            assert rec.pos2 == frozen_pos
            assert rec.action2 == STAY

    def test_paused_agent_freezes_then_resumes(self):
        plan = FaultPlan(pauses=(PauseFault(0, 2, 3),))
        out = run_rendezvous(
            line(8), walker(), 7, 0, faults=plan,
            max_rounds=12, record_trace=True,
        )
        records = {r.round_index: r for r in out.trace.records}
        for rnd in (2, 3, 4):
            assert records[rnd].action1 == STAY
        # A walker that never stays on its own moves once the pause ends.
        assert records[5].action1 != STAY

    def test_crash_is_attributed_on_the_outcome(self):
        plan = FaultPlan(crashes=(CrashFault(1, 1),))
        out = run_rendezvous(
            line(5), stayer(), 0, 3, faults=plan,
            max_rounds=200, certify=True,
        )
        assert out.certified_never
        assert out.crashed == (1,)

    def test_meeting_before_the_crash_is_not_attributed(self):
        # Schedule the crash strictly after the fault-free meeting round:
        # it never fires, so the meeting carries no crash attribution.
        tree = edge_colored_line(9)
        clean = run_rendezvous(
            tree, alternator(), 0, 5, delay=1, delayed=1, max_rounds=5000
        )
        assert clean.met
        plan = FaultPlan(crashes=(CrashFault(0, clean.meeting_round + 1),))
        out = run_rendezvous(
            tree, alternator(), 0, 5, faults=plan,
            delay=1, delayed=1, max_rounds=5000,
        )
        assert out.met
        assert out.meeting_round == clean.meeting_round
        assert out.crashed == ()

    def test_fault_free_runs_have_empty_crashed(self):
        out = run_rendezvous(line(6), counting_walker(1), 0, 1, max_rounds=100)
        assert out.crashed == ()

    def test_relabel_schedule_is_deterministic_and_symmetry_preserving(self):
        tree = edge_colored_line(9)
        plan = FaultPlan(relabels=(RelabelFault(3, 1), RelabelFault(6, 2)))
        sched_a = plan.labeling_schedule(tree)
        sched_b = plan.labeling_schedule(tree)
        assert [r for r, _ in sched_a] == [1, 3, 6]
        base = is_symmetric_labeling(tree)
        for (ra, ta), (rb, tb) in zip(sched_a, sched_b):
            assert ra == rb
            assert ta == tb  # seeded redraw: replayable
            assert is_symmetric_labeling(ta) == base

    def test_relabel_run_is_replayable(self):
        tree = edge_colored_line(9)
        plan = FaultPlan(relabels=(RelabelFault(3, 1),))
        kw = dict(faults=plan, max_rounds=5000, certify=True)
        a = run_rendezvous(tree, alternator(), 0, 5, **kw)
        b = run_rendezvous(tree, alternator(), 0, 5, **kw)
        assert (a.met, a.meeting_round, a.certified_never) == (
            b.met, b.meeting_round, b.certified_never
        )


class TestFaultedParity:
    """Reference loop and compiled loop agree row-for-row under faults."""

    PLANS = [
        FaultPlan(crashes=(CrashFault(1, 4),)),
        FaultPlan(pauses=(PauseFault(0, 2, 2), PauseFault(1, 3, 1))),
        FaultPlan(relabels=(RelabelFault(3, 1), RelabelFault(6, 2))),
        FaultPlan(
            crashes=(CrashFault(0, 7),),
            pauses=(PauseFault(1, 2, 2),),
            relabels=(RelabelFault(4, 3),),
        ),
    ]

    @pytest.mark.parametrize("plan", PLANS)
    def test_single_run_parity(self, plan):
        tree = edge_colored_line(9)
        for delay, delayed in [(0, 2), (1, 1), (2, 2)]:
            kw = dict(
                faults=plan, delay=delay, delayed=delayed,
                max_rounds=20000, certify=True,
            )
            ref = run_rendezvous(tree, alternator(), 0, 5, **kw)
            cmp_ = run_rendezvous_compiled(tree, alternator(), 0, 5, **kw)
            assert (ref.met, ref.meeting_round, ref.certified_never,
                    ref.crashed) == (
                cmp_.met, cmp_.meeting_round, cmp_.certified_never,
                cmp_.crashed,
            )

    @pytest.mark.parametrize("plan", PLANS)
    def test_delay_solver_matches_per_run_reference(self, plan):
        tree = edge_colored_line(9)
        verdicts = solve_all_delays_faulted(
            tree, alternator(), 0, 5, max_delay=3, faults=plan,
        )
        assert verdicts  # the sweep is never empty
        for v in verdicts:
            ref = run_rendezvous(
                tree, alternator(), 0, 5, faults=plan, delay=v.delay,
                delayed=v.delayed, max_rounds=200000, certify=True,
            )
            assert (v.met, v.meeting_round) == (ref.met, ref.meeting_round)
            assert v.certified_never == ref.certified_never
            if ref.met:
                assert v.crashed == bool(ref.crashed)

    def test_gathering_parity_and_crash_attribution(self):
        tree = line(9)
        plan = FaultPlan(
            crashes=(CrashFault(2, 6),), pauses=(PauseFault(0, 2, 2),)
        )
        for starts, delays in [((0, 1, 3), None), ((0, 2, 4), (0, 1, 2))]:
            kw = dict(faults=plan, delays=delays, max_rounds=20000, certify=True)
            ref = run_gathering_reference(
                tree, counting_walker(2), starts, **kw
            )
            cmp_ = run_gathering_compiled(
                tree, counting_walker(2), starts, **kw
            )
            assert (ref.gathered, ref.gathering_round, ref.certified_never,
                    ref.crashed) == (
                cmp_.gathered, cmp_.gathering_round, cmp_.certified_never,
                cmp_.crashed,
            )

    def test_gathering_solver_matches_per_run(self):
        tree = line(9)
        plan = FaultPlan(crashes=(CrashFault(2, 6),))
        vectors = [(0, 0, 0), (0, 1, 2), (2, 0, 1)]
        verdicts = solve_gathering_faulted(
            tree, counting_walker(2), (0, 1, 3), vectors, faults=plan,
        )
        assert len(verdicts) == len(vectors)
        for v, vec in zip(verdicts, vectors):
            ref = run_gathering(
                tree, counting_walker(2), (0, 1, 3), delays=list(vec),
                faults=plan, max_rounds=200000, certify=True,
            )
            assert (v.gathered, v.gathering_round) == (
                ref.gathered, ref.gathering_round
            )
            assert v.certified_never == ref.certified_never


class TestFaultScenarios:
    """The registered fault scenarios run identically on both backends
    and exercise the certified-never-crash verdict class."""

    @pytest.mark.parametrize(
        "name", ["rendezvous-relabel-line", "gathering-crash-k3"]
    )
    def test_reference_compiled_rows_identical(self, name):
        ref = Runner(backend="reference").run(name)
        cmp_ = Runner(backend="compiled").run(name)
        assert ref.rows == cmp_.rows
        assert ref.summary == cmp_.summary
        assert ref.ok and cmp_.ok

    def test_crash_scenario_attributes_verdicts(self):
        result = Runner().run("gathering-crash-k3")
        verdicts = {row["verdict"] for row in result.rows}
        assert "certified-never-crash" in verdicts
        assert result.summary["crashed"] == sum(
            row["verdict"] == "certified-never-crash" for row in result.rows
        )

    def test_relabel_scenario_mixes_verdicts_without_crashes(self):
        result = Runner().run("rendezvous-relabel-line")
        verdicts = {row["verdict"] for row in result.rows}
        assert verdicts == {"met", "certified-never"}
        assert "crashed" not in result.summary
