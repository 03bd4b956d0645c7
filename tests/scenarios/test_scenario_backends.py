"""Backend-parity tests: the ISSUE's acceptance criterion.

``scenarios run thm31-sweep --backend compiled`` and
``--backend reference`` must produce identical outcome tables, and the
backend protocol's sweep ordering must match the batched solver's.
"""

import random

import pytest

from repro.agents import counting_walker, random_tree_automaton
from repro.agents.library import counting_program
from repro.core import rendezvous_agent
from repro.errors import SimulationError
from repro.scenarios import (
    AutoBackend,
    BatchedBackend,
    CompiledBackend,
    ReferenceBackend,
    Runner,
    select_backend,
)
from repro.sim import BatchJob, GatheringJob, solve_all_delays
from repro.trees import edge_colored_line, line, spider


class TestScenarioParity:
    @pytest.mark.parametrize(
        "name",
        ["thm31-sweep", "delays-line", "gathering-line-k3", "gathering-spider-k3"],
    )
    def test_reference_compiled_batched_rows_identical(self, name):
        runner = Runner()
        params = {"ks": [1, 2]} if name == "thm31-sweep" else None
        reference = runner.run(name, backend="reference", params=params)
        compiled = runner.run(name, backend="compiled", params=params)
        batched = runner.run(name, backend="batched", params=params)
        assert reference.rows == compiled.rows == batched.rows
        assert reference.spec_hash() == compiled.spec_hash()
        assert {reference.backend, compiled.backend, batched.backend} == {
            "reference", "compiled", "batched",
        }

    @pytest.mark.parametrize(
        "name",
        ["gathering-line-k3", "gathering-line-k4",
         "gathering-spider-k3", "gathering-binary-k4"],
    )
    def test_gathering_registry_defaults_fully_decided(self, name):
        """The ISSUE's acceptance criterion: every registry gathering grid
        has at least one row per verdict class and no undecided rows."""
        result = Runner().run(name)
        assert result.ok
        assert result.summary["undecided"] == 0
        assert result.summary["met"] >= 1
        assert result.summary["certified_never"] >= 1
        verdicts = {r["verdict"] for r in result.rows}
        assert verdicts == {"met", "certified-never"}

    def test_cli_parity(self, capsys):
        from repro.cli import main

        outs = {}
        for backend in ("reference", "compiled"):
            rc = main(
                ["scenarios", "run", "thm31-sweep", "--backend", backend,
                 "--set", "ks=[1,2]"]
            )
            assert rc == 0
            out = capsys.readouterr().out
            outs[backend] = out.split("\nscenario=")[0]  # table only
        assert outs["reference"] == outs["compiled"]


class TestBackendProtocol:
    def test_reference_sweep_matches_batched_solver(self):
        tree = edge_colored_line(9)
        agent = counting_walker(2)
        ref = ReferenceBackend().sweep_delays(tree, agent, 0, 5, max_delay=6)
        fast = solve_all_delays(tree, agent, 0, 5, max_delay=6)
        assert [
            (v.delay, v.delayed, v.met, v.meeting_round, v.certified_never)
            for v in ref
        ] == [
            (v.delay, v.delayed, v.met, v.meeting_round, v.certified_never)
            for v in fast
        ]

    @pytest.mark.parametrize(
        "name,params",
        [
            ("verify-small", {"max_n": 5}),
            ("gap-table", {"subdivisions": [0, 1]}),
            (
                "success-families",
                {
                    "pairs_per_tree": 2,
                    "families": {"lines": ["line:7"], "binary": ["binary:2"]},
                },
            ),
        ],
    )
    def test_lowered_scenarios_rows_identical_across_backends(self, name, params):
        """The ISSUE's tentpole seam: the program-agent scenarios gained
        --backend compiled through lowering, with reference-parity rows."""
        runner = Runner()
        reference = runner.run(name, backend="reference", params=params)
        compiled = runner.run(name, backend="compiled", params=params)
        assert reference.rows == compiled.rows
        assert reference.summary == compiled.summary
        assert reference.ok and compiled.ok

    def test_compiled_lowers_register_programs(self):
        # Register programs are compiled-backend citizens via lowering:
        # traced execution, reference-parity verdicts.
        ref = ReferenceBackend().run(line(5), rendezvous_agent(), 0, 3)
        low = CompiledBackend().run(line(5), rendezvous_agent(), 0, 3)
        assert ref.met and (ref.met, ref.meeting_round, ref.meeting_node) == (
            low.met, low.meeting_round, low.meeting_node
        )

    def test_compiled_still_rejects_duck_typed_agents(self):
        class Opaque:
            def start(self, degree):
                return -1

            def step(self, in_port, degree):
                return -1

            def clone(self):
                return Opaque()

        with pytest.raises(SimulationError):
            CompiledBackend().run(line(5), Opaque(), 0, 3)

    def test_run_many_order_and_parity(self):
        tree = line(6)
        agent = counting_walker(1)
        jobs = [
            BatchJob(tree, agent, u, v, delay=d, max_rounds=5000, certify=True)
            for (u, v, d) in [(0, 5, 0), (1, 4, 2), (2, 5, 1)]
        ]
        ref = ReferenceBackend().run_many(jobs)
        bat = BatchedBackend(processes=2).run_many(jobs)
        assert [
            (o.met, o.meeting_round, o.certified_never) for o in ref
        ] == [
            (o.met, o.meeting_round, o.certified_never) for o in bat
        ]

    def test_select_backend_names(self):
        for hint in ("auto", "reference", "compiled", "batched"):
            assert select_backend(hint).name == hint

    @pytest.mark.parametrize("sides", [(), (2, 2), (3,)])
    @pytest.mark.parametrize(
        "agent", [counting_walker(2), counting_program(2)],
        ids=["native", "lowerable"],
    )
    @pytest.mark.parametrize(
        "backend", [ReferenceBackend(), CompiledBackend(), AutoBackend()],
        ids=lambda b: b.name,
    )
    def test_malformed_sides_rejected_on_every_backend(self, backend, agent, sides):
        # one validation for every path: no extra rows for repeated
        # sides, no bare IndexError for empty ones
        with pytest.raises(SimulationError, match="delayed_sides"):
            backend.sweep_delays(
                edge_colored_line(9), agent, 0, 5, max_delay=2, sides=sides
            )


class TestSweepBudget:
    """The satellite fix: an explicit sweep budget is never dropped —
    the exact solvers honor it as their configuration guard and degrade
    to budgeted per-run verdicts (undecided, never crash or fake proof)
    when it trips."""

    def test_compiled_sweep_honors_explicit_budget(self):
        tree = edge_colored_line(9)
        agent = counting_walker(2)
        for backend in (CompiledBackend(), AutoBackend()):
            verdicts = backend.sweep_delays(
                tree, agent, 0, 5, max_delay=6, max_rounds=2
            )
            # 2 rounds decide nothing on this instance: every verdict
            # must come back undecided, not as a proof and not a raise.
            assert verdicts
            assert all(not v.met and not v.certified_never for v in verdicts)

    def test_compiled_sweep_default_needs_no_budget(self):
        tree = edge_colored_line(9)
        agent = counting_walker(2)
        verdicts = CompiledBackend().sweep_delays(tree, agent, 0, 5, max_delay=6)
        assert all(v.met or v.certified_never for v in verdicts)

    def test_budgeted_sweep_matches_reference_rows(self):
        # The cross-backend seam survives an explicit budget: the same
        # starved sweep yields the same undecided outcome table.
        result_ref = Runner().run(
            "gathering-line-k4", backend="reference", params={"max_rounds": 2}
        )
        result_cmp = Runner().run(
            "gathering-line-k4", backend="compiled", params={"max_rounds": 2}
        )
        assert result_ref.rows == result_cmp.rows
        assert not result_ref.ok  # undecided rows are reported, not hidden

    def test_gathering_sweep_budget_threads_to_solver(self):
        from repro.agents import alternator

        # Three alternators on a line never gather from these starts:
        # certifying that needs the full joint cycle, which a 2-config
        # guard cannot accommodate — so the budgeted sweep degrades to
        # 2-round per-run verdicts (undecided), while the unbudgeted
        # sweep proves non-gathering.
        agent = alternator()
        tree, starts = line(9), [0, 3, 6]
        (starved,) = CompiledBackend().sweep_gathering(
            tree, agent, starts, [[0, 0, 0]], max_rounds=2
        )
        assert not starved.gathered and not starved.certified_never
        (verdict,) = CompiledBackend().sweep_gathering(
            tree, agent, starts, [[0, 0, 0]]
        )
        assert verdict.certified_never


class TestGatheringProtocol:
    def test_sweep_gathering_backends_agree(self):
        tree = spider([2, 2, 2])
        agent = random_tree_automaton(3, rng=random.Random(2))
        starts = [1, 3, 5]
        vectors = [[0, 0, 0], [0, 1, 2], [3, 0, 1], [5, 5, 0]]

        def verdicts(backend):
            return [
                (v.delays, v.gathered, v.gathering_round, v.certified_never)
                for v in backend.sweep_gathering(tree, agent, starts, vectors)
            ]

        ref = verdicts(ReferenceBackend())
        assert ref == verdicts(CompiledBackend())
        assert ref == verdicts(BatchedBackend(processes=2))
        assert all(gathered or certified for _, gathered, _, certified in ref)

    def test_run_gathering_many_order_and_parity(self):
        tree = spider([2, 2, 2])
        agent = random_tree_automaton(3, rng=random.Random(2))
        jobs = [
            GatheringJob(tree, agent, starts, delays,
                         max_rounds=5000, certify=True)
            for starts, delays in [
                ((1, 3, 5), (0, 0, 0)),
                ((2, 4, 6), (1, 2, 0)),
                ((1, 2, 3), None),
            ]
        ]
        ref = ReferenceBackend().run_gathering_many(jobs)
        bat = BatchedBackend(processes=2).run_gathering_many(jobs)
        assert [
            (o.gathered, o.gathering_round, o.certified_never) for o in ref
        ] == [
            (o.gathered, o.gathering_round, o.certified_never) for o in bat
        ]

    def test_compiled_lowers_program_gathering(self):
        ref = ReferenceBackend().run_gathering(
            line(5), rendezvous_agent(), [0, 2, 4]
        )
        low = CompiledBackend().run_gathering(
            line(5), rendezvous_agent(), [0, 2, 4]
        )
        assert (ref.gathered, ref.gathering_round, ref.gathering_node) == (
            low.gathered, low.gathering_round, low.gathering_node
        )
