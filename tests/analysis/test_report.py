"""Tests for the experiment report and small-tree edge cases."""

import json
from pathlib import Path

from repro.analysis.report import SECTIONS, generate_report, run_sections
from repro.cli import main
from repro.scenarios import Runner, ScenarioResult
from repro.scenarios.registry import get_scenario

GOLDEN = Path(__file__).resolve().parents[2] / "benchmarks" / "results" / "golden"

HEADINGS = ("E1", "E3a", "E3b", "E4", "E7", "Program memory atlas")
READINGS = (
    "exponential in bits", "all met: True", "log ℓ shape", "(polynomial)",
    "(~2 log n)", "behavioral padding",
)


def golden(name: str) -> ScenarioResult:
    return ScenarioResult.from_payload(
        json.loads((GOLDEN / f"{name}.json").read_text())
    )


class GoldenRunner:
    """Serves each scenario's golden result and records every request."""

    def __init__(self):
        self.calls = []

    def run(self, name, *, params=None):
        self.calls.append((name, params))
        return golden(name)


def assert_report_structure(text: str) -> None:
    assert text.startswith("# Reproduction report")
    for heading in HEADINGS:
        assert f"\n## {heading}" in text
    for reading in READINGS:
        assert reading in text


class TestReport:
    def test_quick_report_structure(self):
        assert_report_structure(
            generate_report(run_sections(Runner(), quick=True))
        )

    def test_full_scale_runs_every_scenario_with_no_overrides(self):
        runner = GoldenRunner()
        text = generate_report(run_sections(runner, quick=False))
        assert runner.calls == [(name, None) for _, name, _, _ in SECTIONS]
        assert_report_structure(text)
        for _, name, _, _ in SECTIONS:
            assert golden(name).table() in text

    def test_quick_overrides_only_shrink_registered_params(self):
        for _, name, overrides, _ in SECTIONS:
            assert overrides
            assert set(overrides) <= set(get_scenario(name).params)

    def test_report_and_experiments_render_the_same_sections(self, capsys):
        assert main(["experiments", "--quick"]) == 0
        experiments = capsys.readouterr().out
        assert main(["report"]) == 0
        report = capsys.readouterr().out
        headings = [heading for heading, *_ in SECTIONS]
        assert [line[2:] for line in experiments.splitlines()
                if line.startswith("# ")] == headings
        assert [line[3:] for line in report.splitlines()
                if line.startswith("## ")] == headings
        tables = report.split("```")[1::2]
        assert len(tables) == len(SECTIONS)
        for table in tables:
            assert table.strip("\n") in experiments

    def test_cli_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        rc = main(["report", "-o", str(out)])
        assert rc == 0
        assert_report_structure(out.read_text())


class TestTinyTreeEdgeCases:
    """The whole public surface on 1- and 2-node trees."""

    def test_one_node_tree(self):
        from repro.trees import Tree, ascii_tree, contract, find_center, tree_to_json, tree_from_json
        from repro.sim import run_rendezvous
        from repro.core import rendezvous_agent

        t = Tree([[]], validate=False)
        assert find_center(t).is_node
        assert contract(t).nu == 1
        assert "(0)" in ascii_tree(t)
        assert tree_from_json(tree_to_json(t)).n == 1
        out = run_rendezvous(t, rendezvous_agent(max_outer=1), 0, 0)
        assert out.met and out.meeting_round == 0

    def test_two_node_tree(self):
        from repro.core import solve
        from repro.errors import InfeasibleRendezvousError
        from repro.trees import line, perfectly_symmetrizable

        t = line(2)
        assert perfectly_symmetrizable(t, 0, 1)
        import pytest

        with pytest.raises(InfeasibleRendezvousError):
            solve(t, 0, 1)
        r = solve(t, 0, 1, check_feasibility=False, max_rounds=5000)
        assert not r.met  # provably impossible (the two ports are both 0)

    def test_two_node_gathering_regime(self):
        from repro.core import classify_gathering
        from repro.trees import line

        regime = classify_gathering(line(2))
        assert regime.kind == "symmetric"
