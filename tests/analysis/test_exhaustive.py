"""Tests for the exhaustive verifiers (Thm 4.1 / Fact 1.1)."""

from repro.analysis import verify_fact_11_impossibility, verify_theorem_41
from repro.sim import run_rendezvous


class TestVerifyTheorem41:
    def test_exhaustive_to_six(self):
        report = verify_theorem_41(max_n=6, random_labelings=1)
        assert report.ok, report.failures[:3]
        assert report.trees_checked == 1 + 1 + 2 + 3 + 6
        assert report.instances > 200

    def test_report_shape(self):
        report = verify_theorem_41(max_n=3, random_labelings=0)
        assert report.ok
        # n=2: the 2-node tree's only pair is perfectly symmetrizable
        # n=3: the path's 3 pairs are all feasible
        assert report.instances == 3


class TestVerifyFact11:
    def test_impossibility_to_six(self):
        report = verify_fact_11_impossibility(max_n=6, budget_rounds=40_000)
        assert report.ok, report.failures[:3]
        # only even-ish symmetric trees contribute pairs
        assert report.instances >= 4

    def test_two_node_tree(self):
        report = verify_fact_11_impossibility(max_n=2, budget_rounds=2_000)
        assert report.ok
        assert report.instances == 1  # the single mirror pair of the edge

    def test_an_uncertified_run_counts_as_a_failure(self):
        # running out the budget without meeting is only an observation;
        # the check asks every engine for the certified verdict
        def observe_only(tree, agent, u, v, **kwargs):
            kwargs["certify"] = False
            return run_rendezvous(tree, agent, u, v, **kwargs)

        report = verify_fact_11_impossibility(
            max_n=4, budget_rounds=500, engine=observe_only
        )
        assert report.instances == 3  # the 2-node edge, two 4-path pairs
        assert len(report.failures) == 3
