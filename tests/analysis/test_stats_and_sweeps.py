"""Tests for series statistics and the experiment sweep drivers."""

import math

import pytest

from repro.analysis import (
    Series,
    fit_loglog_slope,
    gap_table,
    geometric_mean,
    growth_ratios,
    memory_vs_leaves,
    memory_vs_n_fixed_leaves,
    prime_rounds_vs_path_length,
    success_sweep,
)
from repro.trees import all_trees


class TestStats:
    def test_series_validation(self):
        with pytest.raises(ValueError):
            Series("bad", (1.0, 2.0), (1.0,))

    def test_series_table(self):
        s = Series("s", (1.0, 2.0), (3.0, 4.0))
        assert "3" in s.table()
        assert len(s) == 2

    def test_growth_ratios(self):
        assert growth_ratios([1, 2, 4, 8]) == [2.0, 2.0, 2.0]
        assert growth_ratios([0, 5])[0] == math.inf

    def test_fit_loglog_slope_power_laws(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        assert abs(fit_loglog_slope(xs, [x**2 for x in xs]) - 2.0) < 1e-9
        assert abs(fit_loglog_slope(xs, [5.0] * 4)) < 1e-9

    def test_fit_loglog_errors(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 1.0], [1.0, 2.0])

    def test_geometric_mean(self):
        assert abs(geometric_mean([1, 100]) - 10.0) < 1e-9
        with pytest.raises(ValueError):
            geometric_mean([0, 0])


class TestSweepShapes:
    """The reproduction targets: the *shape* of each curve."""

    def test_memory_flat_in_n(self):
        series, points = memory_vs_n_fixed_leaves(subdivisions=(0, 1, 3, 7))
        assert all(p.met for p in points)
        assert max(series.ys) - min(series.ys) <= 4  # flat up to loglog drift

    def test_memory_logarithmic_in_leaves(self):
        series, points = memory_vs_leaves(leaf_counts=(4, 8, 16), total_nodes=80)
        assert all(p.met for p in points)
        diffs = [b - a for a, b in zip(series.ys, series.ys[1:])]
        # roughly constant increment per doubling of ℓ => log ℓ shape
        assert all(d > 0 for d in diffs)
        assert max(diffs) - min(diffs) <= 4

    def test_thm31_exponential_in_bits(self):
        from repro.scenarios import Runner

        result = Runner().run("thm31-sweep", params={"ks": [1, 2, 3]})
        ratios = result.summary["growth_ratios"]
        assert len(ratios) == 2
        assert all(r > 1.3 for r in ratios)  # exponential-ish growth

    def test_prime_rounds_polynomial(self):
        series = prime_rounds_vs_path_length(lengths=(5, 9, 17))
        slope = fit_loglog_slope(series.xs, series.ys)
        assert 0.5 < slope < 3.5  # polynomial in m, not exponential

    def test_success_sweep_all_meet(self):
        trees = all_trees(6)[:4]
        points = success_sweep(trees, pairs_per_tree=2)
        assert points
        assert all(p.met for p in points)


class TestGapTable:
    def test_gap_shapes(self):
        rows = gap_table(subdivisions=(0, 1, 3, 7))
        assert all(r.delay0_met and r.arbitrary_met for r in rows)
        delay0 = [r.delay0_bits for r in rows]
        arb = [r.arbitrary_bits for r in rows]
        # delay-0 memory flat in n; arbitrary-delay memory strictly growing
        assert max(delay0) - min(delay0) <= 4
        assert arb == sorted(arb) and arb[-1] > arb[0]
        # and the baseline tracks ~2 log n
        for r in rows:
            assert abs(r.arbitrary_bits - 2 * r.reference_log) <= 3
