"""Unit tests for the benchmark harness's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench -q`` (or
``python3 -m unittest perfbench.test_perfbench``).  Nothing here spawns a
scenario process or imports ``repro``.
"""

import contextlib
import io
import json
import statistics
import unittest
from unittest import mock

from perfbench import run
from perfbench.harness import (
    ROOT,
    Proc,
    Session,
    accounting_problems,
    end_to_end,
    layer_metrics,
)
from perfbench.stats import Spans, quartiles, row_mismatch, rows_digest, spread
from perfbench.workloads import VARIANTS, WORKLOADS, Job


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestOrderStatistics(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, med, q3 = quartiles(values)
        self.assertEqual((q1, q3), tuple(statistics.quantiles(values, n=4)[::2]))
        self.assertEqual(med, 3.75)

    def test_odd_sample_median(self):
        self.assertEqual(quartiles([5, 1, 3])[1], 3)

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_spread_is_iqr_over_median(self):
        values = [8.0, 9.0, 10.0, 11.0, 12.0]
        q1, med, q3 = quartiles(values)
        self.assertAlmostEqual(spread(values), (q3 - q1) / med)
        self.assertEqual(spread([4.0, 4.0, 4.0]), 0.0)

    def test_empty_sample_raises(self):
        with self.assertRaises(ValueError):
            quartiles([])


class TestSelfTime(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.spans = Spans(clock=self.clock)

    def tick(self, seconds):
        self.clock.now += seconds

    def test_nested_wrappers_subtract_children(self):
        inner = self.spans.wrap("inner", lambda: self.tick(2.0))

        def outer_body():
            self.tick(1.0)
            inner()
            self.tick(0.5)
            inner()

        self.spans.wrap("outer", outer_body)()
        self.assertEqual(self.spans.self_s, {"inner": 4.0, "outer": 1.5})
        self.assertEqual(self.spans.total_s, {"inner": 4.0, "outer": 5.5})
        self.assertEqual(self.spans.calls, {"inner": 2, "outer": 1})
        # self times of a span tree add up to its root's duration
        self.assertEqual(sum(self.spans.self_s.values()), 5.5)

    def test_three_levels_and_recursion_count_total_once(self):
        def leaf():
            self.tick(1.0)

        leaf_span = self.spans.wrap("leaf", leaf)

        def mid(depth):
            self.tick(0.25)
            if depth:
                mid_span(depth - 1)
            leaf_span()

        mid_span = self.spans.wrap("mid", mid)
        self.spans.wrap("root", lambda: (self.tick(0.1), mid_span(1)))()
        self.assertAlmostEqual(self.spans.self_s["mid"], 0.5)
        self.assertAlmostEqual(self.spans.total_s["mid"], 2.5)  # not 2.5 + 1.25
        self.assertAlmostEqual(self.spans.self_s["root"], 0.1)
        self.assertAlmostEqual(sum(self.spans.self_s.values()), 2.6)

    def test_raising_span_still_closes(self):
        def boom():
            self.tick(1.0)
            raise KeyError("x")

        wrapped = self.spans.wrap("boom", boom)
        with self.assertRaises(KeyError):
            self.spans.wrap("outer", wrapped)()
        self.assertEqual(self.spans.self_s, {"boom": 1.0, "outer": 0.0})


ROWS = [{"pair": "0,5", "delay": 0, "verdict": "met", "round": 3},
        {"pair": "0,5", "delay": 1, "verdict": "certified-never", "round": None}]


def _run(rows, **extra):
    return {"scenario": "delays-line", "spec_hash": "a" * 16, "ok": True,
            "rows": len(rows), "digest": rows_digest(rows), **extra}


class TestExpectedRows(unittest.TestCase):
    pins = {"a" * 16: {"rows": 2, "sha256": rows_digest(ROWS)}}

    def test_matching_rows_pass(self):
        self.assertIsNone(row_mismatch(_run(ROWS), {}, self.pins))

    def test_injected_row_mismatch_fails(self):
        wrong = [dict(ROWS[0]), dict(ROWS[1], verdict="met")]
        why = row_mismatch(_run(wrong), {}, self.pins)
        self.assertIn("rows differ from the pin", why)

    def test_digest_ignores_key_order_only(self):
        self.assertEqual(rows_digest([{"b": 1, "a": 2}]), rows_digest([{"a": 2, "b": 1}]))
        self.assertNotEqual(rows_digest([{"a": 1}]), rows_digest([{"a": 1.5}]))

    def test_golden_takes_precedence_over_pin(self):
        goldens = {"a" * 16: {"rows": 1, "sha256": rows_digest(ROWS[:1])}}
        self.assertIn("golden", row_mismatch(_run(ROWS), goldens, self.pins))

    def test_not_ok_raised_and_unpinned_fail(self):
        self.assertIn("ok=false", row_mismatch(_run(ROWS, ok=False), {}, self.pins))
        self.assertIn("raised", row_mismatch({"error": "ValueError: x"}, {}, {}))
        self.assertIn("no golden or pinned", row_mismatch(_run(ROWS), {}, {}))


def _proc(job, wall, runs, *, hit_pass=False, setup=0.2, rss=1024, layers=None):
    report = {"setup_s": setup, "import_s": 0.1, "registry_s": 0.01,
              "atlas_open_s": 0.005, "maxrss_kb": rss, "runs": runs}
    if layers is not None:
        report["layers"], report["telemetry"] = layers
    return Proc(job, hit_pass, wall, report)


class TestLedgerAndMetrics(unittest.TestCase):
    def setUp(self):
        self.session = Session(WORKLOADS["registry-atlas"], 0)
        self.session.goldens, self.session.pins = {}, TestExpectedRows.pins
        self.job = Job("delays-line", (("delays-line", {}),), atlas=True)

    def tearDown(self):
        self.session.close()

    def test_ledger_counts_an_injected_mismatch(self):
        wrong = [dict(ROWS[0], round=4), ROWS[1]]
        self.session._ledger(_proc(self.job, 1.0, [_run(ROWS, hit=False)]))
        self.session._ledger(_proc(self.job, 1.0, [_run(wrong, hit=True)], hit_pass=True))
        self.assertEqual(self.session.attempted, 2)
        self.assertEqual(len(self.session.failed), 1)
        self.assertIn("rows differ", self.session.failed[0])

    def test_hit_pass_that_misses_fails(self):
        self.session._ledger(_proc(self.job, 1.0, [_run(ROWS, hit=False)], hit_pass=True))
        self.assertIn("expected an atlas hit", self.session.failed[0])

    def test_dead_process_fails_every_scenario(self):
        job = Job("battery", (("a", {}), ("b", {})))
        proc = Proc(job, False, 1.0, {}, failures=["battery: exited 1"])
        self.session._ledger(proc)
        self.assertEqual((self.session.attempted, len(self.session.failed)), (2, 2))

    def test_end_to_end_takes_each_process_at_its_best(self):
        a = Job("a", (("delays-line", {}),), atlas=True)
        b = Job("b", (("delays-line", {}),))
        c = Job("c", (("delays-line", {}),), atlas=True)
        timed = lambda s: dict(_run(ROWS), run_s=s)  # noqa: E731
        its = [[_proc(a, wa, [timed(ra)], setup=0.3, rss=rss),
                _proc(b, wb, [timed(rb)], setup=sb),
                _proc(c, 0.5, [timed(0.2)], setup=0.15),
                _proc(a, wh, [timed(0.01)], hit_pass=True, setup=0.2),
                _proc(c, 0.3, [timed(0.01)], hit_pass=True, setup=0.25)]
               for wa, ra, wb, rb, sb, wh, rss in ((3.0, 2.0, 1.0, 0.5, 0.5, 0.4, 2048),
                                                   (5.0, 4.0, 0.8, 0.6, 0.1, 0.6, 1024),
                                                   (4.0, 3.0, 0.9, 0.7, 0.3, 0.5, 1024))]
        m = end_to_end(its)
        # best walls: a 3.0, b 0.8, c 0.5, a's hit 0.4, c's hit 0.3
        self.assertAlmostEqual(m["wall_s"], 5.0)
        # median of the best runs: a 2.0, b 0.5, c 0.2
        self.assertAlmostEqual(m["scenario_p50_s"], 0.5)
        # median of the best set-ups: a 0.3, b 0.1, c 0.15, hits 0.2 and 0.25
        self.assertEqual(m["setup_s"], 0.2)
        # median of the two hit processes' best walls, 0.4 and 0.3
        self.assertAlmostEqual(m["hit_p50_s"], 0.35)
        self.assertEqual(m["peak_rss_mb"], 2.0)

    def test_end_to_end_skips_an_iteration_with_a_dead_process(self):
        a = Job("a", (("delays-line", {}),), atlas=True)
        good = [_proc(a, 2.0, [dict(_run(ROWS), run_s=1.5)]),
                _proc(a, 0.3, [dict(_run(ROWS), run_s=0.01)], hit_pass=True)]
        dead = [Proc(a, False, 0.1, {}), good[1]]
        m_good = end_to_end([good])
        self.assertEqual(end_to_end([good, dead]), m_good)

    def _traced(self, *, execute, attributed_self, missing=()):
        layers = ({"self_s": attributed_self,
                   "total_s": {"scenarios.runner.execute": 2.5,
                               "core.memory.measure": 2.0},
                   "calls": {"core.memory.measure": 1}, "rounds": 1000,
                   "missing": list(missing)},
                  {"counters": {"backend.fallback.BudgetExceededError": 2},
                   "phases": {"resolve": 0.1}})
        return [_proc(self.job, 3.0, [dict(_run(ROWS), run_s=execute, hit=False)],
                      layers=layers)]

    def test_layer_accounting_adds_up(self):
        procs = self._traced(execute=2.7, attributed_self={
            "scenarios.runner.execute": 0.5, "core.memory.measure": 2.0})
        m, acct = layer_metrics(procs, untraced_wall_s=2.0)
        self.assertAlmostEqual(m["trace.unattributed_s"], 2.7 - 2.5 - 0.1)
        self.assertAlmostEqual(
            sum(m[k] for k in ("core.memory.measure_s", "scenarios.runner.execute_self_s",
                               "scenarios.runner.resolve_s", "trace.unattributed_s")),
            m["trace.execute_s"])
        self.assertEqual(m["core.memory.rounds_per_s"], 500.0)
        self.assertEqual(m["backend.fallback"], 2)
        self.assertEqual(m["trace.overhead_ratio"], 1.5)
        self.assertEqual(acct["largest_self_time"], ("core.memory.measure_s", 2.0))
        self.assertTrue(acct["within_tolerance"])
        self.assertEqual(accounting_problems(acct), [])

    def test_unattributed_share_outside_tolerance_fails(self):
        # 1.0 of 3.6 s unattributed: 28%, above the 10% ceiling
        procs = self._traced(execute=3.6, attributed_self={
            "scenarios.runner.execute": 0.5, "core.memory.measure": 2.0})
        _, acct = layer_metrics(procs, untraced_wall_s=2.0)
        self.assertFalse(acct["within_tolerance"])
        (why,) = accounting_problems(acct)
        self.assertIn("unattributed share", why)

    def test_missing_layer_target_fails(self):
        procs = self._traced(execute=2.7, missing=["repro.sim.faults.solve_all_delays_faulted"],
                             attributed_self={"scenarios.runner.execute": 0.5,
                                              "core.memory.measure": 2.0})
        _, acct = layer_metrics(procs, untraced_wall_s=2.0)
        self.assertTrue(acct["within_tolerance"])
        (why,) = accounting_problems(acct)
        self.assertIn("repro.sim.faults.solve_all_delays_faulted not found", why)


class TestRunExitCode(unittest.TestCase):
    """``run.py --trace 1`` must fail on an accounting problem alone."""

    def _main(self, problems):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: 1.0 for m in declared["per_layer"]}
        out = io.StringIO()
        with mock.patch.object(run, "measure", return_value=(metrics, problems)), \
                contextlib.redirect_stdout(out):
            code = run.main(["--workload", "memory-replay", "--seed", "1",
                             "--seconds", "1", "--trace", "1"])
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_clean_accounting_passes(self):
        code, result = self._main([])
        self.assertEqual((code, result["correct"]), (0, True))

    def test_accounting_problem_exits_nonzero(self):
        code, result = self._main(["layer target repro.x.y not found"])
        self.assertEqual((code, result["correct"], result["failed"]), (1, False, 0))


class TestIterationCap(unittest.TestCase):
    """A timed run makes the workload's iterations, however fast they are."""

    def test_run_stops_at_the_cap(self):
        session = mock.Mock(workload=mock.Mock(iterations=3))
        session.iteration.return_value = []
        with mock.patch.object(run, "end_to_end", side_effect=len), \
                contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(run.measure(session, 1e9, trace=False), (3, []))


class TestWorkloads(unittest.TestCase):
    def test_seed_selects_a_variant_deterministically(self):
        for workload in WORKLOADS.values():
            self.assertEqual(workload.jobs(3), workload.jobs(3 + VARIANTS))
            self.assertNotEqual(workload.jobs(3), workload.jobs(4))


if __name__ == "__main__":
    unittest.main()
