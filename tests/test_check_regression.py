"""The bench regression gate must trip on slowdowns and pass the baseline.

Runs ``benchmarks/check_regression.py`` the way the Makefile / CI job
does (as a subprocess), against the *committed* ``BENCH_engine.json``:
self-comparison passes, and a baseline whose timings are scaled down 3x
(equivalently: a current file 3x slower) fails with exit code 1.
"""

import json
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "benchmarks" / "check_regression.py"
BENCH = REPO_ROOT / "BENCH_engine.json"


def run_gate(baseline: pathlib.Path, current: pathlib.Path, *extra: str):
    return subprocess.run(
        [sys.executable, str(SCRIPT),
         "--baseline", str(baseline), "--current", str(current), *extra],
        capture_output=True, text=True,
    )


def scaled_copy(tmp_path: pathlib.Path, factor: float) -> pathlib.Path:
    def scale(node):
        if isinstance(node, dict):
            return {
                k: (
                    v * factor
                    if str(k).endswith("_seconds")
                    and isinstance(v, (int, float))
                    and not isinstance(v, bool)
                    else scale(v)
                )
                for k, v in node.items()
            }
        if isinstance(node, list):
            return [scale(v) for v in node]
        return node

    path = tmp_path / f"bench-x{factor}.json"
    path.write_text(json.dumps(scale(json.loads(BENCH.read_text()))))
    return path


class TestRegressionGate:
    def test_committed_baseline_passes_against_itself(self):
        proc = run_gate(BENCH, BENCH)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "within tolerance" in proc.stdout

    def test_injected_3x_slowdown_fails(self, tmp_path):
        baseline = scaled_copy(tmp_path, 1 / 3)
        proc = run_gate(baseline, BENCH)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "regressed" in proc.stdout
        # the headline best-of timings are among the tripped paths
        assert "_seconds" in proc.stdout

    def test_speedup_never_trips(self, tmp_path):
        baseline = scaled_copy(tmp_path, 3.0)
        proc = run_gate(baseline, BENCH)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_micro_timings_ride_the_floor(self, tmp_path):
        # a 3x blip on a sub-floor micro-timing alone must not fail
        payload = {"bench": "x", "solver": {"best_seconds": 0.002}}
        base = tmp_path / "base.json"
        base.write_text(json.dumps(payload))
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps({"bench": "x", "solver": {"best_seconds": 0.006}}))
        proc = run_gate(base, cur)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_sub_floor_timings_name_their_absolute_gate(self, tmp_path):
        # a timing under the floor gates at tolerance * floor, not at its
        # own scale, and the report says so; measurable ones say nothing
        base = tmp_path / "base.json"
        base.write_text(json.dumps(
            {"micro": {"x_seconds": 0.002}, "macro": {"y_seconds": 1.0}}
        ))
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(
            {"micro": {"x_seconds": 0.006}, "macro": {"y_seconds": 1.0}}
        ))
        proc = run_gate(base, cur)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        micro = [line for line in lines if "micro.x_seconds" in line]
        macro = [line for line in lines if "macro.y_seconds" in line]
        assert micro and "under floor, gated at 0.0500 s" in micro[0]
        assert macro and "under floor" not in macro[0]

        cur.write_text(json.dumps(
            {"micro": {"x_seconds": 0.06}, "macro": {"y_seconds": 1.0}}
        ))
        proc = run_gate(base, cur)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "under floor, gated at 0.0500 s" in proc.stdout

    def test_structural_drift_is_reported_not_fatal(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"a": {"x_seconds": 1.0}}))
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps({"b": {"x_seconds": 1.0}}))
        proc = run_gate(base, cur)
        assert proc.returncode == 0
        assert "only in baseline" in proc.stdout
        assert "only in current" in proc.stdout

    def test_unreadable_input_is_a_usage_error(self, tmp_path):
        proc = run_gate(tmp_path / "ghost.json", BENCH)
        assert proc.returncode == 2

    @pytest.mark.parametrize("tolerance,expect", [(10.0, 0), (1.01, 1)])
    def test_tolerance_knob(self, tmp_path, tolerance, expect):
        baseline = scaled_copy(tmp_path, 0.5)  # current looks 2x slower
        proc = run_gate(baseline, BENCH, "--tolerance", str(tolerance))
        assert proc.returncode == expect, proc.stdout + proc.stderr

    def test_required_sections_present_in_committed_bench(self):
        # the Makefile's section registration, against the real file
        proc = run_gate(BENCH, BENCH,
                        "--require", "throughput", "--require", "delay_sweep",
                        "--require", "lowering", "--require", "kernel")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_missing_required_section_fails(self, tmp_path):
        payload = json.loads(BENCH.read_text())
        payload.pop("kernel")
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(payload))
        proc = run_gate(BENCH, cur, "--require", "kernel")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "kernel" in proc.stdout

    def test_required_section_emptied_fails(self, tmp_path):
        payload = json.loads(BENCH.read_text())
        payload["kernel"] = {}
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(payload))
        proc = run_gate(BENCH, cur, "--require", "kernel")
        assert proc.returncode == 1, proc.stdout + proc.stderr


class TestExactCounterGate:
    def counters_copy(self, tmp_path, change):
        payload = json.loads(BENCH.read_text())
        change(payload["solo_replay"]["drive"])
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(payload))
        return cur

    def test_committed_counters_are_gated(self):
        proc = run_gate(BENCH, BENCH)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "= solo_replay.drive.drive.walk.jump:" in proc.stdout
        assert "exact counters unchanged" in proc.stdout

    @pytest.mark.parametrize("delta", [1, -1])
    def test_any_change_fails_and_names_the_counter(self, tmp_path, delta):
        def bump(drive):
            drive["drive.block.jump"] += delta

        proc = run_gate(BENCH, self.counters_copy(tmp_path, bump))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "1 exact counter(s) changed" in proc.stdout
        assert "! solo_replay.drive.drive.block.jump:" in proc.stdout

    def test_a_counter_gone_from_current_counts_zero(self, tmp_path):
        proc = run_gate(BENCH, self.counters_copy(
            tmp_path, lambda drive: drive.pop("drive.block.build")
        ))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "! solo_replay.drive.drive.block.build:" in proc.stdout

    def test_a_new_counter_in_current_fails(self, tmp_path):
        proc = run_gate(BENCH, self.counters_copy(
            tmp_path, lambda drive: drive.update({"drive.block.expand": 3})
        ))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "! solo_replay.drive.drive.block.expand: 0 -> 3" in proc.stdout

    def test_traced_memory_counts_are_gated(self, tmp_path):
        payload = json.loads(BENCH.read_text())
        payload["traced_memory"]["counts"]["rounds_stored"] += 1
        payload["traced_memory"]["tracemalloc_peak_bytes"] *= 2  # not gated
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(payload))
        proc = run_gate(BENCH, cur)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "1 exact counter(s) changed" in proc.stdout
        assert "! traced_memory.counts.rounds_stored:" in proc.stdout

    def test_baseline_without_counters_is_skipped(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"a": {"x_seconds": 1.0}}))
        proc = run_gate(base, BENCH)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "solo_replay.drive: not in baseline (skipped)" in proc.stdout
