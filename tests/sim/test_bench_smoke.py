"""Tier-1 smoke run of the engine benchmark (satellite of the compiled
backend PR): keeps BENCH_engine.json fresh and guards the headline
speedups against regression without leaving the tier-1 time budget."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_bench_engine():
    path = REPO_ROOT / "benchmarks" / "bench_engine.py"
    spec = importlib.util.spec_from_file_location("bench_engine", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_engine"] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.bench_smoke
def test_bench_engine_quick_emits_json(tmp_path):
    # Emit into tmp_path: the versioned BENCH_engine.json at the repo root
    # is refreshed only by `make bench-smoke` / `make bench-engine`, so a
    # plain pytest run never dirties the working tree.
    payload = load_bench_engine().main(quick=True, out_dir=tmp_path)

    path = tmp_path / "BENCH_engine.json"
    assert path.exists()
    on_disk = json.loads(path.read_text())
    assert on_disk["bench"] == "engine-backends"
    assert on_disk["throughput"]["compiled_rounds_per_sec"] > 0
    assert on_disk["throughput"]["reference_rounds_per_sec"] > 0

    # Correctness gates hard; wall-clock ratios gate loosely (both sides
    # are timed back-to-back in-process, so the ratio is stable, but CI
    # boxes are noisy — the honest bar lives in the recorded JSON).
    sweep = payload["delay_sweep"]
    assert sweep["verdicts_match"], "batch solver diverged from the reference"
    assert sweep["speedup"] >= 5
    assert payload["throughput"]["speedup"] > 1.0
    replay = payload["solo_replay"]
    assert replay["rows_match_golden"], "memory-vs-leaves rows drifted from the golden"
    assert replay["drive"]["drive.block.jump"] > 0


def load_bench_gathering():
    path = REPO_ROOT / "benchmarks" / "bench_gathering.py"
    spec = importlib.util.spec_from_file_location("bench_gathering", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_gathering"] = module
    spec.loader.exec_module(module)
    return module


def load_bench_lowering():
    path = REPO_ROOT / "benchmarks" / "bench_lowering.py"
    spec = importlib.util.spec_from_file_location("bench_lowering", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_lowering"] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.bench_smoke
def test_bench_lowering_quick_records_speedup(tmp_path):
    # Quick mode runs the strong-sharing subset of the success-families
    # grid plus a small lowered verify-small, merging a "lowering"
    # section into BENCH_engine.json (in tmp_path — the versioned file
    # is refreshed only by `make bench-smoke`).
    section = load_bench_lowering().main(quick=True, out_dir=tmp_path)

    on_disk = json.loads((tmp_path / "BENCH_engine.json").read_text())
    assert on_disk["lowering"]["success_families_grid"]["pairs"] > 0

    grid = section["success_families_grid"]
    # Correctness gates hard; the wall-clock ratio gates loosely (CI
    # boxes are noisy — the honest >= 5x bar lives in the recorded JSON
    # from the full `benchmarks/bench_lowering.py` run).
    assert grid["verdicts_match"], "lowered grid diverged from the reference"
    assert grid["speedup"] >= 3
    # the lowered verify-small grid ran end to end and persisted
    verify = section["verify_small"]
    assert verify["backend"] == "compiled"
    assert all(row["failures"] == 0 for row in verify["rows"])
    assert (tmp_path / "verify-small.json").exists()


def load_bench_kernel():
    path = REPO_ROOT / "benchmarks" / "bench_kernel.py"
    spec = importlib.util.spec_from_file_location("bench_kernel", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_kernel"] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.bench_smoke
def test_bench_kernel_quick_records_speedup(tmp_path):
    # Quick mode sweeps the QUICK_FAMILIES subset of the success
    # families grid through the frontier kernel and merges a "kernel"
    # section into BENCH_engine.json (in tmp_path — the versioned file
    # is refreshed only by `make bench-smoke`).
    section = load_bench_kernel().main(quick=True, out_dir=tmp_path)

    on_disk = json.loads((tmp_path / "BENCH_engine.json").read_text())
    assert on_disk["kernel"]["success_families_grid"]["pairs"] > 0

    grid = section["success_families_grid"]
    # Correctness gates hard; the wall-clock ratio gates loosely (CI
    # boxes are noisy — the honest >= 5x bar lives in the recorded JSON
    # from the full `benchmarks/bench_kernel.py` run).
    assert grid["verdicts_match"], "kernel grid diverged from the dict solver"
    assert grid["reference_match"], "kernel grid diverged from the reference"
    assert grid["speedup"] >= 3, (
        f"kernel grid speedup {grid['speedup']}x < 3x: kernel "
        f"{grid['kernel_seconds']} s, dict solver {grid['dict_solver_seconds']} s"
    )
    sweep = section["sweep_511"]
    assert sweep["verdicts_match"], "kernel sweep diverged"
    cache = section["table_cache"]
    assert cache["tables"] > 0 and cache["entries"] > 0


@pytest.mark.bench_smoke
def test_bench_gathering_quick_emits_result(tmp_path):
    # Quick mode runs the first gathering grid and persists its
    # schema-validated result into tmp_path (never the working tree).
    results = load_bench_gathering().main(quick=True, out_dir=tmp_path)

    (name,) = results
    path = tmp_path / f"{name}.json"
    assert path.exists()
    on_disk = json.loads(path.read_text())
    assert on_disk["kind"] == "gathering_sweep"
    assert on_disk["summary"]["ok"] is True
    assert on_disk["summary"]["undecided"] == 0
    # the registry defaults exercise both verdict classes
    verdicts = {row["verdict"] for row in on_disk["rows"]}
    assert verdicts == {"met", "certified-never"}
