"""E-kernel — the vectorized frontier kernel vs the dict solvers.

Measures the bit-parallel sweep kernel (:mod:`repro.sim.kernel`) on the
two workloads that motivated it:

1. *511-delay sweep* (the engine benchmark's ``delay_sweep``
   instance): the dict product solver vs the kernel, one call per
   start pair over the same pairs, all decided exactly and checked
   against the reference per-delay loop on one pair.  One pair shares
   most of its trajectory work across delays, so the dict solver is
   already strong here — the kernel's win is modest and recorded
   honestly.
2. *success-families grid*: the registry's ``success-families`` trees,
   every feasible start pair swept over θ = 0..8 with a lowered
   register program — the grid workload the kernel exists for.  Dict
   solver decides pair by pair; the kernel decides each tree's whole
   pair grid in one frontier pass.  Verdict parity is asserted
   row-for-row against the dict solver and spot-checked against
   certified reference runs.

A third subsection times the successor-table cache: cold vectorized
build vs memmap reload of the same tables through ``REPRO_KERNEL_CACHE``.

The ``kernel`` section is merged into ``BENCH_engine.json`` next to the
engine and lowering numbers.  Run directly
(``python benchmarks/bench_kernel.py [--quick]``), via
``make bench-smoke``, or through pytest-benchmark; the tier-1 suite
exercises the quick mode through ``tests/sim/test_bench_smoke.py``.
"""

import json
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for import under pytest/importlib

from _util import REPO_ROOT, record_json

QUICK_FAMILIES = ("binary", "random", "subdivided")
GRID_MAX_DELAY = 8


def _sweep(quick: bool) -> dict:
    """Reference vs dict solver vs kernel on the long single-pair sweep."""
    from repro.agents.library import pausing_walker
    from repro.sim import run_rendezvous, solve_all_delays, solve_all_delays_kernel
    from repro.sim import kernel as kernel_mod
    from repro.trees import edge_colored_line

    tree = edge_colored_line(21 if quick else 41)
    agent = pausing_walker(2)
    u, v = 1, tree.n - 3  # the pair checked against the reference
    # every pair with one agent on node 0 or 1 (bench_engine's delay
    # sweep pairs): one pair times under check_regression's 20 ms floor
    pairs = [(a, b) for a in (0, 1) for b in range(a + 1, tree.n)]
    max_delay = 127 if quick else 511
    budget = 500_000
    rounds = 2 if quick else 3

    t0 = time.perf_counter()
    reference = {}
    for theta in range(max_delay + 1):
        for side in (2,) if theta == 0 else (1, 2):
            out = run_rendezvous(
                tree, agent, u, v,
                delay=theta, delayed=side, max_rounds=budget, certify=True,
            )
            reference[(theta, side)] = (out.met, out.meeting_round, out.certified_never)
    ref_s = time.perf_counter() - t0

    kernel_mod.agent_table(agent, tree)  # warm tables on both sides:
    # the dict solver's compiled tables are cached too, and the cold
    # build cost is recorded separately under table_cache
    dict_s = kern_s = float("inf")
    dict_v = kern_v = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        dict_v = [
            solve_all_delays(tree, agent, a, b, max_delay=max_delay)
            for a, b in pairs
        ]
        dict_s = min(dict_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        kern_v = [
            solve_all_delays_kernel(tree, agent, a, b, max_delay=max_delay)
            for a, b in pairs
        ]
        kern_s = min(kern_s, time.perf_counter() - t0)

    match = kern_v == dict_v and all(
        reference[(dv.delay, dv.delayed)]
        == (dv.met, dv.meeting_round, dv.certified_never)
        for dv in kern_v[pairs.index((u, v))]
        if (dv.delay, dv.delayed) in reference
    )
    kern_s = max(kern_s, 1e-9)
    return {
        "instance": f"pausing_walker(2) on colored line n={tree.n}, "
                    f"{len(pairs)} start pairs (reference: ({u}, {v}))",
        "max_delay": max_delay,
        "pairs": len(pairs),
        "timing": f"best of {rounds}, warm tables (reference timed once, one pair)",
        "reference_seconds": round(ref_s, 4),
        "dict_solver_seconds": round(dict_s, 4),
        "kernel_seconds": round(kern_s, 4),
        "speedup_vs_dict": round(dict_s / kern_s, 2),
        "verdicts_match": match,
    }


def _grid(quick: bool):
    """The success-families trees (scenario seeds and relabelings), each
    with its lowered grid agent and all feasible start pairs."""
    from repro.agents.library import counting_program
    from repro.agents.lowering import lowered_for
    from repro.scenarios import get_scenario
    from repro.scenarios.spec import build_tree
    from repro.sim.batch import derive_seed
    from repro.trees.automorphism import perfectly_symmetrizable
    from repro.trees.labelings import random_relabel

    spec = get_scenario("success-families")
    for family, tree_specs in spec.param("families").items():
        if quick and family not in QUICK_FAMILIES:
            continue
        for idx, tree_spec in enumerate(tree_specs):
            seed = derive_seed(spec.seed, family, idx)
            tree = random_relabel(build_tree(tree_spec, seed), random.Random(seed))
            degrees = {tree.degree(x) for x in range(tree.n)}
            agent = lowered_for(counting_program(2), degrees)
            pairs = [
                (u, v)
                for u in range(tree.n)
                for v in range(u + 1, tree.n)
                if not perfectly_symmetrizable(tree, u, v)
            ]
            yield family, tree, agent, pairs


def _success_grid_speedup(quick: bool) -> dict:
    from repro.sim import kernel as kernel_mod
    from repro.sim import run_rendezvous, solve_all_delays
    from repro.sim.kernel import solve_delay_grid_kernel

    grids = list(_grid(quick))
    pairs = sum(len(g[3]) for g in grids)
    rounds = 2 if quick else 3

    # warm caches on both sides: the dict solver reuses its compiled
    # tables across pairs exactly as the executors do, the kernel its
    # successor tables; cold build cost is recorded under table_cache
    for _f, tree, agent, _ps in grids:
        kernel_mod.agent_table(agent, tree)
    dict_s = kern_s = float("inf")
    dict_rows = kern_rows = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        dict_rows = [
            solve_all_delays(tree, agent, u, v, max_delay=GRID_MAX_DELAY)
            for _f, tree, agent, ps in grids
            for u, v in ps
        ]
        dict_s = min(dict_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        kern_rows = [
            pair_rows
            for _f, tree, agent, ps in grids
            for pair_rows in solve_delay_grid_kernel(
                tree, agent, ps, max_delay=GRID_MAX_DELAY
            )
        ]
        kern_s = min(kern_s, time.perf_counter() - t0)

    match = kern_rows == dict_rows

    # Spot-check kernel verdicts against the reference engine: met rows
    # replay exactly to the recorded meeting round; never rows stay
    # unmet for a generous observational budget (certifying the
    # reference on lowered automata would need lasso-scale budgets).
    rng = random.Random(20260808)
    flat = [
        (tree, agent, u, v)
        for _f, tree, agent, ps in grids
        for u, v in ps
    ]
    checks = rng.sample(range(len(flat)), min(12 if quick else 48, len(flat)))
    ref_match = True
    for i in checks:
        tree, agent, u, v = flat[i]
        for dv in kern_rows[i]:
            budget = (dv.meeting_round + 1) if dv.met else 4_000
            out = run_rendezvous(
                tree, agent, u, v,
                delay=dv.delay, delayed=dv.delayed, max_rounds=budget,
            )
            if (out.met, out.meeting_round) != (
                dv.met, dv.meeting_round if dv.met else None
            ):
                ref_match = False

    return {
        "instance": f"success-families grid, lowered counting_program(2), "
                    f"theta 0..{GRID_MAX_DELAY}, all feasible pairs ({pairs} pairs)"
                    + (" [quick subset]" if quick else ""),
        "pairs": pairs,
        "verdict_rows": sum(len(rows) for rows in kern_rows),
        "timing": f"best of {rounds}, warm tables both sides",
        "dict_solver_seconds": round(dict_s, 4),
        "kernel_seconds": round(max(kern_s, 1e-9), 4),
        "speedup": round(dict_s / max(kern_s, 1e-9), 2),
        "verdicts_match": bool(match),
        "reference_spot_checks": sum(len(kern_rows[i]) for i in checks),
        "reference_match": bool(ref_match),
    }


def _table_cache(quick: bool) -> dict:
    """Cold vectorized successor-table build vs memmap reload."""
    import os

    from repro.sim import kernel as kernel_mod
    from repro.sim.kernel import agent_table

    work = [(tree, agent) for _f, tree, agent, _p in _grid(quick)]
    saved = os.environ.get(kernel_mod._ENV_CACHE)
    with tempfile.TemporaryDirectory(prefix="repro-kernel-bench-") as tmp:
        os.environ[kernel_mod._ENV_CACHE] = tmp
        try:
            kernel_mod._TABLE_CACHE.clear()
            t0 = time.perf_counter()
            entries = sum(agent_table(a, t).size for t, a in work)
            build_s = time.perf_counter() - t0

            kernel_mod._TABLE_CACHE.clear()
            t0 = time.perf_counter()
            for t, a in work:
                agent_table(a, t)
            load_s = time.perf_counter() - t0
        finally:
            kernel_mod._TABLE_CACHE.clear()
            if saved is None:
                os.environ.pop(kernel_mod._ENV_CACHE, None)
            else:
                os.environ[kernel_mod._ENV_CACHE] = saved
    return {
        "tables": len(work),
        "entries": int(entries),
        "build_seconds": round(build_s, 4),
        "load_seconds": round(max(load_s, 1e-9), 4),
    }


def _telemetry_overhead(quick: bool) -> dict:
    """The no-op overhead guarantee, measured: the same registry sweep
    with the default NullTelemetry vs an active Telemetry context.

    The disabled path costs one contextvar read plus one attribute check
    per instrumented seam; this subsection records both best-of timings
    and their ratio so a future PR that makes observation expensive (or
    makes *non*-observation expensive) trips the regression gate.
    """
    from repro.scenarios import Runner
    from repro.telemetry import Telemetry

    rounds = 3 if quick else 10
    runner = Runner(backend="auto")

    def best(active: bool) -> float:
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            runner.run(
                "delays-line",
                telemetry=Telemetry() if active else None,
            )
            times.append(time.perf_counter() - t0)
        return min(times)

    disabled = best(False)
    enabled = best(True)
    return {
        "quick": quick,
        "workload": "delays-line (auto backend)",
        "rounds": rounds,
        "disabled_seconds": round(disabled, 4),
        "enabled_seconds": round(enabled, 4),
        "overhead_ratio": round(enabled / max(disabled, 1e-9), 3),
    }


def main(quick: bool = False, out_dir: Path | None = None) -> dict:
    section = {
        "quick": quick,
        "sweep_511": _sweep(quick),
        "success_families_grid": _success_grid_speedup(quick),
        "table_cache": _table_cache(quick),
    }
    # merge into the engine benchmark's trajectory file
    target = (out_dir or REPO_ROOT) / "BENCH_engine.json"
    payload = json.loads(target.read_text()) if target.exists() else {
        "bench": "engine-backends"
    }
    payload["kernel"] = section
    # top-level section (check_regression --require only sees top-level
    # keys): the observability layer's disabled-path cost, gated like
    # any other timing
    payload["telemetry_overhead"] = _telemetry_overhead(quick)
    record_json("BENCH_engine", payload, out_dir)
    return section


def test_kernel_speedup(benchmark):
    section = benchmark.pedantic(main, rounds=1, iterations=1)
    grid = section["success_families_grid"]
    assert grid["verdicts_match"], "kernel grid diverged from the dict solver"
    assert grid["reference_match"], "kernel grid diverged from the reference"
    assert grid["speedup"] >= 5, f"expected >= 5x, got {grid['speedup']}x"
    assert section["sweep_511"]["verdicts_match"]


if __name__ == "__main__":
    main(quick="--quick" in sys.argv[1:])
