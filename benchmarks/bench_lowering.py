"""E-lowering — register programs as compiled-backend citizens.

Measures the program-lowering subsystem (PR 4) on the workloads that
motivated it:

1. *success-families grid*: every feasible start pair of the registry's
   ``success-families`` tree families, decided by the reference engine
   vs the lowered traced backend (:mod:`repro.sim.traced` — shared solo
   traces, mirror traces, suffix links).  Verdict parity is asserted
   pair by pair; the headline number is the wall-clock speedup.
2. *lowered verify-small grid*: ``verify-small`` run end to end on
   ``--backend compiled`` through the shared scenario harness, persisted
   to ``benchmarks/results/verify-small.json``; the checked-in golden
   under ``benchmarks/results/golden/`` pins its rows (and, because the
   golden test re-runs the scenario on the default backend, pins
   cross-backend row parity in CI).

The lowering section is recorded into ``BENCH_engine.json`` next to the
PR 1 engine numbers so the perf trajectory stays in one file.  Run
directly (``python benchmarks/bench_lowering.py [--quick]``), via
``make bench-smoke``, or through pytest-benchmark; the tier-1 suite
exercises the quick mode through ``tests/sim/test_bench_smoke.py``.
"""

import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for import under pytest/importlib

from _util import REPO_ROOT, record_json, run_scenario

QUICK_FAMILIES = ("binary", "random", "subdivided")


def _grid():
    """The success-families rendezvous grid: the scenario's exact trees
    (same derived seeds and relabelings), all feasible start pairs."""
    from repro.core.rendezvous import estimate_round_budget
    from repro.scenarios import get_scenario
    from repro.scenarios.spec import build_tree
    from repro.sim.batch import derive_seed
    from repro.trees.automorphism import perfectly_symmetrizable
    from repro.trees.labelings import random_relabel

    spec = get_scenario("success-families")
    for family, tree_specs in spec.param("families").items():
        for idx, tree_spec in enumerate(tree_specs):
            seed = derive_seed(spec.seed, family, idx)
            tree = random_relabel(build_tree(tree_spec, seed), random.Random(seed))
            pairs = [
                (u, v)
                for u in range(tree.n)
                for v in range(u + 1, tree.n)
                if not perfectly_symmetrizable(tree, u, v)
            ]
            yield family, tree_spec, tree, estimate_round_budget(tree, 10), pairs


def _success_grid_speedup(quick: bool) -> dict:
    from repro.core import rendezvous_agent
    from repro.sim import run_rendezvous
    from repro.sim.traced import run_rendezvous_traced

    grids = [
        g for g in _grid() if not quick or g[0] in QUICK_FAMILIES
    ]
    pairs = sum(len(g[4]) for g in grids)
    rounds = 2 if quick else 3

    # best-of-N on both sides irons out scheduler noise; every lowered
    # round uses a fresh prototype, i.e. a cold trace cache — the
    # recorded speedup never rides a warm cache.
    lowered_s = reference_s = float("inf")
    lowered = reference = None
    for _ in range(rounds):
        proto = rendezvous_agent(max_outer=10)
        t0 = time.perf_counter()
        lowered = [
            run_rendezvous_traced(tree, proto, u, v, max_rounds=budget)
            for _f, _s, tree, budget, ps in grids
            for u, v in ps
        ]
        lowered_s = min(lowered_s, time.perf_counter() - t0)

        proto_ref = rendezvous_agent(max_outer=10)
        t0 = time.perf_counter()
        reference = [
            run_rendezvous(tree, proto_ref, u, v, max_rounds=budget)
            for _f, _s, tree, budget, ps in grids
            for u, v in ps
        ]
        reference_s = min(reference_s, time.perf_counter() - t0)

    match = all(
        (a.met, a.meeting_round, a.meeting_node, a.crossings)
        == (b.met, b.meeting_round, b.meeting_node, b.crossings)
        for a, b in zip(reference, lowered)
    )
    return {
        "instance": f"success-families grid, all feasible pairs ({pairs} runs)"
                    + (" [quick subset]" if quick else ""),
        "pairs": pairs,
        "met": sum(o.met for o in reference),
        "timing": f"best of {rounds}",
        "reference_seconds": round(reference_s, 4),
        "lowered_seconds": round(max(lowered_s, 1e-9), 4),
        "speedup": round(reference_s / max(lowered_s, 1e-9), 2),
        "verdicts_match": match,
    }


VERIFY_ROUNDS = 5


def _lowered_verify(quick: bool, out_dir: Path | None):
    """Best of :data:`VERIFY_ROUNDS` runs, each from empty trace and
    lowering memos so every run does the same work; the last run's
    result is persisted."""
    from repro.agents.lowering import _LOWERING_CACHE
    from repro.scenarios import Runner
    from repro.sim.traced import GLOBAL_TRACE_CACHE

    params = {"max_n": 5} if quick else None
    runner = Runner(backend="compiled")
    best = float("inf")
    for rnd in range(VERIFY_ROUNDS):
        GLOBAL_TRACE_CACHE.clear()
        _LOWERING_CACHE.clear()
        if rnd < VERIFY_ROUNDS - 1:
            result = runner.run("verify-small", params=params)
        else:
            result = run_scenario(
                "verify-small", out_dir=out_dir, backend="compiled",
                params=params,
            )
        best = min(best, result.elapsed_seconds)
    assert result.ok, "lowered verify-small failed its own acceptance check"
    return result, best


def main(quick: bool = False, out_dir: Path | None = None) -> dict:
    verify, verify_seconds = _lowered_verify(quick, out_dir)
    section = {
        "quick": quick,
        "success_families_grid": _success_grid_speedup(quick),
        "verify_small": {
            "backend": verify.backend,
            "params": dict(verify.spec.params),
            "rows": verify.rows,
            "timing": f"best of {VERIFY_ROUNDS}",
            "elapsed_seconds": round(verify_seconds, 4),
        },
    }
    # merge into the engine benchmark's trajectory file
    target = (out_dir or REPO_ROOT) / "BENCH_engine.json"
    payload = json.loads(target.read_text()) if target.exists() else {
        "bench": "engine-backends"
    }
    payload["lowering"] = section
    record_json("BENCH_engine", payload, out_dir)
    return section


def test_lowering_speedup(benchmark):
    section = benchmark.pedantic(main, rounds=1, iterations=1)
    grid = section["success_families_grid"]
    assert grid["verdicts_match"], "lowered grid diverged from the reference"
    assert grid["speedup"] >= 5, f"expected >= 5x, got {grid['speedup']}x"


if __name__ == "__main__":
    main(quick="--quick" in sys.argv[1:])
