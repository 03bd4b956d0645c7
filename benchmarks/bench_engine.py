"""E-engine — the two simulation backends and the all-delays batch solver.

Measures, on fixed deterministic instances:

1. *Throughput*: rounds/second and seconds of the reference engine vs
   the compiled table-driven backend on one long finite-state
   rendezvous run, and the seconds of both tiers' gathering loops on a
   k=3 run of the same walker (``gathering_k3``).
2. *Delay sweep*: wall time of a per-delay reference-engine sweep
   (θ = 0..Θ, both delayed-agent choices, certified) of a few start
   pairs vs one :func:`repro.sim.solve_all_delays` pass per pair over
   the product configuration graph — the headline optimisation: the
   batch solver shares every joint configuration's fate across all
   delays.  ``reference_seconds`` sums the per-delay sweeps of the
   reference-checked pairs; ``batch_solver_seconds`` sums the batch
   solver over every pair of :func:`_sweep_pairs`; ``speedup`` compares
   the two on the first reference-checked pair.
3. *Solo replay*: wall time of the ``memory-vs-leaves`` scenario at
   registry size, in process, best of 2 — the interpreted solo replay
   (:func:`repro.agents.program.drive`) the memory experiments run — with
   its rows checked against the golden and its ``drive.*`` counters.
4. *Traced memory*: ``verify-small`` in process (the exhaustive
   Theorem 4.1 pair grid on the traced tier): the solo-trace rounds its
   traces store and the suffix-merge keys its registries hold, both
   exact counts gated for equality by ``check_regression``, and the
   tracemalloc peak in bytes of one run from a cleared trace cache
   (recorded, not gated: it moves between Python versions).

Results go to ``BENCH_engine.json`` at the repo root (via
``_util.record_json``) so successive PRs accumulate a perf trajectory.
Run directly (``python benchmarks/bench_engine.py [--quick]``), via
``make bench-smoke``, or through pytest-benchmark like the other
benchmarks.  The tier-1 suite exercises the quick mode through
``tests/sim/test_bench_smoke.py``.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for import under pytest/importlib

from _util import REPO_ROOT, record_json

from repro.agents import counting_walker, pausing_walker
from repro.sim import (
    run_gathering_compiled,
    run_gathering_reference,
    run_rendezvous,
    run_rendezvous_compiled,
    solve_all_delays,
)
from repro.trees import edge_colored_line


def _throughput(quick: bool) -> dict:
    # Quick budgets keep every timing above check_regression's 20 ms floor.
    tree = edge_colored_line(33 if quick else 65)
    agent = counting_walker(3 if quick else 5)
    u, v = 1, tree.n - 2
    budget = 150_000 if quick else 400_000

    t0 = time.perf_counter()
    ref = run_rendezvous(tree, agent, u, v, max_rounds=budget)
    t1 = time.perf_counter()
    cmp_ = run_rendezvous_compiled(tree, agent, u, v, max_rounds=budget)
    t2 = time.perf_counter()
    assert (ref.met, ref.meeting_round) == (cmp_.met, cmp_.meeting_round)
    rounds = ref.rounds_executed
    ref_rps = rounds / max(t1 - t0, 1e-9)
    cmp_rps = rounds / max(t2 - t1, 1e-9)
    return {
        "instance": f"counting_walker on colored line n={tree.n}, {rounds} rounds",
        "rounds": rounds,
        "reference_seconds": round(t1 - t0, 4),
        "compiled_seconds": round(t2 - t1, 4),
        "reference_rounds_per_sec": round(ref_rps),
        "compiled_rounds_per_sec": round(cmp_rps),
        "speedup": round(cmp_rps / ref_rps, 2),
        "gathering_k3": _gathering_k3(tree, agent, 30_000 if quick else 100_000),
    }


def _gathering_k3(tree, agent, budget: int) -> dict:
    """Both tiers' k-agent loops on three copies of the throughput
    walker (they never gather, so each runs its whole budget)."""
    starts = [1, tree.n // 2, tree.n - 2]
    t0 = time.perf_counter()
    ref = run_gathering_reference(tree, agent, starts, max_rounds=budget)
    t1 = time.perf_counter()
    cmp_ = run_gathering_compiled(tree, agent, starts, max_rounds=budget)
    t2 = time.perf_counter()
    assert ref == cmp_
    return {
        "starts": starts,
        "rounds": ref.rounds_executed,
        "reference_seconds": round(t1 - t0, 4),
        "compiled_seconds": round(t2 - t1, 4),
    }


def _sweep_pairs(n: int) -> list[tuple[int, int]]:
    """The start pairs the batch solver sweeps: every pair with one
    agent on node 0 or 1.  One pair times under check_regression's
    20 ms floor, so the timing covers all of them."""
    return [(a, b) for a in (0, 1) for b in range(a + 1, n)]


def _delay_sweep(quick: bool) -> dict:
    tree = edge_colored_line(21 if quick else 41)
    agent = pausing_walker(2)
    # The pairs checked against per-delay reference sweeps; one pair's
    # sweep times under check_regression's 20 ms floor.
    v = tree.n - 3
    checked = [(1, v), (0, v), (1, v + 1), (0, v + 1)]
    pairs = _sweep_pairs(tree.n)
    max_delay = 127 if quick else 511
    budget = 500_000

    reference = {}
    ref_s = {}
    for pair in checked:
        t0 = time.perf_counter()
        for theta in range(max_delay + 1):
            for side in (2,) if theta == 0 else (1, 2):
                out = run_rendezvous(
                    tree, agent, *pair,
                    delay=theta, delayed=side, max_rounds=budget, certify=True,
                )
                reference[(pair, theta, side)] = (
                    out.met, out.meeting_round, out.certified_never
                )
        ref_s[pair] = time.perf_counter() - t0

    batch_s = 0.0
    pair_s = {}
    match = True
    for pair in pairs:
        t0 = time.perf_counter()
        verdicts = solve_all_delays(tree, agent, *pair, max_delay=max_delay)
        elapsed = time.perf_counter() - t0
        batch_s += elapsed
        if pair in ref_s:
            pair_s[pair] = max(elapsed, 1e-9)
            match = match and all(
                reference[(pair, dv.delay, dv.delayed)]
                == (dv.met, dv.meeting_round, dv.certified_never)
                for dv in verdicts
            )
    first = checked[0]
    return {
        "instance": f"pausing_walker(2) on colored line n={tree.n}, "
                    f"{len(pairs)} start pairs (reference: {checked})",
        "max_delay": max_delay,
        "pairs": len(pairs),
        "per_delay_runs": len(reference),
        "reference_seconds": round(sum(ref_s.values()), 4),
        "batch_solver_seconds": round(batch_s, 4),
        "speedup": round(ref_s[first] / pair_s[first], 1),
        "verdicts_match": match,
    }


def _solo_replay(quick: bool) -> dict:
    """``memory-vs-leaves`` at registry size in both modes: quick mode
    keeps it too, since a smaller instance would time under
    check_regression's floor."""
    from repro.scenarios import Runner
    from repro.scenarios.store import diff_payloads
    from repro.telemetry import Telemetry

    name = "memory-vs-leaves"
    golden = json.loads((REPO_ROOT / "benchmarks/results/golden" / f"{name}.json").read_text())
    runner = Runner()
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        result = runner.run(name)
        times.append(time.perf_counter() - t0)
    telemetry = Telemetry()  # counted on a third, untimed run
    runner.run(name, telemetry=telemetry)
    return {
        "quick": quick,
        "workload": f"{name} (registry size, in process)",
        "rounds": len(times),
        "replay_seconds": round(min(times), 4),
        "rows_match_golden": not diff_payloads(result.to_payload(), golden),
        "drive": {k: v for k, v in sorted(telemetry.counters.items())
                  if k.startswith("drive.")},
    }


def _traced_memory() -> dict:
    """``verify-small``'s traced pair grid: one warm-up run, one run
    under tracemalloc, and one counting run that keeps every tree's
    trace-cache entry alive to count what it stored (so its own
    allocations stay out of the peak).  The same in both modes."""
    import tracemalloc

    from repro.scenarios import Runner, backends
    from repro.sim.traced import GLOBAL_TRACE_CACHE

    name = "verify-small"
    runner = Runner()
    runner.run(name)  # imports and tree enumeration out of the peak
    GLOBAL_TRACE_CACHE.clear()
    tracemalloc.start()
    try:
        runner.run(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    GLOBAL_TRACE_CACHE.clear()
    entries = {}
    run_pairs = backends.run_pairs_traced

    def keep(tree, prototype, pairs, **kwargs):
        rows = run_pairs(tree, prototype, pairs, **kwargs)
        entry = GLOBAL_TRACE_CACHE._by_proto.get(prototype, {}).get(tree)
        if entry is not None:  # None: an empty grid traced nothing
            entries[id(entry)] = entry
        return rows

    backends.run_pairs_traced = keep
    try:
        runner.run(name)
    finally:
        backends.run_pairs_traced = run_pairs
    GLOBAL_TRACE_CACHE.clear()
    return {
        "workload": f"{name} (registry size, in process)",
        "tracemalloc_peak_bytes": peak,
        "counts": {
            "trees": len(entries),
            "traces": sum(len(traces) for traces, _, _ in entries.values()),
            "rounds_stored": sum(
                len(trace.actions)
                for traces, _, _ in entries.values()
                for trace in traces.values()
            ),
            "merge_keys": sum(len(registry) for _, registry, _ in entries.values()),
            # frames, register banks and triples the merge keys share
            "intern_entries": sum(len(intern) for _, _, intern in entries.values()),
        },
    }


def main(quick: bool = False, out_dir: Path | None = None) -> dict:
    # merge into the existing trajectory file: bench_lowering.py records
    # its own "lowering" section into the same JSON
    target = (out_dir or REPO_ROOT) / "BENCH_engine.json"
    payload = json.loads(target.read_text()) if target.exists() else {}
    payload.update(
        {
            "bench": "engine-backends",
            "quick": quick,
            "throughput": _throughput(quick),
            "delay_sweep": _delay_sweep(quick),
            "solo_replay": _solo_replay(quick),
            "traced_memory": _traced_memory(),
        }
    )
    record_json("BENCH_engine", payload, out_dir)
    return payload


def test_engine_backends(benchmark):
    payload = benchmark.pedantic(main, rounds=1, iterations=1)
    assert payload["delay_sweep"]["verdicts_match"]
    assert payload["delay_sweep"]["speedup"] >= 5
    assert payload["solo_replay"]["rows_match_golden"]


if __name__ == "__main__":
    main(quick="--quick" in sys.argv[1:])
