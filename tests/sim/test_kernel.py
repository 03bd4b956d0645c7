"""Unit tests for the vectorized sweep kernel (:mod:`repro.sim.kernel`).

Covers the pieces the parity property-suite doesn't: the successor
table against the compiled stepper step-for-step, the on-disk memmap
cache (roundtrip, corrupt/truncated quarantine-and-rebuild — the
``ResultStore`` contract), the ``REPRO_KERNEL=0`` kill switch, the
batched pairs surfaces on every backend, and the dict solver's
solo-prefix early break.
"""

import random

import numpy as np
import pytest

from repro.agents import Automaton
from repro.agents.library import counting_program, counting_walker, pausing_walker
from repro.agents.observations import STAY
from repro.core import rendezvous_agent
from repro.errors import BudgetExceededError
from repro.scenarios.backends import (
    AutoBackend,
    CompiledBackend,
    ReferenceBackend,
)
from repro.sim import kernel as kernel_mod
from repro.sim.compiled import _make_stepper, compile_agent, solve_all_delays
from repro.sim.delays import sweep_choices
from repro.sim.kernel import (
    KernelUnsupported,
    agent_table,
    kernel_available,
    kernel_enabled,
    run_pairs_kernel,
    solve_all_delays_auto,
    solve_all_delays_kernel,
    solve_gathering_auto,
    solve_gathering_kernel,
    table_cache_key,
)
from repro.sim.traced import run_pairs_traced, run_rendezvous_traced
from repro.telemetry import Telemetry
from repro.telemetry import use as use_telemetry
from repro.trees import edge_colored_line, line
from repro.trees.builders import complete_binary_tree, random_tree, star


# ----------------------------------------------------------------------
# Successor tables
# ----------------------------------------------------------------------


def _generic_automaton(tree, num_states=3, seed=17):
    """Deterministic pseudo-random table automaton valid on ``tree``."""
    rng = random.Random(seed)
    dmax = tree.max_degree()
    table = {
        (s, ip, d): rng.randrange(num_states)
        for s in range(num_states)
        for ip in range(-1, dmax)
        for d in range(1, dmax + 1)
    }
    output = [rng.randrange(-1, dmax) for _ in range(num_states)]
    return Automaton(num_states, table, output)


_TABLE_CASES = [
    (lambda: line(2), lambda _t: pausing_walker(2)),
    (lambda: edge_colored_line(9), lambda _t: pausing_walker(2)),
    (lambda: edge_colored_line(9), lambda _t: counting_walker(3)),
    (lambda: star(5), _generic_automaton),
    (lambda: complete_binary_tree(3), _generic_automaton),
    (lambda: random_tree(11, random.Random(3)), _generic_automaton),
]


@pytest.mark.parametrize("tree_factory, agent_factory", _TABLE_CASES)
def test_table_matches_compiled_stepper(tree_factory, agent_factory):
    """succ[] agrees with the scalar stepper on random walks from every
    start node."""
    tree = tree_factory()
    agent = agent_factory(tree)
    table = agent_table(agent, tree)
    compiled = compile_agent(agent, tree)
    step_one = _make_stepper(compiled, tree)
    n, width = table.n, table.width
    stride = width - 1
    for start in range(tree.n):
        st = compiled.initial_state
        # start round done by hand, as the solvers do
        cid = int(table.start_ids[start])
        a = compiled.start_action[tree.degree(start)]
        if a == STAY:
            pos, ip = start, 0
        else:
            _stride, _deg, move_to, move_in = tree.flat_move_tables()
            base = start * stride + a
            pos, ip = move_to[base], move_in[base] + 1
        assert cid == (st * n + pos) * width + ip
        for _ in range(40):
            pos, st, ip = step_one(pos, st, ip)
            cid = int(table.succ[cid])
            assert cid == (st * n + pos) * width + ip


def test_oversized_table_raises_unsupported(monkeypatch):
    monkeypatch.setattr(kernel_mod, "_MAX_TABLE_ENTRIES", 10)
    with pytest.raises(KernelUnsupported):
        agent_table(pausing_walker(2), edge_colored_line(9))


@pytest.fixture
def no_lane_gate(monkeypatch):
    """Send every fault-free grid to the kernel, however small, so the
    small test grids exercise the kernel path they are named for."""
    monkeypatch.setattr(kernel_mod, "_MIN_KERNEL_LANES", 0)


def _dispatch_counters(fn):
    """Run ``fn`` under a fresh telemetry context; its kernel dispatch
    and fallback counters."""
    telem = Telemetry()
    with use_telemetry(telem):
        fn()
    return {
        k: v for k, v in telem.counters.items()
        if k.startswith(("kernel.dispatch.", "kernel.fallback."))
    }


def test_auto_falls_back_on_oversized_table(monkeypatch, no_lane_gate):
    tree = edge_colored_line(9)
    agent = pausing_walker(2)
    expected = solve_all_delays(tree, agent, 0, 5, max_delay=4)
    monkeypatch.setattr(kernel_mod, "_MAX_TABLE_ENTRIES", 10)
    got = []
    counters = _dispatch_counters(lambda: got.extend(
        solve_all_delays_auto(tree, agent, 0, 5, max_delay=4)
    ))
    assert got == expected
    assert counters["kernel.fallback.KernelUnsupported"] == 1
    assert counters["kernel.dispatch.delays.dict"] == 1


def test_kill_switch(monkeypatch, no_lane_gate):
    tree = edge_colored_line(7)
    agent = pausing_walker(1)
    expected = solve_all_delays(tree, agent, 0, 4, max_delay=3)
    # without the switch this very call rides the kernel ...
    counters = _dispatch_counters(
        lambda: solve_all_delays_auto(tree, agent, 0, 4, max_delay=3)
    )
    assert counters == {"kernel.dispatch.delays.kernel": 1}
    # ... and with it the kernel refuses and auto never tries it
    monkeypatch.setenv("REPRO_KERNEL", "0")
    assert not kernel_available()
    assert not kernel_enabled()
    with pytest.raises(KernelUnsupported):
        solve_all_delays_kernel(tree, agent, 0, 4, max_delay=3)
    got = []
    counters = _dispatch_counters(lambda: got.extend(
        solve_all_delays_auto(tree, agent, 0, 4, max_delay=3)
    ))
    assert got == expected  # the auto wrapper still answers, via dict
    assert counters == {"kernel.dispatch.delays.dict": 1}


def test_grids_below_the_lane_gate_skip_the_kernel():
    """A fault-free grid under _MIN_KERNEL_LANES goes straight to the
    dict solver (no kernel attempt, no fallback) with the kernel's
    verdicts; at the gate it rides the kernel."""
    tree = edge_colored_line(9)
    agent = counting_walker(2)
    max_delay = 16  # 33 choices
    assert len(sweep_choices(max_delay, (1, 2))) < kernel_mod._MIN_KERNEL_LANES
    got = []
    counters = _dispatch_counters(lambda: got.extend(
        solve_all_delays_auto(tree, agent, 0, 5, max_delay=max_delay)
    ))
    assert counters == {"kernel.dispatch.delays.dict": 1}
    assert got == solve_all_delays_kernel(tree, agent, 0, 5, max_delay=max_delay)

    starts = (0, 3, 8)
    vectors = [(0, 0, 0), (0, 1, 2), (2, 0, 1)]
    got = []
    counters = _dispatch_counters(lambda: got.extend(
        solve_gathering_auto(tree, agent, starts, vectors)
    ))
    assert counters == {"kernel.dispatch.gathering.dict": 1}
    assert got == solve_gathering_kernel(tree, agent, starts, vectors)

    lanes = kernel_mod._MIN_KERNEL_LANES
    max_delay = lanes // 2  # 2 * (lanes // 2) + 1 > lanes choices
    counters = _dispatch_counters(
        lambda: solve_all_delays_auto(tree, agent, 0, 5, max_delay=max_delay)
    )
    assert counters == {"kernel.dispatch.delays.kernel": 1}


# ----------------------------------------------------------------------
# On-disk cache hygiene (the ResultStore contract)
# ----------------------------------------------------------------------


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    kernel_mod._TABLE_CACHE.clear()
    yield tmp_path
    kernel_mod._TABLE_CACHE.clear()


def test_cache_roundtrip_serves_memmap(cache_dir):
    tree = edge_colored_line(9)
    agent = pausing_walker(2)
    built = agent_table(agent, tree)
    path = cache_dir / f"{table_cache_key(agent, tree)}.npy"
    assert path.exists()
    kernel_mod._TABLE_CACHE.clear()
    reloaded = agent_table(agent, tree)
    assert isinstance(reloaded.succ, np.memmap)
    assert np.array_equal(built.succ, reloaded.succ)
    assert np.array_equal(built.start_ids, reloaded.start_ids)


def test_corrupt_cache_file_quarantined_and_rebuilt(cache_dir):
    tree = edge_colored_line(9)
    agent = pausing_walker(2)
    built = agent_table(agent, tree)
    path = cache_dir / f"{table_cache_key(agent, tree)}.npy"
    path.write_bytes(b"this is not a numpy file")
    kernel_mod._TABLE_CACHE.clear()
    rebuilt = agent_table(agent, tree)  # never crashes the sweep
    assert np.array_equal(built.succ, rebuilt.succ)
    quarantined = path.with_name(path.name + ".corrupt")
    assert quarantined.exists()
    assert path.exists()  # rebuilt table re-persisted


def test_truncated_cache_file_quarantined_and_rebuilt(cache_dir):
    tree = edge_colored_line(9)
    agent = counting_walker(2)
    built = agent_table(agent, tree)
    path = cache_dir / f"{table_cache_key(agent, tree)}.npy"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    kernel_mod._TABLE_CACHE.clear()
    rebuilt = agent_table(agent, tree)
    assert np.array_equal(built.succ, rebuilt.succ)
    assert path.with_name(path.name + ".corrupt").exists()


def test_wrong_shape_cache_file_quarantined(cache_dir):
    tree = edge_colored_line(9)
    agent = pausing_walker(3)
    built = agent_table(agent, tree)
    path = cache_dir / f"{table_cache_key(agent, tree)}.npy"
    np.save(path, np.zeros(7, dtype=np.int64))  # wrong size AND dtype
    kernel_mod._TABLE_CACHE.clear()
    rebuilt = agent_table(agent, tree)
    assert np.array_equal(built.succ, rebuilt.succ)
    assert path.with_name(path.name + ".corrupt").exists()


def test_sweep_through_corrupt_cache_still_answers(cache_dir):
    tree = edge_colored_line(9)
    agent = pausing_walker(2)
    expected = solve_all_delays(tree, agent, 1, 6, max_delay=5)
    path = cache_dir / f"{table_cache_key(agent, tree)}.npy"
    path.write_bytes(b"\x00" * 16)
    assert solve_all_delays_kernel(tree, agent, 1, 6, max_delay=5) == expected


# ----------------------------------------------------------------------
# Batched pairs surfaces
# ----------------------------------------------------------------------


def _pairs_for(n, seed, count=10):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def test_run_pairs_kernel_budget_semantics():
    tree = edge_colored_line(11)
    agent = counting_walker(2)
    pairs = _pairs_for(tree.n, 4)
    for max_rounds in (0, 1, 3, 50_000):
        verdicts = run_pairs_kernel(tree, agent, pairs, max_rounds=max_rounds)
        backend = CompiledBackend()
        for (u, v), got in zip(pairs, verdicts):
            ref = backend.run(tree, agent, u, v, delay=0, max_rounds=max_rounds)
            assert (ref.met, ref.meeting_round) == (got.met, got.meeting_round)
            if got.certified_never:
                assert not ref.met


@pytest.mark.parametrize("backend_cls", [ReferenceBackend, CompiledBackend, AutoBackend])
@pytest.mark.parametrize("proto_factory, kind", [
    (lambda: counting_walker(2), "native"),
    (lambda: rendezvous_agent(max_outer=4), "lowerable"),
])
def test_backend_run_pairs_parity(backend_cls, proto_factory, kind):
    """Every backend's run_pairs rows equal its own per-run loop."""
    tree = edge_colored_line(9)
    backend = backend_cls()
    proto = proto_factory()
    pairs = _pairs_for(tree.n, 11, count=8)
    budget = 5_000
    got = backend.run_pairs(tree, proto, pairs, max_rounds=budget)
    for (u, v), verdict in zip(pairs, got):
        ref = backend.run(tree, proto, u, v, delay=0, max_rounds=budget)
        assert (ref.met, ref.meeting_round) == (verdict.met, verdict.meeting_round)


def test_run_pairs_traced_matches_traced_runs():
    """Each run_pairs_traced row is the certified traced run of its pair,
    field for field: symmetric pairs take the same Fact 1.1 exit."""
    tree = edge_colored_line(10)
    pairs = _pairs_for(tree.n, 7, count=12) + [(0, 9), (1, 8)]
    for proto in (rendezvous_agent(max_outer=5), counting_program(2)):
        for budget in (2, 200, 100_000):
            got = run_pairs_traced(tree, proto, pairs, max_rounds=budget)
            for (u, v), verdict in zip(pairs, got):
                ref = run_rendezvous_traced(
                    tree, proto, u, v, max_rounds=budget, certify=True
                )
                assert (ref.met, ref.meeting_round, ref.certified_never) == (
                    verdict.met, verdict.meeting_round, verdict.certified_never
                ), (proto, budget, u, v)


def test_run_pairs_kernel_budget_guard_unreachable():
    """run_pairs lanes are budget-bounded, so no BudgetExceededError."""
    tree = edge_colored_line(7)
    agent = pausing_walker(2)
    verdicts = run_pairs_kernel(
        tree, agent, [(0, 6), (0, 0)], max_rounds=2
    )
    assert verdicts[1].met and verdicts[1].meeting_round == 0
    assert not verdicts[0].met


# ----------------------------------------------------------------------
# Dict solver: solo-prefix early break (satellite bugfix)
# ----------------------------------------------------------------------


def _raising_mover():
    """Moves through port 0 into state 1; any transition *out of* state
    1 raises, so the compiled table holds _INVALID there and a walk
    stepping past it re-raises live."""
    def transition(state, in_port, degree):
        if state == 1:
            raise RuntimeError("stepped past first_hit")
        return 1

    return Automaton(2, transition, [0, 0])


def test_solo_prefix_breaks_at_first_hit():
    """The runner lands on the sleeper at round 1; the solver must not
    walk the remaining max_delay - 1 solo rounds (stepping twice more
    would hit the raising state and blow up — it did before the fix)."""
    stayer = Automaton(1, {}, [-1])
    verdicts = solve_all_delays(
        line(2), _raising_mover(), 0, 1,
        max_delay=10_000, delayed_sides=(2,), prototype2=stayer,
    )
    assert all(dv.met and dv.meeting_round <= 1 for dv in verdicts)


def test_solo_prefix_error_past_first_hit_still_raises():
    """Rounds before first_hit are still genuinely executed: with no hit
    the raising transition must surface, not be skipped."""
    stayer = Automaton(1, {}, [-1])
    # mover walks 0 -> 1 -> 0 (port 0 leads back down the line), never
    # touching the sleeper at node 2, then steps out of state 1
    with pytest.raises(RuntimeError):
        solve_all_delays(
            line(3), _raising_mover(), 0, 2,
            max_delay=10, delayed_sides=(2,), prototype2=stayer,
        )


def test_kernel_falls_back_when_lane_hits_invalid_entry(no_lane_gate):
    """The kernel aborts to the dict solver on _INVALID lanes so genuine
    agent errors surface identically."""
    stayer = Automaton(1, {}, [-1])
    telem = Telemetry()
    with use_telemetry(telem), pytest.raises(RuntimeError):
        solve_all_delays_auto(
            line(3), _raising_mover(), 0, 2,
            max_delay=10, delayed_sides=(2,), prototype2=stayer,
        )
    assert telem.counters["kernel.fallback.KernelUnsupported"] == 1


def test_grid_budget_scales_per_pair():
    """The grid call's guard is per-pair: a guard that fits each pair
    individually must fit the whole grid."""
    tree = edge_colored_line(9)
    agent = pausing_walker(2)
    pairs = _pairs_for(tree.n, 21, count=6)
    per_pair_configs = 4_000
    for u, v in pairs:
        solve_all_delays(tree, agent, u, v, max_delay=6,
                         max_configs=per_pair_configs)
    grid = kernel_mod.solve_delay_grid_kernel(
        tree, agent, pairs, max_delay=6, max_configs=per_pair_configs
    )
    assert len(grid) == len(pairs)


def test_kernel_budget_guard_trips():
    tree = edge_colored_line(31)
    agent = pausing_walker(2)
    with pytest.raises(BudgetExceededError):
        solve_all_delays_kernel(tree, agent, 0, 29, max_delay=64, max_configs=5)
