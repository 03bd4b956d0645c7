"""Property tests: vectorized kernel ≡ dict solvers ≡ reference engine.

The dict product-configuration solvers stay the oracle for the
vectorized frontier kernel (:mod:`repro.sim.kernel`), and the reference
engine stays the oracle for both.  On randomized (tree, automaton,
starts) instances:

- delay sweeps: kernel verdict lists equal :func:`solve_all_delays`
  exactly (same objects field-for-field), and spot-checked θ choices
  equal certified reference runs;
- heterogeneous pairs (``prototype2``) and lowered register programs
  (route A automata, route B traced lassos) are held to the same
  equality;
- gathering grids: :func:`solve_gathering_kernel` equals
  :func:`solve_gathering`;
- a delay sweep is the k=2 gathering grid: for every side order the
  delay solvers (dict, kernel, kernel grid) equal both gathering solvers
  over the vectors ``(0, θ)`` / ``(θ, 0)``, field for field;
- a ``max_configs`` budget trip never changes semantics: the auto
  wrapper's verdicts equal the dict solver's under the same guard, and
  both raise :class:`~repro.errors.BudgetExceededError` for the same
  genuinely-too-small guards.
"""

import random
from itertools import product
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import Automaton
from repro.agents.library import counting_program, pausing_program
from repro.agents.lowering import lowered_for
from repro.errors import BudgetExceededError
from repro.sim import (
    DelayVerdict,
    run_rendezvous,
    solve_all_delays,
    solve_all_delays_auto,
    solve_all_delays_kernel,
    solve_delay_grid_kernel,
    solve_gathering,
    solve_gathering_kernel,
)
from repro.sim import kernel as kernel_mod
from repro.sim.traced import lasso_automaton, solo_trace
from repro.telemetry import Telemetry
from repro.telemetry import use as use_telemetry
from repro.trees import random_relabel, random_tree


@st.composite
def automaton_for(draw, tree, max_states=3):
    k = draw(st.integers(1, max_states))
    dmax = tree.max_degree()
    table = {
        (s, ip, d): draw(st.integers(0, k - 1))
        for s in range(k)
        for ip in range(-1, dmax)
        for d in range(1, dmax + 1)
    }
    output = [draw(st.integers(-1, 2)) for _ in range(k)]
    return Automaton(k, table, output, draw(st.integers(0, k - 1)))


@st.composite
def instances(draw, max_n=8, max_states=3):
    n = draw(st.integers(2, max_n))
    rng = random.Random(draw(st.integers(0, 2**20)))
    tree = random_relabel(random_tree(n, rng), rng)
    agent = draw(automaton_for(tree, max_states))
    u = draw(st.integers(0, n - 1))
    v = draw(st.integers(0, n - 1))
    return tree, agent, u, v


SIDE_ORDERS = st.sampled_from([(1, 2), (2, 1), (1,), (2,)])


def decisive_budget(tree, agent, delay):
    period = (tree.n * agent.num_states * (tree.max_degree() + 1)) ** 2
    return 4 * period + delay + 8


def as_gathering_grid(solve, tree, agent, u, v, max_delay, sides,
                      prototype2=None):
    """The delay sweep decided by a gathering solver over its k=2 delay
    vectors — θ-major, θ = 0 once (side 2 when requested) — and read
    back as delay verdicts."""
    zero_side = 2 if 2 in sides else sides[0]
    choices = [
        (theta, side)
        for theta in range(max_delay + 1)
        for side in sides
        if theta > 0 or side == zero_side
    ]
    vectors = [(0, t) if side == 2 else (t, 0) for t, side in choices]
    protos = None if prototype2 is None else (agent, prototype2)
    verdicts = solve(tree, agent, (u, v), vectors, prototypes=protos)
    return [
        DelayVerdict(t, side, gv.gathered, gv.gathering_round,
                     gv.certified_never, gv.crashed)
        for (t, side), gv in zip(choices, verdicts)
    ]


@settings(max_examples=50, deadline=None)
@given(instances(), st.integers(0, 6), SIDE_ORDERS)
def test_kernel_equals_dict_solver(instance, max_delay, sides):
    tree, agent, u, v = instance
    dict_v = solve_all_delays(
        tree, agent, u, v, max_delay=max_delay, delayed_sides=sides
    )
    kern_v = solve_all_delays_kernel(
        tree, agent, u, v, max_delay=max_delay, delayed_sides=sides
    )
    assert dict_v == kern_v
    for solve in (solve_gathering, solve_gathering_kernel):
        assert dict_v == as_gathering_grid(
            solve, tree, agent, u, v, max_delay, sides
        )


@settings(max_examples=15, deadline=None)
@given(instances(max_n=6), st.integers(0, 4))
def test_kernel_matches_reference(instance, max_delay):
    tree, agent, u, v = instance
    budget = decisive_budget(tree, agent, max_delay)
    for dv in solve_all_delays_kernel(tree, agent, u, v, max_delay=max_delay):
        ref = run_rendezvous(
            tree, agent, u, v,
            delay=dv.delay, delayed=dv.delayed, max_rounds=budget, certify=True,
        )
        assert (ref.met, ref.meeting_round, ref.certified_never) == (
            dv.met, dv.meeting_round, dv.certified_never,
        )


@settings(max_examples=25, deadline=None)
@given(instances(), st.integers(0, 4), SIDE_ORDERS)
def test_kernel_heterogeneous_prototype2(instance, max_delay, sides):
    tree, agent, u, v = instance
    rng = random.Random(u * 1009 + v)
    k2 = rng.randrange(1, 4)
    dmax = tree.max_degree()
    table2 = {
        (s, ip, d): rng.randrange(k2)
        for s in range(k2)
        for ip in range(-1, dmax)
        for d in range(1, dmax + 1)
    }
    other = Automaton(k2, table2, [rng.randrange(-1, 3) for _ in range(k2)])
    dict_v = solve_all_delays(
        tree, agent, u, v, max_delay=max_delay, delayed_sides=sides,
        prototype2=other,
    )
    kern_v = solve_all_delays_kernel(
        tree, agent, u, v, max_delay=max_delay, delayed_sides=sides,
        prototype2=other,
    )
    assert dict_v == kern_v
    for solve in (solve_gathering, solve_gathering_kernel):
        assert dict_v == as_gathering_grid(
            solve, tree, agent, u, v, max_delay, sides, prototype2=other
        )


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**20), st.integers(0, 3),
       st.booleans())
def test_kernel_lowered_programs(n, seed, max_delay, use_counting):
    rng = random.Random(seed)
    tree = random_relabel(random_tree(n, rng), rng)
    program = counting_program(2) if use_counting else pausing_program(2)
    degrees = {tree.degree(x) for x in range(tree.n)}
    lowered = lowered_for(program, degrees)
    u, v = rng.randrange(n), rng.randrange(n)
    dict_v = solve_all_delays(tree, lowered, u, v, max_delay=max_delay)
    kern_v = solve_all_delays_kernel(tree, lowered, u, v, max_delay=max_delay)
    assert dict_v == kern_v


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**20), st.integers(0, 2))
def test_kernel_traced_lasso_automata(n, seed, max_delay):
    """Route B: per-start lassoed automata through the heterogeneous seam."""
    rng = random.Random(seed)
    tree = random_relabel(random_tree(n, rng), rng)
    program = pausing_program(1)
    u, v = rng.randrange(n), rng.randrange(n)
    if u == v:
        v = (v + 1) % n
    a1 = lasso_automaton(solo_trace(tree, program, u))
    a2 = lasso_automaton(solo_trace(tree, program, v))
    dict_v = solve_all_delays(
        tree, a1, u, v, max_delay=max_delay, prototype2=a2
    )
    kern_v = solve_all_delays_kernel(
        tree, a1, u, v, max_delay=max_delay, prototype2=a2
    )
    assert dict_v == kern_v


@settings(max_examples=20, deadline=None)
@given(instances(max_n=7), st.integers(2, 3), st.integers(0, 2**20))
def test_gathering_kernel_equals_dict_solver(instance, k, seed):
    tree, agent, _u, _v = instance
    rng = random.Random(seed)
    starts = [rng.randrange(tree.n) for _ in range(k)]
    vectors = list(product(range(2), repeat=k))
    dict_v = solve_gathering(tree, agent, starts, vectors)
    kern_v = solve_gathering_kernel(tree, agent, starts, vectors)
    assert dict_v == kern_v


@settings(max_examples=20, deadline=None)
@given(instances(max_n=7), st.integers(0, 4))
def test_budget_trip_preserves_dict_semantics(instance, max_delay):
    """Tiny max_configs: the auto wrapper must behave exactly like the
    dict solver under the same guard — same verdicts when the dict
    solver fits, the dict solver's own BudgetExceededError when not
    (the kernel's internal accounting never leaks through)."""
    tree, agent, u, v = instance
    try:
        expected = solve_all_delays(
            tree, agent, u, v, max_delay=max_delay, max_configs=7
        )
    except BudgetExceededError:
        expected = BudgetExceededError
    # These grids sit far below the auto lane gate: lift it, so the
    # wrapper really tries the kernel (and its budget guard) first.
    telem = Telemetry()
    with patch.object(kernel_mod, "_MIN_KERNEL_LANES", 0), use_telemetry(telem):
        try:
            got = solve_all_delays_auto(
                tree, agent, u, v, max_delay=max_delay, max_configs=7
            )
        except BudgetExceededError:
            got = BudgetExceededError
    assert got == expected or (got is expected is BudgetExceededError)
    assert any(
        name == "kernel.dispatch.delays.kernel"
        or name.startswith("kernel.fallback.")
        for name in telem.counters
    ), telem.counters


@settings(max_examples=10, deadline=None)
@given(instances(max_n=7), st.integers(0, 3), st.integers(0, 2**20),
       SIDE_ORDERS)
def test_grid_kernel_equals_per_pair(instance, max_delay, seed, sides):
    tree, agent, _u, _v = instance
    rng = random.Random(seed)
    pairs = [
        (rng.randrange(tree.n), rng.randrange(tree.n)) for _ in range(5)
    ]
    per_pair = [
        solve_all_delays(
            tree, agent, u, v, max_delay=max_delay, delayed_sides=sides
        )
        for u, v in pairs
    ]
    grid = solve_delay_grid_kernel(
        tree, agent, pairs, max_delay=max_delay, delayed_sides=sides
    )
    assert grid == per_pair
    assert grid == [
        as_gathering_grid(
            solve_gathering_kernel, tree, agent, u, v, max_delay, sides
        )
        for u, v in pairs
    ]
