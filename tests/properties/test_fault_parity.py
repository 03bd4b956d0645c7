"""Property tests: faulted compiled backend ≡ faulted reference engine.

Same contract as test_backend_parity, with an adversary in the loop: on
randomized (tree, automaton, starts, delay, fault plan) instances the
compiled loop must reproduce the reference loop's ``met`` /
``meeting_round`` / ``certified_never`` / ``crashed`` verdicts under a
fault plan, and the faulted all-delays solver must agree with
per-choice reference runs.

Every engine runs a fault-free run as its one loop with the empty plan,
so two more properties pin that reduction on both tiers, for rendezvous
and gathering: ``faults=FaultPlan()`` and ``faults=None`` give identical
outcomes, and a plan whose faults all fire after the fault-free run's
decision round leaves a met / gathered outcome untouched (and any run's
pre-fault prefix).

Budgets extend the fault-free period bound by the plan horizon: past the
horizon the joint dynamics are autonomous again (crashed agents are
frozen obstacles, the labeling is final), so the same recurrence
argument applies to the post-horizon suffix.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import Automaton
from repro.sim import (
    CrashFault,
    FaultPlan,
    PauseFault,
    RelabelFault,
    run_gathering_compiled,
    run_gathering_reference,
    run_rendezvous,
    run_rendezvous_compiled,
    solve_all_delays_faulted,
)
from repro.trees import random_relabel, random_tree


@st.composite
def instances(draw, max_n=8, max_states=3):
    n = draw(st.integers(2, max_n))
    tree_seed = draw(st.integers(0, 2**20))
    rng = random.Random(tree_seed)
    tree = random_relabel(random_tree(n, rng), rng)
    k = draw(st.integers(1, max_states))
    dmax = tree.max_degree()
    table = {
        (s, ip, d): draw(st.integers(0, k - 1))
        for s in range(k)
        for ip in range(-1, dmax)
        for d in range(1, dmax + 1)
    }
    output = [draw(st.integers(-1, 2)) for _ in range(k)]
    agent = Automaton(k, table, output, draw(st.integers(0, k - 1)))
    u = draw(st.integers(0, n - 1))
    v = draw(st.integers(0, n - 1))
    return tree, agent, u, v


@st.composite
def fault_plans(draw, num_agents=2, max_round=6):
    """A small non-empty plan over ``num_agents`` agents: at most one
    crash, at most one pause per agent, at most two relabels."""
    crashes = []
    crash_agent = draw(st.sampled_from([None] + list(range(num_agents))))
    if crash_agent is not None:
        crashes.append(CrashFault(crash_agent, draw(st.integers(1, max_round))))
    pauses = []
    for agent in range(num_agents):
        if draw(st.booleans()):
            pauses.append(PauseFault(
                agent, draw(st.integers(1, max_round)), draw(st.integers(1, 3))
            ))
    relabels = []
    for rnd in sorted(draw(st.sets(st.integers(1, max_round), max_size=2))):
        relabels.append(RelabelFault(rnd, draw(st.integers(0, 2**10))))
    plan = FaultPlan(tuple(crashes), tuple(pauses), tuple(relabels))
    return plan if plan else FaultPlan(crashes=(CrashFault(0, max_round),))


def decisive_budget(tree, agent, delay, plan):
    period = (tree.n * agent.num_states * (tree.max_degree() + 1)) ** 2
    return 4 * period + delay + plan.horizon + 16


@settings(max_examples=40, deadline=None)
@given(instances(), fault_plans(), st.integers(0, 5), st.sampled_from([1, 2]))
def test_faulted_single_run_verdict_parity(instance, plan, delay, delayed):
    tree, agent, u, v = instance
    budget = decisive_budget(tree, agent, delay, plan)
    kw = dict(
        faults=plan, delay=delay, delayed=delayed,
        max_rounds=budget, certify=True,
    )
    ref = run_rendezvous(tree, agent, u, v, **kw)
    cmp_ = run_rendezvous_compiled(tree, agent, u, v, **kw)
    assert ref.met or ref.certified_never, "budget sized to always decide"
    assert ref.met == cmp_.met
    assert ref.meeting_round == cmp_.meeting_round
    assert ref.meeting_node == cmp_.meeting_node
    assert ref.certified_never == cmp_.certified_never
    assert ref.crashed == cmp_.crashed
    if ref.met:  # identical executed prefix -> identical crossing counts
        assert ref.crossings == cmp_.crossings


@settings(max_examples=20, deadline=None)
@given(instances(max_n=7), fault_plans(), st.integers(0, 4))
def test_faulted_solver_matches_per_choice_reference(instance, plan, max_delay):
    tree, agent, u, v = instance
    budget = decisive_budget(tree, agent, max_delay, plan)
    for dv in solve_all_delays_faulted(
        tree, agent, u, v, max_delay=max_delay, faults=plan
    ):
        ref = run_rendezvous(
            tree, agent, u, v, faults=plan, delay=dv.delay,
            delayed=dv.delayed, max_rounds=budget, certify=True,
        )
        assert (ref.met, ref.meeting_round, ref.certified_never) == (
            dv.met, dv.meeting_round, dv.certified_never,
        )


RENDEZVOUS_ENGINES = {
    "reference": run_rendezvous,
    "compiled": run_rendezvous_compiled,
}
GATHERING_ENGINES = {
    "reference": run_gathering_reference,
    "compiled": run_gathering_compiled,
}


@st.composite
def gathering_runs(draw):
    """An ``instances()`` draw grown to three agents with start delays."""
    tree, agent, u, v = draw(instances(max_n=7, max_states=2))
    starts = [u, v, draw(st.integers(0, tree.n - 1))]
    delays = [draw(st.integers(0, 3)) for _ in starts]
    return tree, agent, starts, delays


def fired_after(plan, decided):
    """``plan`` moved later so that its first fault fires in round
    ``decided + 1``, the first round after the fault-free decision."""
    first = min(
        f.round for f in (*plan.crashes, *plan.pauses, *plan.relabels)
    )
    by = decided + 1 - first
    return FaultPlan(
        tuple(CrashFault(c.agent, c.round + by) for c in plan.crashes),
        tuple(PauseFault(p.agent, p.round + by, p.duration) for p in plan.pauses),
        tuple(RelabelFault(r.round + by, r.seed) for r in plan.relabels),
    )


def rendezvous_fields(out):
    return (
        out.met, out.meeting_round, out.meeting_node, out.rounds_executed,
        out.certified_never, out.crossings, out.crashed, out.trace.records,
    )


@settings(max_examples=30, deadline=None)
@given(
    instances(), fault_plans(), st.integers(0, 5), st.sampled_from([1, 2]),
    st.sampled_from(sorted(RENDEZVOUS_ENGINES)),
)
def test_late_plan_leaves_the_fault_free_rendezvous(
    instance, plan, delay, delayed, engine
):
    tree, agent, u, v = instance
    run = RENDEZVOUS_ENGINES[engine]
    kw = dict(
        delay=delay, delayed=delayed, certify=True, record_trace=True,
        max_rounds=decisive_budget(tree, agent, delay, plan),
    )
    clean = run(tree, agent, u, v, **kw)
    assert rendezvous_fields(run(tree, agent, u, v, faults=FaultPlan(), **kw)) == (
        rendezvous_fields(clean)
    )
    decided = clean.rounds_executed
    late = run(tree, agent, u, v, faults=fired_after(plan, decided), **kw)
    if clean.met:
        assert rendezvous_fields(late) == rendezvous_fields(clean)
        assert late.crashed == ()
    else:
        # A later fault may still change the run's fate, never its past.
        assert late.trace.records[:decided] == clean.trace.records


@settings(max_examples=30, deadline=None)
@given(
    gathering_runs(), fault_plans(num_agents=3),
    st.sampled_from(sorted(GATHERING_ENGINES)),
)
def test_late_plan_leaves_the_fault_free_gathering(run_args, plan, engine):
    tree, agent, starts, delays = run_args
    run = GATHERING_ENGINES[engine]
    period = (tree.n * agent.num_states * (tree.max_degree() + 1)) ** 3
    kw = dict(delays=delays, certify=True, max_rounds=4 * period + 8)
    clean = run(tree, agent, starts, **kw)
    assert run(tree, agent, starts, faults=FaultPlan(), **kw) == clean
    decided = clean.rounds_executed
    late = run(tree, agent, starts, faults=fired_after(plan, decided), **kw)
    if clean.gathered:
        assert late == clean
        assert late.crashed == ()
    else:
        assert not late.gathered or late.gathering_round > decided
