"""Property tests: a rendezvous run is the k=2 gathering run.

The paper's adversary (§2.1) starts one of two identical agents θ rounds
late; gathering with per-agent start delays (§1.3) with k=2 and the
delay vector :func:`repro.sim.delays.delay_vector` ``(θ, side)`` is the
same execution.  On every engine tier the single-run entry points must
therefore agree on the verdict (met / gathered, its round and node),
``rounds_executed``, ``certified_never``, ``crashed`` and the agents'
final positions:

- reference: :func:`run_rendezvous` vs :func:`run_gathering_reference`;
- compiled: :func:`run_rendezvous_compiled` vs
  :func:`run_gathering_compiled`;

both with random fault plans (or none), on random automata, and

- traced: :func:`run_rendezvous_traced` vs :func:`run_gathering_traced`
  on bounded-register programs, without faults.

The one expected difference is the Fact 1.1 symmetry certificate: a
delay-0, fault-free rendezvous on a symmetric start pair is certified
never before round 1, which gathering does not do.  There the test
checks that certificate and compares the runs with it switched off.

A rendezvous outcome carries no positions; the final positions are read
off the same call with ``record_trace=True`` (whose verdict must match
the untraced call's).
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import AgentProgram, Automaton, Ctx, NULL_PORT, move, stay
from repro.sim import (
    CrashFault,
    FaultPlan,
    PauseFault,
    RelabelFault,
    run_gathering_compiled,
    run_gathering_reference,
    run_rendezvous,
    run_rendezvous_compiled,
)
from repro.sim.certificates import symmetry_certificate
from repro.sim.delays import delay_vector
from repro.sim.traced import run_gathering_traced, run_rendezvous_traced
from repro.trees import random_relabel, random_tree

BUDGET = 1500


def _tree(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**20)))
    return random_relabel(random_tree(n, rng), rng)


@st.composite
def automaton_instances(draw):
    tree = _tree(draw)
    k = draw(st.integers(1, 3))
    dmax = max(tree.max_degree(), 1)
    table = {
        (s, ip, d): draw(st.integers(0, k - 1))
        for s in range(k)
        for ip in range(-1, dmax)
        for d in range(1, dmax + 1)
    }
    output = [draw(st.integers(-1, 2)) for _ in range(k)]
    agent = Automaton(k, table, output, draw(st.integers(0, k - 1)))
    u = draw(st.integers(0, tree.n - 1))
    v = draw(st.integers(0, tree.n - 1))
    return tree, agent, u, v


def _walker(pattern, pause, bound, repeats):
    """A bounded-register walker looping ``pattern`` ports with pauses;
    ``repeats is None`` loops forever, else the program returns."""

    def program(start_degree, regs):
        ctx = Ctx(NULL_PORT, start_degree)
        regs.declare("c", bound)
        rounds = range(repeats) if repeats is not None else iter(int, 1)
        for _ in rounds:
            for port in pattern:
                regs["c"] = (regs["c"] + 1) % (bound + 1)
                yield from move(ctx, port)
            yield from stay(ctx, pause)

    return AgentProgram(program)


@st.composite
def program_instances(draw):
    tree = _tree(draw)
    agent = _walker(
        tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))),
        draw(st.integers(0, 2)),
        draw(st.integers(1, 3)),
        draw(st.one_of(st.none(), st.integers(1, 4))),
    )
    u = draw(st.integers(0, tree.n - 1))
    v = draw(st.integers(0, tree.n - 1))
    return tree, agent, u, v


@st.composite
def fault_plans(draw, max_round=8):
    """``None``, the empty plan, or a small plan over two agents."""
    kind = draw(st.sampled_from(["none", "empty", "plan"]))
    if kind == "none":
        return None
    if kind == "empty":
        return FaultPlan()
    crashes = []
    crash_agent = draw(st.sampled_from([None, 0, 1]))
    if crash_agent is not None:
        crashes.append(CrashFault(crash_agent, draw(st.integers(1, max_round))))
    pauses = [
        PauseFault(agent, draw(st.integers(1, max_round)), draw(st.integers(1, 3)))
        for agent in (0, 1)
        if draw(st.booleans())
    ]
    relabels = [
        RelabelFault(rnd, draw(st.integers(0, 2**10)))
        for rnd in sorted(draw(st.sets(st.integers(1, max_round), max_size=2)))
    ]
    return FaultPlan(tuple(crashes), tuple(pauses), tuple(relabels))


def _without_symmetry():
    return mock.patch(
        "repro.sim.engine.symmetry_certificate", return_value=None
    )


def _final_positions(out, start1, start2):
    records = out.trace.records
    return (records[-1].pos1, records[-1].pos2) if records else (start1, start2)


def rendezvous_fields(run, tree, agent, u, v, **kw):
    out = run(tree, agent, u, v, **kw)
    traced = run(tree, agent, u, v, record_trace=True, **kw)
    fields = (
        out.met, out.meeting_round, out.meeting_node, out.rounds_executed,
        out.certified_never, out.crashed,
    )
    assert fields[:3] + fields[4:] == (
        traced.met, traced.meeting_round, traced.meeting_node,
        traced.certified_never, traced.crashed,
    )
    return fields + (_final_positions(traced, u, v),)


def gathering_fields(out):
    return (
        out.gathered, out.gathering_round, out.gathering_node,
        out.rounds_executed, out.certified_never, out.crashed, out.positions,
    )


def check_tier(rendezvous, gathering, tree, agent, u, v, theta, side, **kw):
    kw = dict(kw, max_rounds=BUDGET + theta, certify=True)
    gathered = gathering_fields(gathering(
        tree, agent, [u, v], delays=delay_vector(theta, side), **kw
    ))
    met = rendezvous_fields(
        rendezvous, tree, agent, u, v, delay=theta, delayed=side, **kw
    )
    if theta == 0 and not kw.get("faults") and symmetry_certificate(tree, u, v):
        out = rendezvous(tree, agent, u, v, delay=theta, delayed=side, **kw)
        assert out.certified_never and out.rounds_executed == 0
        with _without_symmetry():
            met = rendezvous_fields(
                rendezvous, tree, agent, u, v, delay=theta, delayed=side, **kw
            )
    assert met == gathered


@settings(max_examples=60, deadline=None)
@given(
    automaton_instances(), fault_plans(), st.integers(0, 12),
    st.sampled_from([1, 2]),
)
def test_reference_rendezvous_is_k2_gathering(instance, plan, theta, side):
    tree, agent, u, v = instance
    check_tier(
        run_rendezvous, run_gathering_reference, tree, agent, u, v,
        theta, side, faults=plan,
    )


@settings(max_examples=60, deadline=None)
@given(
    automaton_instances(), fault_plans(), st.integers(0, 12),
    st.sampled_from([1, 2]),
)
def test_compiled_rendezvous_is_k2_gathering(instance, plan, theta, side):
    tree, agent, u, v = instance
    check_tier(
        run_rendezvous_compiled, run_gathering_compiled, tree, agent, u, v,
        theta, side, faults=plan,
    )


@settings(max_examples=60, deadline=None)
@given(program_instances(), st.integers(0, 12), st.sampled_from([1, 2]))
def test_traced_rendezvous_is_k2_gathering(instance, theta, side):
    tree, agent, u, v = instance
    check_tier(
        run_rendezvous_traced, run_gathering_traced, tree, agent, u, v,
        theta, side,
    )
