"""Property tests: the Fact 1.1 symmetry certificate.

Instances are drawn symmetric by construction: two copies of one
port-labelled half, joined by a central edge that carries the same port
at both ends, so ``f`` (swap each node with its copy) is a
port-preserving automorphism.  A random renumbering hides the halves.

The reference engine stays the oracle: with ``certify`` off it must run
out its budget on every such instance.  With ``certify=True`` every tier
returns certified-never before round 1.  The certificate's ``verify()``
rejects tampered maps, and it never fires (nor changes an outcome) once
a premise fails: a delay, a fault or an asymmetric start.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.library import random_tree_automaton
from repro.core import rendezvous_agent
from repro.sim import run_rendezvous, run_rendezvous_compiled
from repro.sim.certificates import SymmetryCertificate, symmetry_certificate
from repro.sim.faults import FaultPlan, PauseFault
from repro.sim.traced import run_rendezvous_traced
from repro.trees import Tree, random_relabel, random_tree
from repro.trees.automorphism import port_preserving_automorphism

BUDGET = 1500
FIELDS = (
    "met", "meeting_round", "meeting_node", "rounds_executed",
    "certified_never", "crossings", "crashed",
)


@st.composite
def symmetric_instances(draw, max_half=5):
    """(tree, f, u, f(u), rng) with f a port-preserving involution."""
    h = draw(st.integers(1, max_half))
    rng = random.Random(draw(st.integers(0, 2**20)))
    half = random_relabel(random_tree(h, rng), rng)
    root = rng.randrange(h)
    slot = rng.randrange(half.degree(root) + 1)  # central edge's port
    rows = []
    for offset, other in ((0, h), (h, 0)):
        for x in range(h):
            row = [y + offset for y in half.neighbors(x)]
            if x == root:
                row.insert(slot, root + other)
            rows.append(row)
    perm = list(range(2 * h))
    rng.shuffle(perm)
    tree = Tree(rows).renumber_nodes(perm)
    f = [0] * (2 * h)
    for x in range(2 * h):
        f[perm[x]] = perm[(x + h) % (2 * h)]
    u = draw(st.integers(0, 2 * h - 1))
    return tree, tuple(f), u, f[u], rng


def agents(tree, rng):
    """The Theorem 4.1 program and a random automaton for ``tree``."""
    automaton = random_tree_automaton(
        rng.randint(1, 4), max(tree.max_degree(), 1), rng
    )
    return rendezvous_agent(max_outer=3), automaton


def fields(out):
    return tuple(getattr(out, name) for name in FIELDS)


@settings(max_examples=30, deadline=None)
@given(symmetric_instances())
def test_construction_is_the_trees_automorphism(instance):
    tree, f, u, v, _rng = instance
    g = port_preserving_automorphism(tree)
    assert g is not None and tuple(g[x] for x in range(tree.n)) == f
    cert = symmetry_certificate(tree, u, v)
    assert cert == SymmetryCertificate(tree, u, v, f)
    assert cert.verify()


@settings(max_examples=30, deadline=None)
@given(symmetric_instances())
def test_uncertified_reference_runs_never_meet(instance):
    tree, _f, u, v, rng = instance
    for agent in agents(tree, rng):
        out = run_rendezvous(tree, agent, u, v, max_rounds=BUDGET)
        assert out.undecided
        assert out.rounds_executed == BUDGET


@settings(max_examples=30, deadline=None)
@given(symmetric_instances())
def test_every_tier_certifies_before_round_one(instance):
    tree, _f, u, v, rng = instance
    program, automaton = agents(tree, rng)
    runs = [
        run_rendezvous(tree, program, u, v, max_rounds=BUDGET, certify=True),
        run_rendezvous(tree, automaton, u, v, max_rounds=BUDGET, certify=True),
        run_rendezvous_compiled(
            tree, automaton, u, v, max_rounds=BUDGET, certify=True
        ),
        run_rendezvous_traced(tree, program, u, v, max_rounds=BUDGET, certify=True),
        run_rendezvous_traced(
            tree, automaton, u, v, max_rounds=BUDGET, certify=True
        ),
    ]
    for out in runs:
        assert out.certified_never and not out.met
        assert out.rounds_executed == 0 and out.crossings == 0
    for agent in runs[0].agents:
        assert agent.registers.report() == {}  # never executed


@settings(max_examples=40, deadline=None)
@given(symmetric_instances(), st.data())
def test_verify_rejects_tampered_maps(instance, data):
    tree, f, u, v, _rng = instance
    n = tree.n
    assert SymmetryCertificate(tree, u, v, f).verify()
    # swap the images of two nodes that f does not already pair
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    if f[x] != y and x != y:
        swapped = list(f)
        swapped[x], swapped[y] = f[y], f[x]
        assert not SymmetryCertificate(tree, u, v, tuple(swapped)).verify()
    # the identity preserves ports but fixes every node
    assert not SymmetryCertificate(tree, u, u, tuple(range(n))).verify()
    # f does not carry u to any node but f(u)
    w = data.draw(st.integers(0, n - 1))
    if w != v:
        assert not SymmetryCertificate(tree, u, w, f).verify()
    # a map of the wrong size
    assert not SymmetryCertificate(tree, u, v, f[:-1]).verify()
    # break the ports at one node of degree >= 2: f stays an involution
    # of the nodes but no longer preserves ports
    hubs = [x for x in range(n) if tree.degree(x) >= 2]
    if hubs:
        z = data.draw(st.sampled_from(hubs))
        perms = [list(range(tree.degree(x))) for x in range(n)]
        perms[z][0], perms[z][1] = 1, 0
        broken = tree.with_ports(perms)
        assert not SymmetryCertificate(broken, u, v, f).verify()


def _without_symmetry():
    return mock.patch(
        "repro.sim.engine.symmetry_certificate", return_value=None
    )


@settings(max_examples=25, deadline=None)
@given(symmetric_instances(), st.integers(1, 3), st.sampled_from([1, 2]))
def test_certificate_does_not_fire_off_its_premises(instance, delay, side):
    tree, _f, u, v, rng = instance
    program, automaton = agents(tree, rng)
    w = next((x for x in range(tree.n) if x != u and x != v), None)
    pause = FaultPlan(pauses=(PauseFault(0, 1, 1),))
    cases = [
        {"start2": v, "delay": delay, "delayed": side},
        {"start2": v, "faults": pause},
    ]
    if w is not None:  # an asymmetric start: f(u) = v != w
        cases.append({"start2": w})
    for case in cases:
        start2 = case.pop("start2")
        # the program has no finite state, so on the reference engine
        # certify=True can only add the symmetry verdict
        plain = run_rendezvous(
            tree, program, u, start2, max_rounds=BUDGET, **case
        )
        certified = run_rendezvous(
            tree, program, u, start2, max_rounds=BUDGET, certify=True, **case
        )
        assert fields(certified) == fields(plain)
        # on every tier, certify=True gives the same outcome as it does
        # with the symmetry certificate switched off
        tiers = [(run_rendezvous, automaton), (run_rendezvous_compiled, automaton)]
        if "faults" not in case:
            tiers.append((run_rendezvous_traced, program))
        for run, agent in tiers:
            out = run(
                tree, agent, u, start2, max_rounds=BUDGET, certify=True, **case
            )
            with _without_symmetry():
                ref = run(
                    tree, agent, u, start2, max_rounds=BUDGET, certify=True,
                    **case,
                )
            assert fields(out) == fields(ref)
