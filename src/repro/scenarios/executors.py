"""Executors: interpret a :class:`ScenarioSpec` kind against a backend.

Each executor is a thin, declarative-input adapter over the existing
analysis / lower-bound / core machinery.  It receives the spec, the
resolved :class:`~repro.scenarios.backends.Backend` and a seeded RNG, and
returns ``(rows, summary)``:

- ``rows`` — the *outcome table*: a list of flat JSON-serializable dicts,
  one per measured instance.  Rows are the unit of backend parity (the
  same scenario run on the reference and compiled backends must produce
  identical rows) and the unit of persistence/diffing
  (:mod:`repro.scenarios.store`);
- ``summary`` — scenario-level aggregates; must contain a boolean
  ``ok`` (the scenario's own acceptance check).

Executors whose agents are register *programs* (Theorem 4.1 agent, the
baseline) are compiled-backend citizens through the lowering subsystem
(:mod:`repro.sim.traced`): ``--backend compiled`` runs them on shared
solo traces / traced-table solvers with reference-parity rows.

Kinds registered with ``backend_sensitive=False`` never consult the
backend (they wrap analysis drivers that pick their own engines); the
runner rejects a non-``auto`` backend hint for them instead of recording
an engine that did no work.  ``agents=`` annotates what a kind runs when
the spec carries no agent string — ``repro scenarios list`` renders the
per-scenario backend eligibility from it.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..errors import ConstructionError
from ..sim.batch import BatchJob, derive_seed
from .backends import Backend
from .spec import ScenarioError, ScenarioSpec, build_agent, build_tree

__all__ = [
    "EXECUTORS",
    "BACKEND_AGNOSTIC_KINDS",
    "KIND_AGENTS",
    "executor",
    "execute",
    "spec_eligibility",
]

_CERTIFY_BUDGET = 200_000

EXECUTORS: dict[str, Callable] = {}
BACKEND_AGNOSTIC_KINDS: set[str] = set()
# For kinds whose agents are built internally (no spec.agent): what they
# run — "native" (automata) or "lowerable" (register programs).
KIND_AGENTS: dict[str, str] = {}


def executor(
    kind: str, *, backend_sensitive: bool = True, agents: Optional[str] = None
):
    def wrap(fn):
        EXECUTORS[kind] = fn
        if not backend_sensitive:
            BACKEND_AGNOSTIC_KINDS.add(kind)
        if agents is not None:
            KIND_AGENTS[kind] = agents
        return fn

    return wrap


def spec_eligibility(spec: ScenarioSpec) -> str:
    """How a scenario's agents meet the compiled backend.

    - ``native`` — finite-state automata, compiled directly;
    - ``lowerable`` — register programs, compiled via lowering;
    - ``reference-only`` — agents the compiled backend must reject;
    - ``agnostic`` — the kind never consults a backend.
    """
    from ..sim.compiled import supports_compilation

    if spec.kind in BACKEND_AGNOSTIC_KINDS:
        return "agnostic"
    if spec.agent:
        try:
            support = supports_compilation(build_agent(spec.agent, spec.seed))
        # repro-lint: disable=RPR002 -- eligibility listing only: a spec whose agent string the executor parameterizes (e.g. thm31-sweep's bare "counting") cannot build here; the kind annotation is the honest fallback and no verdict depends on it
        except Exception:
            # some specs carry a bare family name whose parameters the
            # executor supplies (thm31-sweep's agent is "counting"); fall
            # back to the kind's annotation rather than guessing
            return KIND_AGENTS.get(spec.kind, "?")
        return support if support else "reference-only"
    return KIND_AGENTS.get(spec.kind, "native")


def execute(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    fn = EXECUTORS.get(spec.kind)
    if fn is None:
        raise ScenarioError(
            f"no executor for scenario kind {spec.kind!r} "
            f"(known: {sorted(EXECUTORS)})"
        )
    return fn(spec, backend, rng)


# ----------------------------------------------------------------------
# Rendezvous sweeps
# ----------------------------------------------------------------------

def _spec_faults(spec: ScenarioSpec):
    """The spec's fault plan (``faults`` param, JSON form or spec strings),
    or ``None`` — sweeps without the param stay byte-identical to the
    fault-free rows they always produced."""
    from ..sim.faults import FaultPlan

    return FaultPlan.coerce(spec.param("faults"))


def _sweep_summary(rows) -> dict:
    """Shared sweep aggregates.  ``certified-never-crash`` rows count as
    certified (the non-meeting is proved; the crash is attribution), and
    a ``crashed`` counter appears only when the scenario injected faults,
    keeping fault-free summaries unchanged."""
    met = sum(r["verdict"] == "met" for r in rows)
    undecided = sum(r["verdict"] == "undecided" for r in rows)
    crashed = sum(r["verdict"] == "certified-never-crash" for r in rows)
    summary = {
        "ok": undecided == 0,  # every adversary choice was decided
        "choices": len(rows),
        "met": met,
        "certified_never": len(rows) - met - undecided,
        "undecided": undecided,
        "all_met": met == len(rows),
    }
    if crashed:
        summary["crashed"] = crashed
    return summary


@executor("delay_sweep")
def _delay_sweep(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """Decide every (delay, delayed) adversary choice for each start pair."""
    from ..trees.labelings import random_relabel

    if not spec.pairs:
        raise ScenarioError("delay_sweep needs at least one start pair")
    if spec.delays.kind != "sweep":
        raise ScenarioError("delay_sweep needs a 'sweep' delay policy")
    # params may override the policy knob (CLI: --set max_delay=64)
    max_delay = spec.param("max_delay", spec.delays.max_delay)
    max_rounds = spec.param("max_rounds")  # None -> backend's own budget
    faults = _spec_faults(spec)
    agent = build_agent(spec.agent, spec.seed)
    rows = []
    for rep in range(spec.repetitions):
        tree = build_tree(spec.tree, spec.seed)
        if spec.param("relabel", False) or rep > 0:
            tree = random_relabel(
                tree, random.Random(derive_seed(spec.seed, "relabel", rep))
            )
        for u, v in spec.pairs:
            # Pass faults only when set: fault-free sweeps keep working
            # against duck-typed backends that predate the kwarg.
            extra = {} if faults is None else {"faults": faults}
            verdicts = backend.sweep_delays(
                tree, agent, u, v,
                max_delay=max_delay, sides=spec.delays.sides,
                max_rounds=max_rounds, **extra,
            )
            for dv in verdicts:
                if dv.met:
                    verdict = "met"
                elif dv.certified_never:
                    # distinguish "never meets because a crash fault
                    # removed an agent" from an intrinsic non-meeting
                    verdict = (
                        "certified-never-crash" if dv.crashed
                        else "certified-never"
                    )
                else:
                    # a budgeted per-run backend can exhaust max_rounds
                    # without a certificate; never report that as proof
                    verdict = "undecided"
                row = {
                    "pair": f"{u},{v}",
                    "delay": dv.delay,
                    "delayed": dv.delayed,
                    "verdict": verdict,
                    "round": dv.meeting_round if dv.met else None,
                }
                if spec.repetitions > 1:
                    row = {"rep": rep, **row}
                rows.append(row)
    return rows, _sweep_summary(rows)


@executor("gathering_sweep")
def _gathering_sweep(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """Decide every (tree, start set, per-agent delay vector) gathering
    choice — the k-agent generalization of ``delay_sweep``.

    Params: ``trees`` (list of tree specs; defaults to the spec's single
    ``tree``), ``start_sets`` (list of k-node start lists), and
    ``delay_vectors`` (list of per-agent delay lists, each of length k).
    All start sets and delay vectors must share one k.  Exact backends
    decide every choice; a budgeted per-run backend may leave a choice
    ``undecided`` — reported as such, never as proof.
    """
    tree_specs = spec.param("trees") or ([spec.tree] if spec.tree else [])
    if not tree_specs:
        raise ScenarioError("gathering_sweep needs a 'trees' param or a tree spec")
    start_sets = [list(map(int, s)) for s in spec.param("start_sets", [])]
    delay_vectors = [list(map(int, v)) for v in spec.param("delay_vectors", [])]
    if not start_sets or not delay_vectors:
        raise ScenarioError("gathering_sweep needs 'start_sets' and 'delay_vectors'")
    ks = {len(s) for s in start_sets} | {len(v) for v in delay_vectors}
    if len(ks) != 1:
        raise ScenarioError(
            f"gathering_sweep start sets and delay vectors must share one "
            f"agent count, got lengths {sorted(ks)}"
        )
    agent = build_agent(spec.agent, spec.seed)
    max_rounds = spec.param("max_rounds")  # None -> backend's own budget
    faults = _spec_faults(spec)
    rows = []
    for tree_spec in tree_specs:
        tree = build_tree(tree_spec, spec.seed)
        for starts in start_sets:
            extra = {} if faults is None else {"faults": faults}
            verdicts = backend.sweep_gathering(
                tree, agent, starts, delay_vectors,
                max_rounds=max_rounds, **extra,
            )
            for vec, gv in zip(delay_vectors, verdicts):
                if gv.gathered:
                    verdict = "met"
                elif gv.certified_never:
                    verdict = (
                        "certified-never-crash" if gv.crashed
                        else "certified-never"
                    )
                else:
                    # a budgeted per-run backend can exhaust max_rounds
                    # without a certificate; never report that as proof
                    verdict = "undecided"
                rows.append(
                    {
                        "tree": tree_spec,
                        "starts": ",".join(map(str, starts)),
                        "delays": ",".join(map(str, vec)),
                        "verdict": verdict,
                        "round": gv.gathering_round if gv.gathered else None,
                    }
                )
    return rows, _sweep_summary(rows)


@executor("baseline_delays")
def _baseline_delays(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """The arbitrary-delay baseline across decades of θ (program agent)."""
    tree = build_tree(spec.tree, spec.seed)
    if not spec.pairs:
        raise ScenarioError("baseline_delays needs a start pair")
    (u, v) = spec.pairs[0]
    rows = []
    for theta, side in spec.delays.choices():
        out = backend.run(
            tree, build_agent(spec.agent, spec.seed), u, v,
            delay=theta, delayed=side,
            max_rounds=spec.param("max_rounds", _CERTIFY_BUDGET),
        )
        rows.append(
            {"delay": theta, "delayed": side, "met": out.met,
             "round": out.meeting_round}
        )
    return rows, {"ok": all(r["met"] for r in rows), "runs": len(rows)}


# ----------------------------------------------------------------------
# Lower-bound adversaries (Thm 3.1 / 4.2 / 4.3)
# ----------------------------------------------------------------------

def _recertify_many(
    backend: Backend, spec: ScenarioSpec, instances
) -> list[bool]:
    """Replay adversary instances through the scenario's backend and report
    whether non-meeting is certified there (the backend-parity seam).

    The runs are independent, so they go through ``Backend.run_many`` —
    the batched backend fans them over its process pool — and each job
    carries a seed derived from the spec's (multiprocess reproducibility).
    """
    jobs = [
        BatchJob(
            tree, agent, u, v, delay=delay, delayed=delayed,
            max_rounds=_CERTIFY_BUDGET, certify=True,
            seed=derive_seed(spec.seed, "certify", idx),
        )
        for idx, (tree, agent, u, v, delay, delayed) in enumerate(instances)
    ]
    return [bool(out.certified_never) for out in backend.run_many(jobs)]


@executor("thm31_curve", agents="native")
def _thm31_curve(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """E1: defeating-line size vs memory bits (counting-walker family)."""
    from ..agents import counting_walker
    from ..analysis import growth_ratios
    from ..lowerbounds import build_thm31_instance

    built = []
    for k in spec.param("ks", [1, 2, 3, 4]):
        agent = counting_walker(k)
        inst = build_thm31_instance(agent)
        built.append((agent, inst))
    certs = _recertify_many(
        backend, spec,
        [
            (inst.tree, agent.clone(), inst.start1, inst.start2,
             inst.delay, inst.delayed)
            for agent, inst in built
        ],
    )
    rows = [
        {"bits": agent.memory_bits, "edges": inst.line_edges,
         "kind": inst.kind, "delay": inst.delay, "certified": certified}
        for (agent, inst), certified in zip(built, certs)
    ]
    ratios = growth_ratios([float(r["edges"]) for r in rows])
    return rows, {
        "ok": all(r["certified"] for r in rows),
        "growth_ratios": [round(r, 2) for r in ratios],
    }


@executor("thm31_random", agents="native")
def _thm31_random(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """E1b: the Thm 3.1 adversary against random line automata."""
    from ..agents import random_line_automaton
    from ..lowerbounds import build_thm31_instance

    built = []
    for k in spec.param("states", [2, 4, 8, 16]):
        agent = random_line_automaton(k, rng)
        built.append((k, agent, build_thm31_instance(agent)))
    certs = _recertify_many(
        backend, spec,
        [
            (inst.tree, agent.clone(), inst.start1, inst.start2,
             inst.delay, inst.delayed)
            for _, agent, inst in built
        ],
    )
    rows = [
        {"states": k, "bits": inst.memory_bits, "edges": inst.line_edges,
         "kind": inst.kind, "delay": inst.delay, "certified": certified}
        for (k, agent, inst), certified in zip(built, certs)
    ]
    return rows, {"ok": all(r["certified"] for r in rows)}


@executor("thm42_structured", agents="native")
def _thm42_structured(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """E5: the simultaneous-start adversary vs the structured victims."""
    from ..agents import alternator, pausing_walker
    from ..lowerbounds import build_thm42_instance

    victims = [("alternator", alternator())] + [
        (f"pausing({p})", pausing_walker(p))
        for p in range(1, spec.param("max_pause", 3) + 1)
    ]
    built = [(name, agent, build_thm42_instance(agent)) for name, agent in victims]
    certs = _recertify_many(
        backend, spec,
        [(inst.tree, agent.clone(), inst.start1, inst.start2, 0, 2)
         for _, agent, inst in built],
    )
    rows = [
        {"agent": name, "bits": agent.memory_bits, "gamma": inst.gamma,
         "edges": inst.line_edges, "certified": certified}
        for (name, agent, inst), certified in zip(built, certs)
    ]
    return rows, {"ok": all(r["certified"] for r in rows)}


@executor("thm42_random", backend_sensitive=False)
def _thm42_random(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """E5b: (bits, defeating edges, kind, gamma) over a random-agent pool."""
    from ..analysis import thm42_size_vs_bits

    rows_raw = thm42_size_vs_bits(
        seed=spec.seed, states=tuple(spec.param("states", [2, 3, 4, 5]))
    )
    rows = [
        {"bits": b, "edges": e, "kind": k, "gamma": g} for b, e, k, g in rows_raw
    ]
    return rows, {"ok": bool(rows)}


@executor("thm43_instances", agents="native")
def _thm43_instances(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """E6: the Ω(log ℓ) pigeonhole adversary (max degree 3)."""
    from ..agents import random_tree_automaton
    from ..lowerbounds import build_thm43_instance

    states = spec.param("states", 3)
    rows = []
    built = []  # (row index, agent, instance) for the certification pass
    for i_leaf in spec.param("i_leaves", [4, 5, 6]):
        agent = random_tree_automaton(states, rng=rng)
        try:
            inst = build_thm43_instance(agent, i_leaf)
        except ConstructionError as exc:
            rows.append(
                {"leaves": 2 * i_leaf, "bits": agent.memory_bits,
                 "n": None, "side_trees": 2 ** (i_leaf - 1),
                 "certified": False, "error": str(exc)}
            )
            continue
        built.append((len(rows), agent, inst))
        rows.append(
            {"leaves": 2 * i_leaf, "bits": inst.memory_bits, "n": inst.tree.n,
             "side_trees": 2 ** (i_leaf - 1), "certified": False,
             "ell": inst.ell, "states": agent.num_states,
             "side1": ",".join(map(str, inst.side1.choices)),
             "side2": ",".join(map(str, inst.side2.choices))}
        )
    certs = _recertify_many(
        backend, spec,
        [(inst.tree, agent.clone(), inst.two_sided.u, inst.two_sided.v, 0, 2)
         for _, agent, inst in built],
    )
    for (row_idx, _, _), certified in zip(built, certs):
        rows[row_idx]["certified"] = certified
    ok = all(r["certified"] for r in rows)
    return rows, {"ok": ok}


@executor("thm43_collisions", backend_sensitive=False)
def _thm43_collisions(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """E6b: collision rate vs memory (the bound's pigeonhole mechanism)."""
    from ..agents import random_tree_automaton
    from ..lowerbounds import find_colliding_side_trees

    trials = spec.param("trials", 6)
    i_leaf = spec.param("i", 4)
    rows = []
    for k in spec.param("states", [2, 4, 8]):
        hits = 0
        for _ in range(trials):
            agent = random_tree_automaton(k, rng=rng)
            if find_colliding_side_trees(agent, i_leaf, i_leaf) is not None:
                hits += 1
        rows.append({"states": k, "collisions": hits, "trials": trials})
    return rows, {"ok": bool(rows)}


# ----------------------------------------------------------------------
# Upper-bound sweeps (Thm 4.1 / Lemma 4.1 / the gap table)
# ----------------------------------------------------------------------

@executor("success_families", agents="lowerable")
def _success_families(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """E2: 100% rendezvous over feasible pairs across tree families.

    Joint runs route through the backend (the Theorem 4.1 agent is a
    register program, so ``--backend compiled`` takes the traced
    lowering path); the memory columns are solo-replay instrumentation
    and identical on every backend.
    """
    from ..analysis import success_sweep
    from ..trees.labelings import random_relabel

    pairs_per_tree = spec.param("pairs_per_tree", 3)
    rows = []
    all_ok = True
    for family, tree_specs in spec.param("families", {}).items():
        trees = []
        for idx, tspec in enumerate(tree_specs):
            seed = derive_seed(spec.seed, family, idx)
            trees.append(
                random_relabel(build_tree(tspec, seed), random.Random(seed))
            )
        points = success_sweep(
            trees, pairs_per_tree=pairs_per_tree,
            seed=derive_seed(spec.seed, family, "pairs"),
            engine=backend.run,
            pairs_engine=backend.run_pairs,
        )
        met = sum(p.met for p in points)
        all_ok &= met == len(points)
        rows.append(
            {"family": family, "runs": len(points), "met": met,
             "max_round": max((p.meeting_round for p in points), default=0)}
        )
    return rows, {"ok": all_ok}


@executor("memory_vs_n", backend_sensitive=False)
def _memory_vs_n(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """E3a: declared bits vs n at fixed ℓ (subdivided binary trees)."""
    from ..analysis import memory_vs_n_fixed_leaves

    series, points = memory_vs_n_fixed_leaves(
        subdivisions=tuple(spec.param("subdivisions", [0, 1, 3, 7])),
        seed=spec.seed,
    )
    rows = [
        {"n": p.n, "leaves": p.leaves, "met": p.met, "bits": p.bits_declared}
        for p in points
    ]
    spread = max(series.ys) - min(series.ys)
    return rows, {"ok": all(p.met for p in points), "bits_spread": spread}


@executor("memory_vs_leaves", backend_sensitive=False)
def _memory_vs_leaves(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """E3b: declared bits vs ℓ at roughly fixed n (double brooms)."""
    from ..analysis import memory_vs_leaves

    series, points = memory_vs_leaves(
        leaf_counts=tuple(spec.param("leaf_counts", [4, 8, 16])),
        total_nodes=spec.param("total_nodes", 80),
        seed=spec.seed,
    )
    rows = [
        {"leaves": p.leaves, "n": p.n, "met": p.met, "bits": p.bits_declared}
        for p in points
    ]
    increments = [int(b - a) for a, b in zip(series.ys, series.ys[1:])]
    return rows, {"ok": all(p.met for p in points), "increments": increments}


@executor("prime_rounds", backend_sensitive=False)
def _prime_rounds(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """E4: Lemma 4.1 meeting rounds on growing odd paths."""
    from ..analysis import fit_loglog_slope, prime_rounds_vs_path_length

    series = prime_rounds_vs_path_length(
        lengths=tuple(spec.param("lengths", [5, 9, 17, 33]))
    )
    rows = [{"m": int(x), "round": int(y)} for x, y in zip(series.xs, series.ys)]
    slope = fit_loglog_slope(series.xs, series.ys)
    return rows, {"ok": 0.5 < slope < 3.5, "loglog_slope": round(slope, 2)}


@executor("prime_memory")
def _prime_memory(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """E4b: worst-case prime (memory) on near-mirror hard instances.

    The register account is measured on a solo replay to the meeting
    round rather than read off ``out.agents``: an agent's trajectory
    never depends on its partner, so the replay is exact, and lowered
    (traced) outcomes deliberately carry unexecuted clones — this keeps
    the rows identical on every backend.
    """
    from ..core import prime_line_agent
    from ..core.memory import measure_memory
    from ..trees.labelings import thm31_line_labeling

    rows = []
    for m, a, b in spec.param("instances", [[20, 0, 15], [32, 0, 19]]):
        tree = thm31_line_labeling(m)
        out = backend.run(
            tree, prime_line_agent(), a, b,
            max_rounds=spec.param("max_rounds", 30_000_000),
        )
        if not out.met:  # pragma: no cover - Lemma 4.1 guarantees meeting
            raise ScenarioError(f"prime protocol failed on m={m}")
        # agent 1's run = start action + (meeting_round - 1) steps
        report = measure_memory(
            tree, a, prime_line_agent(), out.meeting_round - 1
        )
        rows.append(
            {"m": m, "a": a, "b": b, "max_prime": report.registers["prime_p"][1],
             "round": out.meeting_round}
        )
    primes = [r["max_prime"] for r in rows]
    return rows, {"ok": primes == sorted(primes) and primes[-1] <= 31}


@executor("gap_table", agents="lowerable")
def _gap_table(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """E7: the headline exponential memory gap (runs via the backend;
    memory columns are solo replays, identical everywhere)."""
    from ..analysis import gap_table

    table = gap_table(
        subdivisions=tuple(spec.param("subdivisions", [0, 1, 3, 7])),
        engine=backend.run,
    )
    rows = [
        {"n": r.n, "leaves": r.leaves, "delay0_bits": r.delay0_bits,
         "arbitrary_bits": r.arbitrary_bits,
         "gap_factor": round(r.gap_factor, 2),
         "met": r.delay0_met and r.arbitrary_met}
        for r in table
    ]
    delay0 = [r["delay0_bits"] for r in rows]
    arb = [r["arbitrary_bits"] for r in rows]
    return rows, {
        "ok": all(r["met"] for r in rows)
        and max(delay0) - min(delay0) <= 4
        and arb == sorted(arb),
    }


@executor("tradeoff_reps", backend_sensitive=False)
def _tradeoff_reps(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """Time/memory trade-off: the P-repetition factor sweep."""
    from ..analysis import reps_factor_tradeoff, stress_instances

    pool = stress_instances(
        sizes=tuple(spec.param("sizes", [9, 13, 17])),
        pairs_per_tree=spec.param("pairs_per_tree", 3),
        seed=spec.seed,
    )
    table = reps_factor_tradeoff(
        factors=tuple(spec.param("factors", [1, 2, 5, 8])), instances=pool
    )
    rows = [
        {"factor": r.knob, "runs": r.runs, "met": r.met,
         "worst_round": r.worst_round, "mean_round": round(r.mean_round, 1)}
        for r in table
    ]
    return rows, {"ok": all(r.success_rate == 1.0 for r in table)}


@executor("ablation_reps", agents="lowerable")
def _ablation_reps(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """Ablation of the paper's 5ℓ repetition constant on stress lines."""
    from ..core import rendezvous_agent
    from ..trees.automorphism import perfectly_symmetrizable
    from ..trees.builders import line
    from ..trees.labelings import random_relabel

    local = random.Random(spec.seed)
    trees = [
        random_relabel(line(m), local) for m in spec.param("sizes", [9, 13])
    ]
    rows = []
    for factor in spec.param("factors", [1, 2, 5, 8]):
        met = runs = worst = 0
        for tree in trees:
            for u, v in [(0, 3), (1, 5), (2, tree.n - 1)]:
                if perfectly_symmetrizable(tree, u, v):
                    continue
                runs += 1
                out = backend.run(
                    tree, rendezvous_agent(reps_factor=factor, max_outer=10),
                    u, v, max_rounds=spec.param("max_rounds", 3_000_000),
                )
                met += out.met
                worst = max(worst, out.meeting_round or 0)
        rows.append({"factor": factor, "met": met, "runs": runs, "worst": worst})
    paper = next((r for r in rows if r["factor"] == 5), None)
    return rows, {"ok": paper is None or paper["met"] == paper["runs"]}


# ----------------------------------------------------------------------
# Verification, classification, structure
# ----------------------------------------------------------------------

@executor("exhaustive_verify", agents="lowerable")
def _exhaustive_verify(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """Exhaustive Theorem 4.1 / Fact 1.1 verification at small n.

    Routing the runs through the backend is what lets
    ``verify-small --backend compiled`` scale past n = 8: the lowering
    trace cache decides all ~n²/2 pairs of a labeled tree from at most
    n interpreted solo runs.
    """
    from ..analysis import verify_fact_11_impossibility, verify_theorem_41

    max_n = spec.param("max_n", 6)
    rep = verify_theorem_41(
        max_n=max_n,
        random_labelings=spec.param("labelings", 1),
        seed=spec.seed,
        engine=backend.run,
        pairs_engine=backend.run_pairs,
    )
    rep2 = verify_fact_11_impossibility(
        max_n=min(max_n, spec.param("fact11_max_n", 6)),
        engine=backend.run,
    )
    rows = [
        {"check": "thm41", "trees": rep.trees_checked,
         "instances": rep.instances, "failures": len(rep.failures)},
        {"check": "fact11", "trees": rep2.trees_checked,
         "instances": rep2.instances, "failures": len(rep2.failures)},
    ]
    return rows, {"ok": rep.ok and rep2.ok}


@executor("atlas", backend_sensitive=False)
def _atlas(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """Feasibility atlas over all non-isomorphic n-node trees."""
    from ..analysis import summarize_tree
    from ..trees import all_trees

    rows = []
    for idx, t in enumerate(all_trees(spec.param("n", 7))):
        s = summarize_tree(t)
        rows.append(
            {"tree#": idx, "leaves": s.leaves, "center": s.center_kind,
             "infeas": s.pairs_perfectly_symmetrizable,
             "sym-feas": s.pairs_symmetric_feasible,
             "asym": s.pairs_asymmetric}
        )
    return rows, {"ok": bool(rows), "trees": len(rows)}


@executor("program_atlas", agents="lowerable")
def _program_atlas(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """The program memory atlas: library register programs lowered,
    minimized, circuit-profiled, and paired with the lower-bound floors.

    All analysis columns are deterministic; the one dynamics column per
    row (a budgeted, uncertified probe) routes through the backend and
    is covered by the verdict-parity contract, so the whole table must
    be identical on the reference and compiled backends.
    """
    from ..analysis.program_atlas import DEFAULT_ATLAS_GRID, program_atlas_rows

    grid = spec.param("programs", DEFAULT_ATLAS_GRID)
    atlas = program_atlas_rows(
        grid,
        engine=backend.run,
        seed=spec.seed,
        state_budget=spec.param("state_budget", 4096),
        step_budget=spec.param("step_budget", 1_000_000),
        trace_budget=spec.param("trace_budget", 1_000_000),
        max_rounds=spec.param("max_rounds", 20_000),
    )
    rows = [r.to_dict() for r in atlas]
    shrunk = sum(r["min_states"] < r["raw_states"] for r in rows)
    routes = {r["route"] for r in rows}
    ok = (
        bool(rows)
        and all(r["route"] in ("A", "B") for r in rows)
        and all(r["equiv"] for r in rows)
        and all(r["min_states"] <= r["raw_states"] for r in rows)
    )
    return rows, {
        "ok": ok,
        "programs": len(dict(grid)),
        "cells": len(rows),
        "shrunk": shrunk,
        "routes": sorted(routes),
        "states_dropped": sum(
            r["raw_states"] - r["min_states"] for r in rows
        ),
    }


@executor("minimization", backend_sensitive=False)
def _minimization(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """Honest-bits check: the victim families are (near) minimal."""
    from ..agents import (
        alternator,
        compile_walker,
        counting_walker,
        minimize_line_automaton,
        pausing_walker,
    )

    victims = [
        ("alternator", alternator()),
        ("pausing(2)", pausing_walker(2)),
        ("pausing(3)", pausing_walker(3)),
        ("counting(2)", counting_walker(2)),
        ("counting(3)", counting_walker(3)),
        ("dsl F3 B1", compile_walker("F3 B1")),
        ("dsl F5 P2 B1", compile_walker("F5 P2 B1")),
    ]
    rows = []
    for name, agent in victims:
        res = minimize_line_automaton(agent)
        rows.append(
            {"agent": name, "states": res.original_states,
             "minimal": res.minimal_states}
        )
    return rows, {"ok": all(r["minimal"] >= r["states"] // 2 for r in rows)}


@executor("explo_cost", backend_sensitive=False)
def _explo_cost(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """E8 / Fact 2.1: Procedure Explo's outputs and 2(n-1) cost."""
    from ..agents import NULL_PORT, Ctx, Registers, drive
    from ..core import explo_bis_routine
    from ..trees import (
        contract,
        find_center,
        port_preserving_automorphism,
        random_relabel,
        random_tree,
    )

    def run_explo(tree, start):
        regs = Registers()
        ctx = Ctx(NULL_PORT, tree.degree(start))
        run = drive(tree, start, explo_bis_routine(ctx, regs), regs)
        return run.value, run.rounds

    local = random.Random(spec.seed)
    rows = []
    correct = True
    for n in spec.param("sizes", [10, 20, 40]):
        tree = random_relabel(random_tree(n, local), local)
        start = next(v for v in range(tree.n) if tree.degree(v) != 2)
        result, rounds = run_explo(tree, start)
        tprime = contract(tree).contracted
        center = find_center(tprime)
        expected_kind = (
            "central_node"
            if center.is_node
            else (
                "central_edge_symmetric"
                if port_preserving_automorphism(tprime) is not None
                else "central_edge_asymmetric"
            )
        )
        correct &= result.kind == expected_kind and result.n == tree.n
        rows.append(
            {"n": n, "rounds": rounds, "expected": 2 * (n - 1),
             "nu": result.nu, "kind": result.kind}
        )
    cost_ok = all(r["rounds"] == r["expected"] for r in rows)
    return rows, {"ok": correct and cost_ok}


@executor("gathering", backend_sensitive=False)
def _gathering(spec: ScenarioSpec, backend: Backend, rng: random.Random):
    """k-agent gathering (§1.3 extension) on one instance."""
    from ..core import gather

    tree = build_tree(spec.tree, spec.seed)
    starts = [int(x) for x in spec.param("starts", [1, 4, 8])]
    delays = spec.param("delays") or None
    outcome, regime = gather(tree, starts, delays=delays)
    rows = [
        {"regime": regime.kind, "guaranteed": regime.guaranteed,
         "gathered": outcome.gathered, "round": outcome.gathering_round,
         "node": outcome.gathering_node,
         "largest_cluster": outcome.largest_cluster}
    ]
    return rows, {"ok": outcome.gathered or not regime.guaranteed}
