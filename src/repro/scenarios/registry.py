"""The scenario registry: names → declarative specs.

Every experiment surface resolves here — the CLI subcommands are aliases
for registry entries, the benchmark scripts run registry entries through
the shared harness, and new workloads are added by registering a spec
(plus, for a genuinely new *kind*, an executor).

``register`` is public: downstream code (tests, notebooks, future
workload PRs) can add scenarios at import time.
"""

from __future__ import annotations

from typing import Iterator

from ..analysis.program_atlas import DEFAULT_ATLAS_GRID
from .spec import DelayPolicy, ScenarioError, ScenarioSpec

__all__ = ["register", "get_scenario", "scenario_names", "all_scenarios"]

_REGISTRY: dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec, *, replace: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry; rejects silent name collisions."""
    if spec.name in _REGISTRY and not replace:
        raise ScenarioError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}"
        ) from None


def scenario_names() -> list[str]:
    return sorted(_REGISTRY)


def all_scenarios() -> Iterator[ScenarioSpec]:
    for name in scenario_names():
        yield _REGISTRY[name]


# ----------------------------------------------------------------------
# Built-in library: the paper's experiment tables as data.
# ----------------------------------------------------------------------

register(ScenarioSpec(
    name="thm31-sweep",
    kind="thm31_curve",
    description="E1: Thm 3.1 defeating-line size vs memory bits "
                "(counting-walker family), adversary re-certified on the "
                "selected backend",
    agent="counting",
    params={"ks": [1, 2, 3, 4]},
))

register(ScenarioSpec(
    name="thm31-random",
    kind="thm31_random",
    description="E1b: Thm 3.1 adversary vs random line automata",
    params={"states": [2, 4, 8, 16]},
))

register(ScenarioSpec(
    name="thm42-sweep",
    kind="thm42_structured",
    description="E5: Thm 4.2 simultaneous-start adversary vs the "
                "structured victims (alternator, pausing walkers)",
    params={"max_pause": 3},
))

register(ScenarioSpec(
    name="thm42-random",
    kind="thm42_random",
    description="E5b: Thm 4.2 defeating sizes over a random-agent pool",
    seed=11,
    params={"states": [2, 3, 4, 5]},
))

register(ScenarioSpec(
    name="thm43",
    kind="thm43_instances",
    description="E6: Thm 4.3 pigeonhole adversary (max degree 3) for "
                "growing leaf counts",
    seed=41,
    params={"states": 3, "i_leaves": [4, 5, 6]},
))

register(ScenarioSpec(
    name="thm43-collisions",
    kind="thm43_collisions",
    description="E6b: side-tree collision rate vs agent memory",
    seed=5,
    params={"states": [2, 4, 8], "trials": 6, "i": 4},
))

register(ScenarioSpec(
    name="delays-line",
    kind="delay_sweep",
    description="All-delays verdicts for the alternator on a 2-edge-"
                "colored line (the batch-solver showcase)",
    tree="colored:9",
    agent="alternator",
    pairs=((0, 5),),
    delays=DelayPolicy.sweep(16),
))

# The same sweep with 1025 choices: twice the auto backend's kernel lane
# gate (sim.kernel._MIN_KERNEL_LANES), so it is the registry scenario
# that really rides the kernel (and its table cache) on `--backend auto`.
register(ScenarioSpec(
    name="delays-line-long",
    kind="delay_sweep",
    description="delays-line over θ up to 512 (1025 choices): the sweep "
                "large enough for the vectorized kernel",
    tree="colored:9",
    agent="alternator",
    pairs=((0, 5),),
    delays=DelayPolicy.sweep(512),
))

# --- fault-model scenarios: the robustness layer as registry workloads ---
# Both inject a FaultPlan through the sweep executors; the verdict rows
# (including crash attribution and the certified-never-crash class) are
# part of the reference/compiled parity contract and golden-pinned.

register(ScenarioSpec(
    name="rendezvous-relabel-line",
    kind="delay_sweep",
    description="Alternator delay sweep on a colored line under "
                "adversarial port relabelings (rounds 3 and 6) — the "
                "fault-model relabeling showcase",
    tree="colored:9",
    agent="alternator",
    pairs=((0, 5),),
    delays=DelayPolicy.sweep(8),
    params={"faults": {"relabels": [[3, 1], [6, 2]]}},
))

register(ScenarioSpec(
    name="gathering-crash-k3",
    kind="gathering_sweep",
    description="3-agent gathering sweep with a crash-stop fault (agent "
                "2 at round 6) and a transient pause (agent 0, rounds "
                "2-3): certified-never-crash attribution showcase",
    agent="counting:2",
    params={
        "trees": ["line:9", "line:12"],
        "start_sets": [[0, 1, 3], [0, 2, 4]],
        "delay_vectors": [[0, 0, 0], [0, 1, 2], [1, 0, 2], [2, 0, 1]],
        "faults": {"crashes": [[2, 6]], "pauses": [[0, 2, 2]]},
    },
))

register(ScenarioSpec(
    name="baseline-delays",
    kind="baseline_delays",
    description="E7b: the arbitrary-delay baseline across three orders "
                "of magnitude of θ",
    tree="colored:16",
    agent="baseline",
    pairs=((1, 10),),
    delays=DelayPolicy.fixed(0, 1, 7, 31, 127, 511),
))

register(ScenarioSpec(
    name="success-families",
    kind="success_families",
    description="E2: 100% rendezvous over feasible pairs across the "
                "paper's tree families (Thm 4.1 agent)",
    seed=17,
    params={
        "pairs_per_tree": 3,
        "families": {
            "lines": ["line:7", "line:12", "line:21"],
            "binary": ["binary:2", "binary:3"],
            "binomial": ["binomial:3", "binomial:4"],
            "random": ["random:20", "random:20", "random:20"],
            "subdivided": ["subdivided:3", "subdivided:6"],
        },
    },
))

register(ScenarioSpec(
    name="memory-vs-n",
    kind="memory_vs_n",
    description="E3a: declared bits vs n at fixed ℓ = 4 (flat curve)",
    seed=7,
    params={"subdivisions": [0, 1, 3, 7, 15, 31]},
))

register(ScenarioSpec(
    name="memory-vs-leaves",
    kind="memory_vs_leaves",
    description="E3b: declared bits vs ℓ at roughly fixed n (log curve)",
    seed=3,
    params={"leaf_counts": [4, 8, 16, 32], "total_nodes": 120},
))

register(ScenarioSpec(
    name="prime-rounds",
    kind="prime_rounds",
    description="E4: Lemma 4.1 meeting rounds on growing odd paths",
    agent="prime",
    params={"lengths": [5, 9, 17, 33, 65]},
))

register(ScenarioSpec(
    name="prime-memory",
    kind="prime_memory",
    description="E4b: worst-case prime on near-mirror hard instances",
    agent="prime",
    params={"instances": [[20, 0, 15], [32, 0, 19], [92, 0, 31], [122, 1, 60]]},
))

register(ScenarioSpec(
    name="gap-table",
    kind="gap_table",
    description="E7: the headline exponential memory gap",
    params={"subdivisions": [0, 1, 3, 7, 15, 31]},
))

register(ScenarioSpec(
    name="tradeoff-reps",
    kind="tradeoff_reps",
    description="Time/memory trade-off: P-repetition factor sweep on the "
                "stress family",
    seed=9,
    params={"factors": [1, 2, 5, 8], "sizes": [9, 13, 17], "pairs_per_tree": 3},
))

register(ScenarioSpec(
    name="ablation-reps",
    kind="ablation_reps",
    description="Ablation of the paper's 5ℓ repetition constant",
    seed=9,
    params={"factors": [1, 2, 5, 8], "sizes": [9, 13]},
))

register(ScenarioSpec(
    name="minimization",
    kind="minimization",
    description="Honest-bits check: victim families are near minimal",
))

register(ScenarioSpec(
    name="atlas-programs",
    kind="program_atlas",
    description="Program memory atlas: library register programs lowered, "
                "minimized over the lowering alphabet, circuit-profiled "
                "(γ/tails), and paired with the Ω(log log n)/Ω(log ℓ) "
                "floors and Thm 3.1 defeating sizes",
    params={
        # the analysis layer's DEFAULT_ATLAS_GRID is the single source of
        # truth: program spec -> tree grid; route-A programs repeat the
        # {1,2} alphabet across lines on purpose (the lowering cache
        # collapses the repeats), route-B programs use trees whose solo
        # traces lasso in milliseconds.
        "programs": {
            name: list(trees) for name, trees in DEFAULT_ATLAS_GRID.items()
        },
    },
))

register(ScenarioSpec(
    name="explo-cost",
    kind="explo_cost",
    description="E8 / Fact 2.1: Explo's outputs and 2(n-1) round cost",
    seed=3,
    params={"sizes": [10, 20, 40, 80, 160]},
))

register(ScenarioSpec(
    name="verify-small",
    kind="exhaustive_verify",
    description="Exhaustive Thm 4.1 / Fact 1.1 verification at small n",
    params={"max_n": 6, "labelings": 1},
))

register(ScenarioSpec(
    name="atlas",
    kind="atlas",
    description="Feasibility atlas over all non-isomorphic n-node trees",
    params={"n": 7},
))

register(ScenarioSpec(
    name="gathering-spider",
    kind="gathering",
    description="k-agent gathering on a spider (central-node regime)",
    tree="spider:2,3,4",
    params={"starts": [1, 4, 8]},
))

# --- gathering sweeps: §1.3's k-agent extension as a gridded workload ---
# Each entry grids tree family × start sets × per-agent delay vectors and
# is tuned so the default grid exercises both verdict classes (met and
# certified-never) with every choice decided — the exact joint-
# configuration solver on compiled/auto, certified runs on reference.

register(ScenarioSpec(
    name="gathering-line-k3",
    kind="gathering_sweep",
    description="3-agent gathering sweep on lines (counting walkers; "
                "mixed met / certified-never grid)",
    agent="counting:2",
    params={
        "trees": ["line:9", "line:12"],
        "start_sets": [[0, 1, 3], [0, 2, 4], [0, 3, 4]],
        "delay_vectors": [[0, 0, 0], [0, 1, 2], [1, 0, 2], [2, 0, 1], [0, 0, 2]],
    },
))

register(ScenarioSpec(
    name="gathering-line-k4",
    kind="gathering_sweep",
    description="4-agent gathering sweep on a line (counting walkers; "
                "only asymmetric delay vectors gather)",
    agent="counting:2",
    params={
        "trees": ["line:9"],
        "start_sets": [[0, 1, 2, 3], [0, 2, 3, 4]],
        "delay_vectors": [[0, 0, 0, 0], [1, 0, 1, 2], [0, 0, 1, 2], [2, 2, 1, 0]],
    },
))

register(ScenarioSpec(
    name="gathering-spider-k3",
    kind="gathering_sweep",
    description="3-agent gathering sweep on spiders (random bounded-"
                "degree tree automaton)",
    agent="tree-random:3",
    seed=7,
    params={
        "trees": ["spider:2,2,2", "spider:2,3,4"],
        "start_sets": [[1, 3, 5], [2, 4, 6]],
        "delay_vectors": [[0, 0, 0], [0, 1, 2], [3, 0, 1]],
    },
))

register(ScenarioSpec(
    name="gathering-binary-k4",
    kind="gathering_sweep",
    description="4-agent gathering sweep on complete binary trees "
                "(random bounded-degree tree automaton)",
    agent="tree-random:4",
    seed=4,
    params={
        "trees": ["binary:2", "binary:3"],
        "start_sets": [[1, 3, 5, 6], [2, 4, 5, 6], [0, 3, 4, 6]],
        "delay_vectors": [[0, 0, 0, 0], [0, 1, 2, 3], [2, 0, 0, 1], [1, 1, 0, 2]],
    },
))
