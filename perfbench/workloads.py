"""The benchmark's workloads: which scenario processes one iteration runs.

A :class:`Job` is one fresh process: it runs one or more registry
scenarios through ``repro.scenarios.Runner`` (with overrides), optionally
against the iteration's atlas.  Jobs with ``atlas=True`` are run a second
time right after their miss run, as atlas-hit probes.

The workload seed selects one of :data:`VARIANTS` input variants (start
pairs, relabel seeds, spec seeds); each variant's expected rows are
pinned in ``perfbench/expected.json`` by ``perfbench/pin.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["VARIANTS", "Job", "WARM", "Workload", "WORKLOADS", "REGISTRY"]

#: Distinct input variants; seed ``s`` runs variant ``s % VARIANTS``.
VARIANTS = 8


@dataclass(frozen=True)
class Job:
    label: str
    scenarios: tuple  # ((registry name, Runner.run overrides), ...)
    atlas: bool = False

    def to_json(self) -> dict:
        return {"label": self.label,
                "scenarios": [[n, o] for n, o in self.scenarios]}


#: Untimed job run before the first iteration: it only imports ``repro``,
#: so every timed process imports from a compiled bytecode cache.
WARM = Job("warm-import", ())


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Iterations one timed run makes at most (fewer only when the next
    #: would overrun ``--seconds``), so faster code does not get more
    #: samples to take its minimum over.
    iterations: int

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed % VARIANTS}")

    def jobs(self, seed: int) -> list[Job]:
        return _JOBS[self.name](self.rng(seed))


def _memory_replay(rng: random.Random) -> list[Job]:
    # Short processes, each timed at its best of several iterations: on a
    # shared host the speed of one core swings up to 1.8x within seconds,
    # and the best of a few short runs is steady where a long run's time
    # is not.  That caps one pass at about 10 s of replay, so the sizes
    # are cut from the registry's: subdivisions up to 15 (31 is cut) and
    # memory-vs-leaves at the `repro experiments --quick` size
    # (total_nodes=40, leaf counts 4 and 8).
    # measure_memory's solo replay is seed-independent (it runs on the
    # canonical labeling); the spec seed relabels the joint runs.
    units = [
        ("memory-vs-n", "subdivisions", [0, 1, 3, 7]),
        ("memory-vs-n", "subdivisions", [15]),
        ("gap-table", "subdivisions", [0, 1, 3, 7]),
        ("gap-table", "subdivisions", [15]),
        ("memory-vs-leaves", "leaf_counts", [4]),
        ("memory-vs-leaves", "leaf_counts", [8]),
    ]
    jobs = []
    for name, param, values in units:
        params = {param: values}
        if name == "memory-vs-leaves":
            params["total_nodes"] = 40
        jobs.append(Job(f"{name}[{param}={values}]", ((name, {
            "params": params,
            "seed": rng.randrange(1, 1_000_000),
        }),), atlas=True))
    return jobs


#: The 28 registry scenarios, and the `repro experiments --quick` sizes
#: of the three whose solo replays dominate a full-size run, except that
#: memory-vs-leaves keeps leaf count 4 only: leaf count 8 (which
#: memory-replay runs) would take a fifth of an iteration, leaving room
#: for two iterations a run instead of three.
REGISTRY = (
    "ablation-reps", "atlas", "atlas-programs", "baseline-delays",
    "delays-line", "explo-cost", "gap-table", "gathering-binary-k4",
    "gathering-crash-k3", "gathering-line-k3", "gathering-line-k4",
    "gathering-spider", "gathering-spider-k3", "memory-vs-leaves",
    "memory-vs-n", "minimization", "prime-memory", "prime-rounds",
    "rendezvous-relabel-line", "success-families", "thm31-random",
    "thm31-sweep", "thm42-random", "thm42-sweep", "thm43",
    "thm43-collisions", "tradeoff-reps", "verify-small",
)
_QUICK = {
    "memory-vs-n": {"params": {"subdivisions": [0, 1]}},
    "memory-vs-leaves": {"params": {"leaf_counts": [4], "total_nodes": 40}},
    "gap-table": {"params": {"subdivisions": [0, 1]}},
}


def _registry_atlas(rng: random.Random) -> list[Job]:
    order = list(REGISTRY)
    rng.shuffle(order)
    return [Job(name, ((name, _QUICK.get(name, {})),), atlas=True)
            for name in order]


_JOBS = {
    "memory-replay": _memory_replay,
    "registry-atlas": _registry_atlas,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "memory-replay",
            "core.memory.measure_memory's solo replay does almost all of "
            "the work; the kernel and traced tiers stay idle",
            iterations=4,
        ),
        Workload(
            "registry-atlas",
            "all 28 scenarios against a fresh atlas: pass 1 misses and writes "
            "atlas rows and kernel tables, pass 2 hits and only reads",
            iterations=3,
        ),
    )
}
