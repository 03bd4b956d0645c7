"""Declarative scenario specifications.

A :class:`ScenarioSpec` is *data*: it names a tree family, an agent
family, a delay policy, repetition/seed knobs and a backend hint, plus a
``kind`` that selects the executor (:mod:`repro.scenarios.executors`)
interpreting those fields.  Everything an experiment needs is in the
spec, so experiments can be registered, listed, hashed, serialized,
diffed and re-run — instead of living as bespoke driver code in four
different layers (``analysis/``, ``benchmarks/``, ``cli.py``,
``examples/``).

The tree / agent string grammars are the ones the CLI always used
(``line:9``, ``spider:2,3,4``, ``counting:3``, ...); :func:`build_tree`
and :func:`build_agent` are their single authoritative parsers.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Mapping, Optional

from ..errors import ReproError
from ..records import Record
from ..sim.delays import check_sides, delay_choices
from ..trees.tree import Tree

__all__ = [
    "ScenarioError",
    "DelayPolicy",
    "ScenarioSpec",
    "build_tree",
    "build_agent",
    "BACKEND_HINTS",
]

BACKEND_HINTS = ("auto", "reference", "compiled", "batched")


class ScenarioError(ReproError):
    """A scenario spec is malformed or cannot be executed."""


def build_tree(spec: str, seed: int = 0) -> Tree:
    """Parse a tree spec: ``line:9``, ``colored:9`` (2-edge-colored line),
    ``star:5``, ``binary:3``, ``binomial:4``, ``spider:2,3,4``,
    ``random:20``, ``subdivided:3`` (binary(2) base)."""
    from ..trees import (
        binomial_tree,
        complete_binary_tree,
        edge_colored_line,
        line,
        random_tree,
        spider,
        star,
        subdivide,
    )

    kind, _, arg = spec.partition(":")
    if kind == "line":
        return line(int(arg))
    if kind == "colored":
        return edge_colored_line(int(arg))
    if kind == "star":
        return star(int(arg))
    if kind == "binary":
        return complete_binary_tree(int(arg))
    if kind == "binomial":
        return binomial_tree(int(arg))
    if kind == "spider":
        return spider([int(x) for x in arg.split(",")])
    if kind == "random":
        return random_tree(int(arg), random.Random(seed))
    if kind == "subdivided":
        return subdivide(complete_binary_tree(2), int(arg))
    raise ScenarioError(f"unknown tree spec {spec!r}")


def build_agent(spec: str, seed: int = 0):
    """Parse an agent spec: ``alternator``, ``counting:3``, ``pausing:2``,
    ``random:4`` (random line automaton), ``tree-random:3`` (random
    max-degree-3 tree automaton), ``baseline``, ``thm41`` /
    ``thm41:MAX_OUTER`` (the register programs), ``prime`` /
    ``prime:MAX_PRIMES`` (unbounded, or the paper's prime(i)),
    ``counting-program:K`` / ``pausing-program:P`` (the walker zoo as
    route-A-lowerable register programs)."""
    from ..agents import counting_walker, pausing_walker, random_tree_automaton
    from ..agents.automaton import random_line_automaton
    from ..agents.library import alternator, counting_program, pausing_program

    kind, _, arg = spec.partition(":")
    if kind == "alternator":
        return alternator()
    if kind == "counting":
        return counting_walker(int(arg))
    if kind == "pausing":
        return pausing_walker(int(arg))
    if kind == "counting-program":
        return counting_program(int(arg))
    if kind == "pausing-program":
        return pausing_program(int(arg))
    if kind == "random":
        return random_line_automaton(int(arg), random.Random(seed))
    if kind == "tree-random":
        return random_tree_automaton(int(arg), rng=random.Random(seed))
    if kind == "baseline":
        from ..core import baseline_agent

        return baseline_agent()
    if kind == "thm41":
        from ..core import rendezvous_agent

        return rendezvous_agent(max_outer=int(arg) if arg else 10)
    if kind == "prime":
        from ..core import prime_line_agent

        return prime_line_agent(max_primes=int(arg) if arg else None)
    raise ScenarioError(f"unknown agent spec {spec!r}")


class DelayPolicy(Record, frozen=True):
    """How the adversary's start delay is chosen for a scenario.

    - ``none`` — simultaneous start only (θ = 0);
    - ``fixed`` — the explicit ``delays`` list, both delayed sides for
      θ > 0 (the :mod:`repro.sim.delays` choice order);
    - ``sweep`` — every θ ∈ [0, max_delay], decided in one batched pass
      where the backend supports it.

    ``sides`` must be a non-empty subset of {1, 2} without repeats and
    ``max_delay`` must be >= 0; anything else raises
    :class:`ScenarioError` here, before any backend sees it.
    """

    __slots__ = ("kind", "delays", "max_delay", "sides")

    def __init__(
        self,
        kind: str = "none",  # "none" | "fixed" | "sweep"
        delays: tuple[int, ...] = (),
        max_delay: int = 0,
        sides: tuple[int, ...] = (1, 2),
    ) -> None:
        if kind not in ("none", "fixed", "sweep"):
            raise ScenarioError(f"unknown delay policy kind {kind!r}")
        sides = check_sides(sides, ScenarioError)
        if max_delay < 0:
            raise ScenarioError("max_delay must be >= 0")
        set_ = object.__setattr__
        set_(self, "kind", kind)
        set_(self, "delays", tuple(delays))
        set_(self, "max_delay", max_delay)
        set_(self, "sides", sides)

    @classmethod
    def none(cls) -> "DelayPolicy":
        return cls("none")

    @classmethod
    def fixed(cls, *delays: int) -> "DelayPolicy":
        return cls("fixed", delays=tuple(delays))

    @classmethod
    def sweep(cls, max_delay: int, sides: tuple[int, ...] = (1, 2)) -> "DelayPolicy":
        return cls("sweep", max_delay=max_delay, sides=tuple(sides))

    def choices(self) -> list[tuple[int, int]]:
        """The concrete (delay, delayed) grid, in the
        :mod:`repro.sim.delays` order (θ = 0 once)."""
        if self.kind == "none":
            return [(0, 2)]
        thetas = self.delays if self.kind == "fixed" else range(self.max_delay + 1)
        return delay_choices(thetas, self.sides)


def _canon(value: Any) -> Any:
    """JSON-stable canonical form (tuples -> lists, sorted dict keys).

    A tuple record (:class:`~repro.records.TupleRecord`) is refused
    like any other record type: as a list it would lose its type and
    read back as a plain list."""
    if isinstance(value, dict):
        return {str(k): _canon(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)) and not hasattr(value, "_fields"):
        return [_canon(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ScenarioError(f"spec field is not JSON-serializable: {value!r}")


class ScenarioSpec(Record, frozen=True):
    """One declarative experiment: all inputs, no code.

    ``kind`` selects the executor; ``params`` carries the kind-specific
    knobs (sizes, sweep grids, ...).  ``backend`` is a *hint* —
    ``auto`` lets the runner pick per agent via ``supports_compilation``.
    """

    __slots__ = (
        "name", "kind", "description", "tree", "agent", "pairs", "delays",
        "repetitions", "seed", "backend", "params",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        description: str = "",
        tree: Optional[str] = None,
        agent: Optional[str] = None,
        pairs: tuple[tuple[int, int], ...] = (),
        delays: Optional[DelayPolicy] = None,
        repetitions: int = 1,
        seed: int = 0,
        backend: str = "auto",
        params: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if backend not in BACKEND_HINTS:
            raise ScenarioError(
                f"unknown backend hint {backend!r}; expected one of {BACKEND_HINTS}"
            )
        if repetitions < 1:
            raise ScenarioError("repetitions must be >= 1")
        set_ = object.__setattr__
        set_(self, "name", name)
        set_(self, "kind", kind)
        set_(self, "description", description)
        set_(self, "tree", tree)
        set_(self, "agent", agent)
        set_(self, "pairs", tuple(tuple(p) for p in pairs))
        set_(self, "delays", DelayPolicy() if delays is None else delays)
        set_(self, "repetitions", repetitions)
        set_(self, "seed", seed)
        set_(self, "backend", backend)
        set_(self, "params", {} if params is None else dict(params))

    def param(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)

    def with_overrides(
        self,
        *,
        backend: Optional[str] = None,
        seed: Optional[int] = None,
        params: Optional[Mapping[str, Any]] = None,
        **fields_: Any,
    ) -> "ScenarioSpec":
        """A copy with CLI/benchmark overrides applied (params are merged)."""
        merged = dict(self.params)
        if params:
            merged.update(params)
        if backend is not None:
            fields_["backend"] = backend
        if seed is not None:
            fields_["seed"] = seed
        return self._replace(params=merged, **fields_)

    def to_json(self) -> dict:
        """Canonical JSON form (the hashing / persistence representation)."""
        return _canon(
            {
                "name": self.name,
                "kind": self.kind,
                "description": self.description,
                "tree": self.tree,
                "agent": self.agent,
                "pairs": [list(p) for p in self.pairs],
                "delays": {
                    "kind": self.delays.kind,
                    "delays": list(self.delays.delays),
                    "max_delay": self.delays.max_delay,
                    "sides": list(self.delays.sides),
                },
                "repetitions": self.repetitions,
                "seed": self.seed,
                "backend": self.backend,
                "params": dict(self.params),
            }
        )

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        delays = payload.get("delays") or {}
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            description=payload.get("description", ""),
            tree=payload.get("tree"),
            agent=payload.get("agent"),
            pairs=tuple(tuple(p) for p in payload.get("pairs", ())),
            delays=DelayPolicy(
                kind=delays.get("kind", "none"),
                delays=tuple(delays.get("delays", ())),
                max_delay=delays.get("max_delay", 0),
                sides=tuple(delays.get("sides", (1, 2))),
            ),
            repetitions=payload.get("repetitions", 1),
            seed=payload.get("seed", 0),
            backend=payload.get("backend", "auto"),
            params=dict(payload.get("params", {})),
        )

    def spec_hash(self) -> str:
        """Stable content hash of everything that affects the outcome.

        The description (presentation) and the backend hint are excluded:
        backends are contractually outcome-equivalent, so the same
        scenario run on ``reference`` and ``compiled`` hashes — and
        therefore diffs — as the same experiment.
        """
        doc = self.to_json()
        doc.pop("description", None)
        doc.pop("backend", None)
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
