"""Single-agent instrumented execution.

Debugging the paper's agents requires watching *one* agent walk a tree:
where it is, which registers change when, and how long each phase takes.
:func:`run_solo` drives one agent (an :class:`~repro.agents.program.AgentProgram`
prototype or any :class:`~repro.agents.observations.AgentBase`) on a tree
with no partner and full recording:

>>> from repro.core import rendezvous_agent
>>> from repro.trees import line
>>> run = run_solo(line(9), 0, rendezvous_agent(max_outer=1), 5000)
>>> run.rounds > 0 and run.start == 0
True

The register timeline makes claims like "the prime counter first moves at
round r" checkable in tests, and powers the memory experiments.
"""

from __future__ import annotations

from typing import Optional

from ..agents.observations import NULL_PORT, STAY, AgentBase, resolve_action
from ..agents.program import AgentProgram
from ..errors import SimulationError
from ..records import Record, TupleRecord, tuple_new
from ..trees.tree import Tree

__all__ = ["RegisterEvent", "SoloRun", "run_solo"]


class RegisterEvent(TupleRecord):
    """A register changed value at the end of ``round_index``."""

    __slots__ = ()

    def __new__(cls, round_index: int, name: str, value: int):
        return tuple_new(cls, (round_index, name, value))


class SoloRun(Record):
    """Recorded single-agent execution: ``positions`` after each round,
    and ``finished`` once the program returned (it waits forever)."""

    __slots__ = ("start", "positions", "register_events", "finished")

    def __init__(
        self,
        start: int,
        positions: Optional[list[int]] = None,
        register_events: Optional[list[RegisterEvent]] = None,
        finished: bool = False,
    ) -> None:
        self.start = start
        self.positions = [] if positions is None else positions
        self.register_events = [] if register_events is None else register_events
        self.finished = finished

    @property
    def rounds(self) -> int:
        return len(self.positions)

    @property
    def final_position(self) -> int:
        return self.positions[-1] if self.positions else self.start

    def first_change(self, name: str) -> Optional[int]:
        """Round of the first recorded change of register ``name``."""
        for ev in self.register_events:
            if ev.name == name:
                return ev.round_index
        return None

    def value_series(self, name: str) -> list[tuple[int, int]]:
        """(round, value) history of one register."""
        return [
            (ev.round_index, ev.value)
            for ev in self.register_events
            if ev.name == name
        ]


def run_solo(
    tree: Tree,
    start: int,
    prototype: AgentBase,
    max_rounds: int,
    *,
    record_registers: bool = True,
) -> SoloRun:
    """Drive one clone of ``prototype`` from ``start`` for ``max_rounds``
    rounds (or until a program agent finishes)."""
    if not (0 <= start < tree.n):
        raise SimulationError("start node outside the tree")
    agent = prototype.clone()
    run = SoloRun(start=start)
    pos = start
    snapshot: dict[str, int] = {}

    def record(rnd: int) -> None:
        if not record_registers or not isinstance(agent, AgentProgram):
            return
        values = dict(agent.registers._values)
        for name, value in values.items():
            if snapshot.get(name) != value:
                run.register_events.append(RegisterEvent(rnd, name, value))
                snapshot[name] = value

    action = resolve_action(agent.start(tree.degree(pos)), tree.degree(pos))
    record(0)
    for rnd in range(1, max_rounds + 1):
        if isinstance(agent, AgentProgram) and agent.finished:
            run.finished = True
            break
        if action == STAY:
            obs = (NULL_PORT, tree.degree(pos))
        else:
            pos, in_port = tree.move(pos, action)
            obs = (in_port, tree.degree(pos))
        run.positions.append(pos)
        action = resolve_action(agent.step(*obs), tree.degree(pos))
        record(rnd)
    else:
        run.finished = isinstance(agent, AgentProgram) and agent.finished
    return run
