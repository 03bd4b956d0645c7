"""Basic walks and counter basic walks (§2.2 of the paper).

The *basic walk* from ``v``: leave ``v`` by port 0 and, perpetually, upon
entering a degree-``d`` node by port ``i``, leave by port ``(i+1) mod d``.
In a tree this is an Euler tour of the doubled edges: after exactly
``2(n-1)`` steps it is back at ``v`` having traversed every edge once in each
direction.

The *counter basic walk* undoes it: leave by the port just used to enter, and
upon entering by port ``i`` leave by ``(i-1) mod d``.

Two structural facts this module exploits (and the tests verify):

- at a degree-2 node both rules reduce to "pass through" (``(i±1) mod 2 =
  1-i``), so a basic walk in T *projects onto* a basic walk in the
  contraction T' — the key to the paper's Explo-bis;
- during a basic walk, leaving through a port never traversed before always
  discovers a brand-new node (the walk is a DFS-like Euler tour), so the
  walk transcript determines the port-labeled tree exactly and *closure is
  detectable online* — this powers our Explo implementation
  (see DESIGN.md substitution #1).
"""

from __future__ import annotations

from typing import Optional

from ..errors import SimulationError
from ..records import TupleRecord, tuple_new
from .tree import Tree

__all__ = [
    "WalkStep",
    "basic_walk",
    "counter_basic_walk",
    "basic_walk_until_branching",
    "counter_basic_walk_until_branching",
    "basic_walk_first_hit",
    "TranscriptReconstructor",
]


class WalkStep(TupleRecord):
    """One step of a walk: the edge taken and the arrival observation."""

    __slots__ = ()

    def __new__(cls, from_node: int, out_port: int, to_node: int, in_port: int):
        return tuple_new(cls, (from_node, out_port, to_node, in_port))


def basic_walk(
    tree: Tree,
    start: int,
    steps: Optional[int] = None,
    *,
    start_port: int = 0,
) -> list[WalkStep]:
    """The basic walk from ``start``; default length ``2(n-1)`` (full closure).

    ``start_port`` generalizes the first exit port (the paper uses this when
    a walk resumes from a known port, e.g. re-entering the central path).
    """
    if steps is None:
        steps = 2 * (tree.n - 1)
    out: list[WalkStep] = []
    node = start
    port = start_port % max(tree.degree(start), 1)
    for _ in range(steps):
        nxt, in_port = tree.move(node, port)
        out.append(WalkStep(node, port, nxt, in_port))
        node = nxt
        port = (in_port + 1) % tree.degree(node)
    return out


def counter_basic_walk(
    tree: Tree,
    start: int,
    entry_port: int,
    steps: int,
) -> list[WalkStep]:
    """The counter basic walk: first exit by ``entry_port`` (the port through
    which the current node was entered), then ``(i-1) mod d`` forever."""
    out: list[WalkStep] = []
    node = start
    port = entry_port % max(tree.degree(start), 1)
    for _ in range(steps):
        nxt, in_port = tree.move(node, port)
        out.append(WalkStep(node, port, nxt, in_port))
        node = nxt
        port = (in_port - 1) % tree.degree(node)
    return out


def _walk_until_branching(
    tree: Tree,
    start: int,
    first_port: int,
    count: int,
    delta: int,
) -> list[WalkStep]:
    """Shared engine for bw(j)/cbw(j): stop after ``count`` arrivals at nodes
    of degree != 2 (arrivals counted with multiplicity, per the paper's
    'until j nodes of degree different from 2 have been visited')."""
    if count == 0:
        return []
    out: list[WalkStep] = []
    node = start
    port = first_port % max(tree.degree(start), 1)
    seen = 0
    guard = 0
    limit = 2 * tree.n * (count + 1) + 4  # generous; walks cannot stall
    while True:
        nxt, in_port = tree.move(node, port)
        out.append(WalkStep(node, port, nxt, in_port))
        node = nxt
        if tree.degree(node) != 2:
            seen += 1
            if seen >= count:
                return out
        port = (in_port + delta) % tree.degree(node)
        guard += 1
        if guard > limit:  # pragma: no cover - defensive
            raise SimulationError("branching-bounded walk failed to terminate")


def basic_walk_until_branching(
    tree: Tree, start: int, count: int, *, start_port: int = 0
) -> list[WalkStep]:
    """The paper's ``bw(j)``: basic walk until ``j`` branching-node arrivals."""
    return _walk_until_branching(tree, start, start_port, count, +1)


def counter_basic_walk_until_branching(
    tree: Tree, start: int, entry_port: int, count: int
) -> list[WalkStep]:
    """The paper's ``cbw(j)`` (counter basic walk, branching-bounded)."""
    return _walk_until_branching(tree, start, entry_port, count, -1)


def basic_walk_first_hit(tree: Tree, start: int, target: int) -> Optional[int]:
    """Minimum number of basic-walk steps from ``start`` to reach ``target``.

    ``None`` if the full closed walk (length ``2(n-1)``) never visits the
    target — impossible in a tree, but kept total for safety.
    """
    if start == target:
        return 0
    node, port = start, 0
    for k in range(1, 2 * (tree.n - 1) + 1):
        node, in_port = tree.move(node, port)
        if node == target:
            return k
        port = (in_port + 1) % tree.degree(node)
    return None  # pragma: no cover - a closed basic walk visits all nodes


class TranscriptReconstructor:
    """Online reconstruction of a port-labeled tree from a basic walk.

    Feed the observation of each step — ``(in_port, degree)`` of the node
    just entered — together with the known exit port.  Because an
    untraversed port always leads to an unvisited node, the partial tree is
    reconstructed exactly; :attr:`closed` flips to True precisely when the
    walk has completed the doubled-edge Euler tour (back at the start with
    every discovered port traversed).

    The reconstruction is *simulator bookkeeping* standing in for the
    O(log n)-memory automaton of Fact 2.1 (cf. DESIGN.md, substitution #1);
    agents built on top of it are charged the analytic memory cost, not the
    transcript size.
    """

    def __init__(self, start_degree: int) -> None:
        self._rows: list[list[int]] = [[-1] * start_degree]
        self._pos = 0
        self._steps = 0

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def num_nodes(self) -> int:
        return len(self._rows)

    @property
    def position(self) -> int:
        """Reconstructed index of the walker's current node (start = 0)."""
        return self._pos

    @property
    def closed(self) -> bool:
        """True once the walk provably returned to start having seen it all."""
        return (
            self._steps > 0
            and self._pos == 0
            and all(v != -1 for row in self._rows for v in row)
        )

    def feed(self, out_port: int, in_port: int, degree: int) -> None:
        """Record one step: left current node by ``out_port``, entered a node
        by ``in_port`` whose degree is ``degree``."""
        u = self._pos
        row = self._rows[u]
        if not (0 <= out_port < len(row)):
            raise SimulationError(f"reconstruction: bad out_port {out_port}")
        v = row[out_port]
        if v == -1:
            # Fresh edge => fresh node (DFS property of the basic walk).
            v = len(self._rows)
            self._rows.append([-1] * degree)
            row[out_port] = v
            self._rows[v][in_port] = u
        else:
            if self._rows[v][in_port] != u or len(self._rows[v]) != degree:
                raise SimulationError("reconstruction: inconsistent transcript")
        self._pos = v
        self._steps += 1

    def tree(self) -> Tree:
        """The reconstructed tree (only valid once :attr:`closed`)."""
        if not self.closed:
            raise SimulationError("walk transcript is not closed yet")
        return Tree(self._rows)
