"""Port-labeled anonymous trees.

This module defines :class:`Tree`, the fundamental substrate of the whole
reproduction.  A tree in the sense of the paper is an undirected, connected,
acyclic graph whose nodes are *anonymous* (agents cannot read node names) but
whose edges carry *local port numbers*: the edges incident to a node ``v`` of
degree ``d`` are labeled with distinct ports ``0 .. d-1`` at ``v``.  Each
undirected edge ``{u, v}`` therefore has two independent port numbers, one at
``u`` and one at ``v`` (the paper's "port labeling is local").

Node identifiers ``0 .. n-1`` exist only for the benefit of the simulator and
the test-suite; agent code never observes them.

The representation is a tuple-of-tuples ``port_to_nbr`` where
``port_to_nbr[u][p]`` is the neighbor reached from ``u`` through port ``p``.
This single structure encodes both the topology and the port labeling, and it
is what every walk primitive consumes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from typing import Optional

from ..errors import InvalidPortError, InvalidTreeError

__all__ = ["Tree"]


class Tree:
    """An immutable port-labeled tree on nodes ``0 .. n-1``.

    Parameters
    ----------
    port_to_nbr:
        ``port_to_nbr[u][p]`` is the node reached from ``u`` via port ``p``.
        The length of ``port_to_nbr[u]`` is the degree of ``u``.
    validate:
        When true (the default) the constructor checks that the structure is
        a connected, acyclic, symmetric graph and that the implied port
        numbers are a permutation of ``0 .. deg-1`` at every node.

    Notes
    -----
    The structure is immutable: all mutating operations return new trees.
    Equality compares the *labeled* structure (same topology and same port
    labeling with identical node numbering); use
    :func:`repro.trees.automorphism.canonical_form` for isomorphism tests.
    """

    # __weakref__ lets caches (e.g. the solo-trace cache in
    # repro.sim.traced) key on trees without pinning them in memory.
    __slots__ = (
        "_port_to_nbr", "_nbr_to_port", "_n", "_hash", "_degrees", "_flat",
        "__weakref__",
    )

    def __init__(self, port_to_nbr: Sequence[Sequence[int]], *, validate: bool = True):
        self._port_to_nbr: tuple[tuple[int, ...], ...] = tuple(
            tuple(row) for row in port_to_nbr
        )
        self._n = len(self._port_to_nbr)
        self._hash: Optional[int] = None
        # Lazily-built caches.  Transformations (with_ports, renumber_nodes)
        # return new Tree objects, so each labeling carries its own tables.
        self._degrees: Optional[tuple[int, ...]] = None
        self._flat: Optional[tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = None
        # Reverse map: _nbr_to_port[u][v] == the port at u of edge {u, v}.
        self._nbr_to_port: tuple[dict[int, int], ...] = tuple(
            {v: p for p, v in enumerate(row)} for row in self._port_to_nbr
        )
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        ports: Optional[dict[tuple[int, int], int]] = None,
    ) -> "Tree":
        """Build a tree from an edge list.

        Parameters
        ----------
        n:
            Number of nodes.
        edges:
            Iterable of undirected edges ``(u, v)``.
        ports:
            Optional map from *directed* edge ``(u, v)`` to the port number
            of ``{u, v}`` at ``u``.  When omitted, ports are assigned at each
            node in the order edges are listed (a valid canonical labeling).
        """
        adj: list[list[int]] = [[] for _ in range(n)]
        edge_list = list(edges)
        if ports is None:
            for u, v in edge_list:
                adj[u].append(v)
                adj[v].append(u)
        else:
            deg: list[int] = [0] * n
            for u, v in edge_list:
                deg[u] += 1
                deg[v] += 1
            adj = [[-1] * deg[u] for u in range(n)]
            for u, v in edge_list:
                try:
                    pu = ports[(u, v)]
                    pv = ports[(v, u)]
                except KeyError as exc:  # pragma: no cover - defensive
                    raise InvalidPortError(
                        f"missing port assignment for edge {{{u}, {v}}}"
                    ) from exc
                if not (0 <= pu < deg[u]) or adj[u][pu] != -1:
                    raise InvalidPortError(
                        f"bad or duplicate port {pu} at node {u} (degree {deg[u]})"
                    )
                if not (0 <= pv < deg[v]) or adj[v][pv] != -1:
                    raise InvalidPortError(
                        f"bad or duplicate port {pv} at node {v} (degree {deg[v]})"
                    )
                adj[u][pu] = v
                adj[v][pv] = u
        return cls(adj)

    @classmethod
    def from_parent_array(cls, parents: Sequence[Optional[int]]) -> "Tree":
        """Build a tree from ``parents[i] = parent of i`` (root has ``None``).

        Ports are assigned in node order: canonical labeling.
        """
        n = len(parents)
        edges = [(i, p) for i, p in enumerate(parents) if p is not None]
        if len(edges) != n - 1:
            raise InvalidTreeError("parent array must define exactly n-1 edges")
        return cls.from_edges(n, edges)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n = self._n
        if n == 0:
            raise InvalidTreeError("a tree must have at least one node")
        edge_count = 0
        for u, row in enumerate(self._port_to_nbr):
            if len(set(row)) != len(row):
                raise InvalidTreeError(f"node {u} lists a neighbor twice")
            for p, v in enumerate(row):
                if not (0 <= v < n):
                    raise InvalidTreeError(f"node {u} port {p} points outside the tree")
                if v == u:
                    raise InvalidTreeError(f"self-loop at node {u}")
                if u not in self._nbr_to_port[v]:
                    raise InvalidTreeError(
                        f"edge {{{u}, {v}}} is not symmetric (missing at {v})"
                    )
                edge_count += 1
        if edge_count != 2 * (n - 1):
            raise InvalidTreeError(
                f"a tree on {n} nodes must have {n - 1} edges, "
                f"got {edge_count / 2:g}"
            )
        # Connectivity (acyclicity follows from edge count + connectivity).
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v in self._port_to_nbr[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    queue.append(v)
        if count != n:
            raise InvalidTreeError("graph is not connected")

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def num_edges(self) -> int:
        return self._n - 1

    def degree(self, u: int) -> int:
        return len(self._port_to_nbr[u])

    @property
    def degree_table(self) -> tuple[int, ...]:
        """Cached per-node degrees (built once per Tree object)."""
        if self._degrees is None:
            self._degrees = tuple(len(row) for row in self._port_to_nbr)
        return self._degrees

    def degrees(self) -> list[int]:
        return list(self.degree_table)

    def flat_move_tables(self) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Flat integer navigation tables ``(stride, deg, move_to, move_in)``.

        ``stride`` is the maximum degree; for a node ``u`` and port
        ``p < deg[u]``, ``move_to[u * stride + p]`` is the node reached and
        ``move_in[u * stride + p]`` is the entry port observed on arrival —
        the same pair :meth:`move` returns, but reachable by plain indexing
        with no bounds checks or dict lookups.  Unused slots hold ``-1``.
        Built once per Tree object and shared by the compiled simulation
        backend and any other hot consumer.
        """
        if self._flat is None:
            deg = self.degree_table
            stride = max(deg) if deg else 0
            move_to = [-1] * (self._n * max(stride, 1))
            move_in = [-1] * (self._n * max(stride, 1))
            for u, row in enumerate(self._port_to_nbr):
                base = u * stride
                rev = self._nbr_to_port
                for p, v in enumerate(row):
                    move_to[base + p] = v
                    move_in[base + p] = rev[v][u]
            self._flat = (stride, deg, tuple(move_to), tuple(move_in))
        return self._flat

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbors of ``u`` in port order."""
        return self._port_to_nbr[u]

    def leaves(self) -> list[int]:
        """All nodes of degree 1 (for n == 1, the single node)."""
        if self._n == 1:
            return [0]
        return [u for u in range(self._n) if len(self._port_to_nbr[u]) == 1]

    @property
    def num_leaves(self) -> int:
        return len(self.leaves())

    def is_leaf(self, u: int) -> bool:
        return self._n > 1 and len(self._port_to_nbr[u]) == 1

    def max_degree(self) -> int:
        return max(self.degree_table)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Undirected edges, each yielded once with ``u < v``."""
        for u, row in enumerate(self._port_to_nbr):
            for v in row:
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Navigation (the simulator's primitive)
    # ------------------------------------------------------------------
    def move(self, u: int, port: int) -> tuple[int, int]:
        """Traverse the edge leaving ``u`` through ``port``.

        Returns ``(v, in_port)`` where ``v`` is the node reached and
        ``in_port`` is the port of the traversed edge at ``v`` — exactly the
        observation an arriving agent reads.
        """
        row = self._port_to_nbr[u]
        if not (0 <= port < len(row)):
            raise InvalidPortError(f"port {port} out of range at node {u}")
        v = row[port]
        return v, self._nbr_to_port[v][u]

    def port(self, u: int, v: int) -> int:
        """The port number at ``u`` of edge ``{u, v}``."""
        try:
            return self._nbr_to_port[u][v]
        except KeyError as exc:
            raise InvalidPortError(f"{{{u}, {v}}} is not an edge") from exc

    # ------------------------------------------------------------------
    # Metric queries (simulator/test-suite side; not visible to agents)
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int) -> list[int]:
        dist = [-1] * self._n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._port_to_nbr[u]:
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def distance(self, u: int, v: int) -> int:
        return self.bfs_distances(u)[v]

    def path(self, u: int, v: int) -> list[int]:
        """The unique simple path from ``u`` to ``v`` (inclusive)."""
        parent: list[int] = [-2] * self._n
        parent[u] = -1
        queue = deque([u])
        while queue:
            w = queue.popleft()
            if w == v:
                break
            for x in self._port_to_nbr[w]:
                if parent[x] == -2:
                    parent[x] = w
                    queue.append(x)
        out = [v]
        while out[-1] != u:
            out.append(parent[out[-1]])
        out.reverse()
        return out

    def eccentricity(self, u: int) -> int:
        return max(self.bfs_distances(u))

    def diameter(self) -> int:
        far = max(range(self._n), key=lambda v: self.bfs_distances(0)[v])
        return self.eccentricity(far)

    def subtree_nodes(self, root: int, away_from: int) -> list[int]:
        """Nodes of the component of ``root`` after removing edge to ``away_from``."""
        seen = {root}
        queue = deque([root])
        while queue:
            w = queue.popleft()
            for x in self._port_to_nbr[w]:
                if x != away_from and x not in seen:
                    seen.add(x)
                    queue.append(x)
                elif x == away_from and w != root:
                    seen.add(x)  # pragma: no cover - unreachable in trees
        return sorted(seen)

    # ------------------------------------------------------------------
    # Relabeling / transformation
    # ------------------------------------------------------------------
    def with_ports(self, perms: Sequence[Sequence[int]]) -> "Tree":
        """Apply a per-node port permutation.

        ``perms[u]`` is a permutation of ``0 .. deg(u)-1``; the neighbor that
        used to sit on port ``p`` moves to port ``perms[u][p]``.
        """
        new_rows: list[list[int]] = []
        for u, row in enumerate(self._port_to_nbr):
            perm = perms[u]
            if sorted(perm) != list(range(len(row))):
                raise InvalidPortError(f"perms[{u}] is not a permutation of the ports")
            new_row = [-1] * len(row)
            for p, v in enumerate(row):
                new_row[perm[p]] = v
            new_rows.append(new_row)
        return Tree(new_rows, validate=False)

    def renumber_nodes(self, mapping: Sequence[int]) -> "Tree":
        """Renumber nodes: node ``u`` becomes ``mapping[u]`` (ports preserved)."""
        if sorted(mapping) != list(range(self._n)):
            raise InvalidTreeError("mapping is not a permutation of the nodes")
        new_rows: list[list[int]] = [[] for _ in range(self._n)]
        for u, row in enumerate(self._port_to_nbr):
            new_rows[mapping[u]] = [mapping[v] for v in row]
        return Tree(new_rows, validate=False)

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` with ``port`` edge attributes."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        for u, v in self.edges():
            g.add_edge(u, v, ports={u: self.port(u, v), v: self.port(v, u)})
        return g

    @classmethod
    def from_networkx(cls, g) -> "Tree":
        """Build from a networkx tree; ports follow adjacency order.

        Nodes are renumbered ``0 .. n-1`` in sorted order, so integer
        nodes keep their numeric order (node ``i`` of ``0 .. n-1`` stays
        node ``i``).  Nodes that do not compare with each other fall back
        to the order of their ``repr``, for determinism.
        """
        try:
            nodes = sorted(g.nodes())
        except TypeError:
            nodes = sorted(g.nodes(), key=repr)
        index = {v: i for i, v in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in g.edges()]
        return cls.from_edges(len(nodes), edges)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self._port_to_nbr == other._port_to_nbr

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._port_to_nbr)
        return self._hash

    def __repr__(self) -> str:
        return f"Tree(n={self._n}, leaves={self.num_leaves})"

    def debug_string(self) -> str:
        """Multi-line description listing every node's port map."""
        lines = [f"Tree on {self._n} nodes:"]
        for u, row in enumerate(self._port_to_nbr):
            ports = ", ".join(f"{p}->{v}" for p, v in enumerate(row))
            lines.append(f"  node {u} (deg {len(row)}): {ports}")
        return "\n".join(lines)
