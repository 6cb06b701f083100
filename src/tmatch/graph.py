"""Exact-arithmetic graph representations.

Two containers live here: :class:`Graph` for the simple input graph of a
t-matching instance, and :class:`MultiGraph` for the auxiliary instance in
which gadget edges (including parallel ones) are allowed.  Both store
edges as plain ``(u, v, weight)`` tuples indexed by edge id.  ``Graph``
also lists each vertex's neighbours twice, as ``(neighbour, edge id)``
pairs in ``adj`` and as plain ids in ``nbrs``, in the same order;
detection searches ``nbrs`` and reads ``adj`` only for edge ids.

All weights are integers.  ``Graph`` stores every input weight multiplied
by two so that half-integral vertex potentials (for example the potentials
of a triangle with odd weight sums) remain machine integers everywhere.
"""

from __future__ import annotations

from .errors import InputFormatError, ValidationError


class Graph:
    """Simple undirected graph with bounded degree and doubled weights.

    Vertices are dense 0-based indices.  Edge ids are dense 0-based indices
    into :attr:`edges`.  Instances are immutable after construction and may
    be shared freely between threads.
    """

    __slots__ = ("n", "t", "edges", "adj", "nbrs", "_edge_index", "unweighted")

    def __init__(self, n: int, edges: list[tuple[int, int, int]], t: int):
        """Build a graph from ``(u, v, weight)`` triples.

        Weights are non-negative integers in input units.  Raises
        ``InputFormatError`` for an endpoint out of range, and
        ``ValidationError`` for loops, parallel edges, negative weights,
        degrees above ``t+1``, or ``t < 3``.

        ``adj[v]`` lists v's ``(neighbour, edge id)`` pairs in insertion
        order, and ``nbrs[v]`` the same neighbours as plain ids, which is
        what detection searches.
        """
        if t < 3:
            raise ValidationError(f"degree parameter t={t} is not supported; t must be >= 3")
        if n < 0:
            raise InputFormatError("vertex count must be non-negative")
        self.n = n
        self.t = t
        self.edges: list[tuple[int, int, int]] = []
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self.nbrs: list[list[int]] = [[] for _ in range(n)]
        self._edge_index: dict[tuple[int, int], int] = {}
        # Every weight is one (doubled: 2); the solve then takes the
        # cardinality track.
        self.unweighted = True
        (out, adj, nbrs, index) = (self.edges, self.adj, self.nbrs, self._edge_index)
        for (u, v, w) in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputFormatError(f"edge ({u},{v}) has an endpoint out of range")
            if u == v:
                raise ValidationError(f"loop at vertex {u} is not allowed")
            if w < 0:
                raise ValidationError(f"edge ({u},{v}) has negative weight")
            key = (u, v) if u < v else (v, u)
            if key in index:
                raise ValidationError(f"parallel edge ({u},{v}) is not allowed")
            eid = index[key] = len(out)
            out.append((key[0], key[1], 2 * w))
            adj[u].append((v, eid))
            adj[v].append((u, eid))
            nbrs[u].append(v)
            nbrs[v].append(u)
            self.unweighted = self.unweighted and w == 1
        for v in range(n):
            if len(adj[v]) > t + 1:
                raise ValidationError(
                    f"vertex {v} has degree {len(adj[v])}, exceeding t+1 = {t + 1}"
                )

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_id(self, u: int, v: int) -> int | None:
        """Edge id of (u, v), or None if the pair is not adjacent."""
        return self._edge_index.get((u, v) if u < v else (v, u))

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_id(u, v) is not None

    def weight_doubled(self, eid: int) -> int:
        return self.edges[eid][2]

    def total_weight_doubled(self) -> int:
        return sum(w for (_, _, w) in self.edges)


class MultiGraph:
    """Undirected multigraph; parallel edges allowed, weights may be negative.

    ``edges`` holds ``(u, v, w)`` tuples in id order and ``deg`` the
    number of edge ends at each vertex.  Edges carry no annotations: the
    auxiliary instance knows which edge is what from its edge ids.
    """

    __slots__ = ("n", "edges", "deg")

    def __init__(self, n: int):
        self.n = n
        self.edges: list[tuple[int, int, int]] = []
        self.deg: list[int] = [0] * n

    def add_vertex(self) -> int:
        self.deg.append(0)
        self.n += 1
        return self.n - 1

    def add_edge(self, u: int, v: int, w: int) -> int:
        if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
            raise InputFormatError(f"bad multigraph edge ({u},{v})")
        self.edges.append((u, v, w))
        self.deg[u] += 1
        self.deg[v] += 1
        return len(self.edges) - 1

    @property
    def m(self) -> int:
        return len(self.edges)

    def weights(self) -> list[int]:
        return [w for (_, _, w) in self.edges]


class CapacityVector:
    """Per-vertex degree interval [lower, upper] for (l,b)-matchings."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: list[int], upper: list[int]):
        if len(lower) != len(upper):
            raise InputFormatError("capacity vectors must have equal length")
        for v, (lo, hi) in enumerate(zip(lower, upper)):
            if lo < 0 or hi < lo:
                raise InputFormatError(f"bad capacity interval [{lo},{hi}] at vertex {v}")
        self.lower = lower
        self.upper = upper
