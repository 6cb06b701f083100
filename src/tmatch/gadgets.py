"""Construction of the auxiliary degree-constrained matching instance.

Every problematic forbidden subgraph (and every dense cluster whose
center potential is non-negative) gets a gadget of one shape, read from
the subgraph's classes: a hub per class, joined by a half-edge to each
vertex of the class, and a collector that takes every hub slot but two.
All their capacity intervals are exact, so the matching picks exactly
two half-edges and thereby "cuts" the subgraph.  A clique's singleton
classes share one hub of capacity 2, and a dense cluster's core is one
doubled hub at its center.  A half-edge incident to original vertex v
carries v's potential as its weight; all other gadget edges weigh zero.
"""

from __future__ import annotations

from .detect import CLIQUE, DENSE, ForbiddenSubgraph
from .errors import InternalError
from .graph import CapacityVector, Graph, MultiGraph


class GadgetInfo:
    """Bookkeeping for one attached gadget.

    ``collector`` is the vertex that takes every hub slot but two (-1
    when the hubs hold only two), ``center_hub``/``center`` the doubled
    attachment of a dense cluster.  ``half_edges`` maps each hub to the
    list of (edge_id, original_vertex) half-edges it carries, and
    ``internal_edges`` lists the ids of the weight-0 hub-collector links,
    one per hub slot.  Together they name every auxiliary edge of the
    gadget.
    """

    __slots__ = (
        "kind", "subgraph_id", "collector", "center_hub", "center",
        "half_edges", "internal_edges",
    )

    def __init__(self, kind: str, subgraph_id: int):
        self.kind = kind
        self.subgraph_id = subgraph_id
        self.collector = -1
        self.center_hub = -1
        self.center = -1
        self.half_edges: dict[int, list[tuple[int, int]]] = {}
        self.internal_edges: list[int] = []


class AuxiliaryInstance:
    """The auxiliary multigraph with capacities and gadget provenance.

    The first ``original.m`` edges of ``graph`` are the input edges, with
    the same ids; every later edge belongs to one gadget and is listed in
    its :class:`GadgetInfo`.  ``records`` is the classified detection
    output it was built from; a record's id is its index there.
    """

    __slots__ = ("graph", "capacities", "gadgets", "original", "records")

    def __init__(
        self,
        graph: MultiGraph,
        capacities: CapacityVector,
        gadgets: list[GadgetInfo],
        original: Graph,
        records: list[ForbiddenSubgraph],
    ):
        self.graph = graph
        self.capacities = capacities
        self.gadgets = gadgets
        self.original = original
        self.records = records


def build_auxiliary(
    g: Graph,
    records: list[ForbiddenSubgraph],
    potentials: dict[int, dict[int, int]],
) -> AuxiliaryInstance:
    """Steps one and two of the solve: build (G', w', l, b).

    ``records`` is the classified detection output; gadgets are attached
    to every problematic clique/biclique/partite record and every dense
    cluster whose minimum-potential core vertex is non-negative.
    ``potentials`` must contain an entry for each such record and each
    dense cluster.
    """
    mg = MultiGraph(g.n)
    for (u, v, w) in g.edges:
        mg.add_edge(u, v, w)

    lower = [0] * g.n
    upper = [0] * g.n
    for v in range(g.n):
        if g.degree(v) == g.t + 1:
            lower[v], upper[v] = 1, g.t + 1
        else:
            lower[v], upper[v] = 0, g.degree(v)

    # Targets are disjoint: classify_problematic checks that every
    # problematic record and dense cluster is.
    targets = []
    for r in records:
        if r.kind == DENSE or r.problematic:
            pf = potentials.get(r.id)
            if pf is None:
                raise InternalError(f"missing potentials for record {r.id}")
            if r.kind != DENSE or min(pf[v] for v in r.core) >= 0:
                targets.append((r, pf))

    gadgets: list[GadgetInfo] = []
    for (r, pf) in targets:
        info = GadgetInfo(r.kind, r.id)
        # Hub groups (capacity, vertices).  A dense cluster's other hubs
        # are the classes of a member that lie outside its core.
        if r.kind == CLIQUE:
            groups = [(2, r.vertices)]
        elif r.kind == DENSE:
            info.center = min(r.core, key=lambda v: (pf[v], v))
            groups = [(2, (info.center, info.center))]
            groups += [(1, c) for c in _outside_classes(r, records, set(r.core))]
        else:
            groups = [(1, c) for c in r.classes]
        slots = sum(cap for (cap, _) in groups) - 2
        if slots > 0:
            info.collector = mg.add_vertex()
            lower.append(slots)
            upper.append(slots)
        for (cap, vertices) in groups:
            hub = mg.add_vertex()
            lower.append(cap)
            upper.append(cap)
            info.half_edges[hub] = [(mg.add_edge(hub, v, pf[v]), v) for v in vertices]
            if slots > 0:
                info.internal_edges += [mg.add_edge(hub, info.collector, 0) for _ in range(cap)]
        if r.kind == DENSE:
            info.center_hub = next(iter(info.half_edges))
        gadgets.append(info)

    cap = CapacityVector(lower, upper)
    return AuxiliaryInstance(mg, cap, gadgets, g, records)


def _outside_classes(
    r: ForbiddenSubgraph, records: list[ForbiddenSubgraph], core: set[int]
):
    member = records[r.member_ids[0]]
    outside = [list(c) for c in member.classes if not core.issuperset(c)]
    for c in outside:
        if any(x in core for x in c):
            raise InternalError("member class straddles the dense core")
    return outside


def gadget_stats(aux: AuxiliaryInstance) -> dict[str, int]:
    """Added vertex/edge counts and the capacity mass of the instance."""
    added_vertices = aux.graph.n - aux.original.n
    added_edges = aux.graph.m - aux.original.m
    return {
        "added_vertices": added_vertices,
        "added_edges": added_edges,
        "sum_b": sum(aux.capacities.upper),
        "gadgets": len(aux.gadgets),
    }
