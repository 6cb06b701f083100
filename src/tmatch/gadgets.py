"""Construction of the auxiliary degree-constrained matching instance.

Every problematic forbidden subgraph (and every dense cluster whose
center potential is non-negative) is augmented with a small gadget built
from half-edges: new hub vertices adjacent to the subgraph's vertices,
with exact capacity intervals that force the eventual matching to "cut"
the subgraph.  A half-edge incident to original vertex v carries v's
potential as its weight; all other gadget edges weigh zero.
"""

from __future__ import annotations

from .detect import BICLIQUE, CLIQUE, DENSE, PARTITE, ForbiddenSubgraph
from .errors import InternalError
from .graph import GADGET_INTERNAL, HALF_EDGE, ORIGINAL, CapacityVector, Graph, MultiGraph
from .potentials import PotentialFunction


class GadgetInfo:
    """Bookkeeping for one attached gadget.

    ``hubs`` are the per-class subdivision vertices (a single entry for a
    clique gadget), ``collector`` the degree-(p-2) or (p-k) aggregation
    vertex of partite/dense gadgets, ``center_hub``/``center`` the doubled
    attachment of a dense cluster.  ``half_edges`` maps each hub to the
    list of (edge_id, original_vertex) half-edges it carries.
    """

    __slots__ = (
        "kind", "subgraph_id", "hubs", "collector", "center_hub", "center",
        "half_edges", "internal_edges",
    )

    def __init__(
        self,
        kind: str,
        subgraph_id: int,
        hubs: list[int] | None = None,
        collector: int = -1,
        center_hub: int = -1,
        center: int = -1,
        half_edges: dict[int, list[tuple[int, int]]] | None = None,
        internal_edges: list[int] | None = None,
    ):
        self.kind = kind
        self.subgraph_id = subgraph_id
        self.hubs = [] if hubs is None else hubs
        self.collector = collector
        self.center_hub = center_hub
        self.center = center
        self.half_edges = {} if half_edges is None else half_edges
        self.internal_edges = [] if internal_edges is None else internal_edges


class AuxiliaryInstance:
    """The auxiliary multigraph with capacities and gadget provenance.

    ``records`` is the classified detection output it was built from; a
    record's id is its index there.
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

    def original_edge_ids(self, selected: list[int]) -> list[int]:
        out = []
        for eid in selected:
            tag = self.graph.edges[eid].tag
            if tag[0] == ORIGINAL:
                out.append(tag[1])
        return out


def _add_half(mg: MultiGraph, gid_edges, hub: int, v: int, w: int, gidx: int) -> int:
    eid = mg.add_edge(hub, v, w, (HALF_EDGE, gidx, v))
    gid_edges.setdefault(hub, []).append((eid, v))
    return eid


def build_auxiliary(
    g: Graph,
    records: list[ForbiddenSubgraph],
    potentials: dict[int, PotentialFunction],
) -> AuxiliaryInstance:
    """Steps one and two of the solve: build (G', w', l, b).

    ``records`` is the classified detection output; gadgets are attached
    to every problematic clique/biclique/partite record and every dense
    cluster whose minimum-potential core vertex is non-negative.
    ``potentials`` must contain an entry for each such record.
    """
    mg = MultiGraph(g.n)
    for (u, v, w) in g.edges:
        mg.add_edge(u, v, w, (ORIGINAL, g.edge_id(u, v)))

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
        if r.kind == DENSE:
            pf = potentials.get(r.id)
            if pf is None:
                raise InternalError(f"missing potentials for dense cluster {r.id}")
            if min(pf.value(v) for v in r.core) >= 0:
                targets.append(r)
        elif r.problematic:
            targets.append(r)

    gadgets: list[GadgetInfo] = []
    for r in targets:
        pf = potentials.get(r.id)
        if pf is None:
            raise InternalError(f"missing potentials for record {r.id}")
        gidx = len(gadgets)
        info = GadgetInfo(kind=r.kind, subgraph_id=r.id)
        if r.kind == CLIQUE:
            hub = mg.add_vertex()
            lower.append(2)
            upper.append(2)
            info.hubs = [hub]
            for v in r.vertices:
                _add_half(mg, info.half_edges, hub, v, pf.value(v), gidx)
        elif r.kind == BICLIQUE:
            for cls in r.classes:
                hub = mg.add_vertex()
                lower.append(1)
                upper.append(1)
                info.hubs.append(hub)
                for v in cls:
                    _add_half(mg, info.half_edges, hub, v, pf.value(v), gidx)
        elif r.kind == PARTITE:
            p = len(r.classes)
            collector = mg.add_vertex()
            lower.append(p - 2)
            upper.append(p - 2)
            info.collector = collector
            for cls in r.classes:
                hub = mg.add_vertex()
                lower.append(1)
                upper.append(1)
                info.hubs.append(hub)
                for v in cls:
                    _add_half(mg, info.half_edges, hub, v, pf.value(v), gidx)
                info.internal_edges.append(
                    mg.add_edge(hub, collector, 0, (GADGET_INTERNAL, gidx))
                )
        elif r.kind == DENSE:
            # Gadget shape is driven by the classes of any member that are
            # disjoint from the core; the core itself hangs off one doubled
            # hub at its minimum-potential vertex.
            core = set(r.core)
            outside_classes = _outside_classes(r, records, core)
            center = min(r.core, key=lambda v: (pf.value(v), v))
            info.center = center
            # Collector degree p - k, with k = |core|/2: one per outside class.
            collector = mg.add_vertex()
            lower.append(len(outside_classes))
            upper.append(len(outside_classes))
            info.collector = collector
            center_hub = mg.add_vertex()
            lower.append(2)
            upper.append(2)
            info.center_hub = center_hub
            for _ in range(2):
                _add_half(mg, info.half_edges, center_hub, center, pf.value(center), gidx)
                info.internal_edges.append(
                    mg.add_edge(center_hub, collector, 0, (GADGET_INTERNAL, gidx))
                )
            for cls in outside_classes:
                hub = mg.add_vertex()
                lower.append(1)
                upper.append(1)
                info.hubs.append(hub)
                for v in cls:
                    _add_half(mg, info.half_edges, hub, v, pf.value(v), gidx)
                info.internal_edges.append(
                    mg.add_edge(hub, collector, 0, (GADGET_INTERNAL, gidx))
                )
        else:
            raise InternalError(f"cannot build a gadget for kind {r.kind}")
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
