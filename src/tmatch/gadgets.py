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
from .graph import CapacityVector, Graph, MultiGraph


class GadgetInfo:
    """Bookkeeping for one attached gadget.

    ``collector`` is the degree-(p-2) or (p-k) aggregation vertex of
    partite/dense gadgets, ``center_hub``/``center`` the doubled
    attachment of a dense cluster.  ``half_edges`` maps each hub (a
    clique's one hub, a per-class subdivision vertex, or the center hub)
    to the list of (edge_id, original_vertex) half-edges it carries, and
    ``internal_edges`` lists the ids of the weight-0 hub-collector links.
    Together they name every auxiliary edge of the gadget.
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


def _add_half(mg: MultiGraph, gid_edges, hub: int, v: int, w: int) -> None:
    gid_edges.setdefault(hub, []).append((mg.add_edge(hub, v, w), v))


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
        if r.kind == CLIQUE:
            hub = mg.add_vertex()
            lower.append(2)
            upper.append(2)
            for v in r.vertices:
                _add_half(mg, info.half_edges, hub, v, pf[v])
        elif r.kind == BICLIQUE:
            for cls in r.classes:
                hub = mg.add_vertex()
                lower.append(1)
                upper.append(1)
                for v in cls:
                    _add_half(mg, info.half_edges, hub, v, pf[v])
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
                for v in cls:
                    _add_half(mg, info.half_edges, hub, v, pf[v])
                info.internal_edges.append(mg.add_edge(hub, collector, 0))
        elif r.kind == DENSE:
            # Gadget shape is driven by the classes of any member that are
            # disjoint from the core; the core itself hangs off one doubled
            # hub at its minimum-potential vertex.
            core = set(r.core)
            outside_classes = _outside_classes(r, records, core)
            center = min(r.core, key=lambda v: (pf[v], v))
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
                _add_half(mg, info.half_edges, center_hub, center, pf[center])
                info.internal_edges.append(mg.add_edge(center_hub, collector, 0))
            for cls in outside_classes:
                hub = mg.add_vertex()
                lower.append(1)
                upper.append(1)
                for v in cls:
                    _add_half(mg, info.half_edges, hub, v, pf[v])
                info.internal_edges.append(mg.add_edge(hub, collector, 0))
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
