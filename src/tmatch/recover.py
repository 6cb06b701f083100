"""Back-translation of the auxiliary matching and local repair.

The auxiliary solve returns a degree-constrained matching whose half-edge
pairs stand for edges of the input graph.  This module rebuilds the
corresponding small edge set (the complement of the final t-matching),
restores coverage of subgraphs that were left without gadgets by weight-
neutral local flips, complements, and certifies the answer.
"""

from __future__ import annotations

from .detect import BICLIQUE, CLIQUE, DENSE, ForbiddenSubgraph
from .errors import InternalError
from .gadgets import AuxiliaryInstance
from .graph import Graph
from .lb import LbMatching


class SolveResult:
    """Final answer: the t-matching, its complement, and diagnostics."""

    __slots__ = ("tmatching", "cotmatching", "weight_doubled", "diagnostics", "stats")

    def __init__(
        self,
        tmatching: list[int],
        cotmatching: list[int],
        weight_doubled: int,
        diagnostics: list[dict] | None = None,
        stats: dict | None = None,
    ):
        self.tmatching = tmatching
        self.cotmatching = cotmatching
        self.weight_doubled = weight_doubled
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.stats = {} if stats is None else stats

    @property
    def weight(self) -> int:
        return self.weight_doubled // 2


class CoTMatching:
    """Mutable set of original edge ids forming a co-t-matching."""

    def __init__(self, g: Graph, edge_ids=()):
        self.g = g
        self.ids: set[int] = set(edge_ids)

    def add_pair(self, u: int, v: int) -> None:
        eid = self.g.edge_id(u, v)
        if eid is None:
            raise InternalError(f"tried to add nonexistent edge ({u},{v})")
        self.ids.add(eid)

    def remove_pair(self, u: int, v: int) -> None:
        eid = self.g.edge_id(u, v)
        if eid is None or eid not in self.ids:
            raise InternalError(f"tried to remove absent edge ({u},{v})")
        self.ids.remove(eid)

    def degree(self, v: int) -> int:
        return sum(1 for (_, eid) in self.g.adj[v] if eid in self.ids)

    def weight_doubled(self) -> int:
        return sum(self.g.weight_doubled(e) for e in self.ids)

    def covers(self, h: ForbiddenSubgraph) -> bool:
        return not self.ids.isdisjoint(h.edge_ids)

    def is_cotmatching(self) -> bool:
        return all(
            self.degree(v) >= 1 for v in range(self.g.n) if self.g.degree(v) == self.g.t + 1
        )


def matching_to_cotmatching(
    aux: AuxiliaryInstance, m: LbMatching, diagnostics: list[dict] | None = None
) -> CoTMatching:
    """Translate an auxiliary (l,b)-matching into a co-t-matching.

    Original edges (the first ``g.m`` auxiliary ids) carry over; each
    gadget contributes the edge its two chosen half-edges stand for.
    Dense gadgets need the full case split: when both chosen half-edges
    sit on the cluster center, either an edge inside the core is split
    through the center or two core-boundary edges are rewired through it.
    """
    g = aux.original
    chosen = set(m.edge_ids)
    original = [eid for eid in m.edge_ids if eid < g.m]
    cot = CoTMatching(g, original)
    diags = diagnostics if diagnostics is not None else []

    for info in aux.gadgets:
        # (edge id, original endpoint) of the selected half-edges.
        halves = []
        for hub, pairs in info.half_edges.items():
            for (eid, v) in pairs:
                if eid in chosen:
                    halves.append((eid, v))
        if len(halves) != 2:
            raise InternalError(
                f"gadget {info.subgraph_id} holds {len(halves)} half-edges, wanted 2"
            )
        (e1, a), (e2, b) = halves
        if info.kind != DENSE:
            if a == b:
                raise InternalError("half-edge pair collapsed onto one vertex")
            cot.add_pair(a, b)
            continue
        # Dense cluster.
        if a != b:
            cot.add_pair(a, b)
            diags.append({"gadget": info.subgraph_id, "rule": "dense-boundary-pair"})
            continue
        center = info.center
        if a != center:
            raise InternalError("doubled half-edges must sit on the cluster center")
        core = set(aux.records[info.subgraph_id].core)
        rest = core - {center}
        inner = [
            eid for eid in original if g.edges[eid][0] in rest and g.edges[eid][1] in rest
        ]
        if inner:
            (x, y, _) = g.edges[min(inner)]
            cot.remove_pair(x, y)
            cot.add_pair(center, x)
            cot.add_pair(center, y)
            diags.append({"gadget": info.subgraph_id, "rule": "dense-core-split"})
            continue
        boundary = []
        for eid in original:
            (x, y, _) = g.edges[eid]
            for (c, o) in ((x, y), (y, x)):
                if c in rest and o not in core:
                    boundary.append((c, o))
        if len(boundary) < 2:
            raise InternalError("dense rewiring needs two core-boundary edges")
        boundary.sort()
        (v1, u1) = boundary[0]
        (v2, u2) = next(
            ((c, o) for (c, o) in boundary[1:] if c != boundary[0][0]),
            (-1, -1),
        )
        if v2 < 0:
            raise InternalError("dense rewiring needs boundary edges at two core vertices")
        cot.remove_pair(v1, u1)
        cot.remove_pair(v2, u2)
        cot.add_pair(v1, v2)
        cot.add_pair(center, u1)
        cot.add_pair(center, u2)
        diags.append({"gadget": info.subgraph_id, "rule": "dense-rewire"})

    if not cot.is_cotmatching():
        raise InternalError("translation lost coverage of a full-degree vertex")
    return cot


def cover_unproblematic(
    g: Graph,
    cot: CoTMatching,
    records: list[ForbiddenSubgraph],
    neighbors: list[list[int]],
    diagnostics: list[dict] | None = None,
) -> CoTMatching:
    """Repair coverage of gadget-less subgraphs by weight-neutral flips.

    Every uncovered subgraph here is unproblematic, so it has a partner of
    at least its weight sharing a vertex; one of two local exchanges (shift
    one complement edge at a shared vertex, or swap two crossing edges at a
    shared square) moves coverage onto it without increasing total weight
    or breaking the degree property.  Iterates until everything is covered.
    """
    diags = diagnostics if diagnostics is not None else []
    plain = [r for r in records if r.kind != DENSE]
    for _ in range(len(plain) + 1):
        uncovered = [r for r in plain if not cot.covers(r)]
        if not uncovered:
            return cot
        for h in uncovered:
            if cot.covers(h):
                continue
            if h.in_dense >= 0:
                raise InternalError(
                    "a dense-cluster member is uncovered: its cluster's gadget, "
                    "or the minimum solve where the cluster has none, must cover it"
                )
            before = cot.weight_doubled()
            _repair_one(g, cot, h, records, neighbors, diags)
            if cot.weight_doubled() > before:
                raise InternalError("repair flip increased the weight")
            if not cot.is_cotmatching():
                raise InternalError("repair flip broke the degree property")
    raise InternalError("repair loop failed to terminate")


def _repair_one(g, cot, h, records, neighbors, diags) -> None:
    partners = sorted((records[j] for j in neighbors[h.id]), key=lambda r: r.id)
    if h.kind == CLIQUE:
        for other in partners:
            if other.kind == BICLIQUE:
                _flip_cross(cot, h, other, "clique-biclique-exchange", diags)
                return
    for other in partners:
        if other.kind == h.kind and h.weight <= other.weight:
            shared = set(h.vertices) & set(other.vertices)
            if h.kind == BICLIQUE and len(shared) == 2 * g.t - 2:
                _flip_cross(cot, h, other, "biclique-exchange", diags)
            else:
                _flip_shift(g, cot, h, other, diags)
            return
    raise InternalError(f"no eligible repair partner for record {h.id}")


def _flip_cross(cot, h, other, rule, diags) -> None:
    # ``other`` is a biclique sharing a square with h (a clique inside it
    # at t = 3, or a biclique meeting it in t-1 vertices per side): exchange
    # the two crossing edges at the square for one edge inside h and one
    # between other's private vertices.
    hv = set(h.vertices)
    o1, o2 = other.classes
    u1 = min(v for v in o1 if v not in hv)
    u2 = min(v for v in o2 if v not in hv)
    v1 = min(v for v in o1 if v in hv)
    v2 = min(v for v in o2 if v in hv)
    cot.remove_pair(v1, u2)
    cot.remove_pair(v2, u1)
    cot.add_pair(v1, v2)
    cot.add_pair(u1, u2)
    diags.append({"subgraph": h.id, "rule": rule, "partner": other.id})


def _flip_shift(g, cot, h, other, diags) -> None:
    # Move one complement edge from the partner's private vertex to h's:
    # pick the first shared vertex outside u's class (h has no classes if
    # it is a clique) whose edge toward u is no heavier than the partner's
    # edge it replaces.
    hv, ov = set(h.vertices), set(other.vertices)
    u = min(hv - ov)
    up = min(ov - hv)
    own = next((c for c in h.classes if u in c), ())
    for z in sorted(hv & ov):
        if z in own:
            continue
        if g.weight_doubled(g.edge_id(u, z)) <= g.weight_doubled(g.edge_id(up, z)):
            cot.remove_pair(up, z)
            cot.add_pair(u, z)
            diags.append({"subgraph": h.id, "rule": f"{h.kind}-shift", "partner": other.id})
            return
    raise InternalError("weight comparison promised a shiftable shared vertex")


def verify_solution(
    g: Graph, records: list[ForbiddenSubgraph], result: SolveResult
) -> tuple[bool, str]:
    """Certify the final edge set: degree at most t everywhere, and every
    forbidden subgraph misses at least one edge.  Returns (ok, detail)."""
    chosen = set(result.tmatching)
    deg = [0] * g.n
    for eid in chosen:
        (u, v, _) = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
    for v in range(g.n):
        if deg[v] > g.t:
            return False, f"vertex {v} has degree {deg[v]} > t"
    for r in records:
        if r.kind == DENSE:
            continue
        if chosen.issuperset(r.edge_ids):
            return False, f"forbidden subgraph {r.id} ({r.kind}) fully included"
    return True, "certificate: degrees within t and every forbidden subgraph cut"


def finalize(
    g: Graph,
    cot: CoTMatching,
    records: list[ForbiddenSubgraph],
    diagnostics: list[dict],
    stats: dict,
) -> SolveResult:
    """Complement the covering co-t-matching and verify the answer."""
    all_ids = set(range(g.m))
    tmatch = sorted(all_ids - cot.ids)
    weight = g.total_weight_doubled() - cot.weight_doubled()
    result = SolveResult(
        tmatching=tmatch,
        cotmatching=sorted(cot.ids),
        weight_doubled=weight,
        diagnostics=diagnostics,
        stats=stats,
    )
    ok, detail = verify_solution(g, records, result)
    if not ok:
        raise InternalError(f"final verification failed: {detail}")
    result.stats["verification"] = detail
    return result
