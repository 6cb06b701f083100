"""Degree-interval constrained matchings on multigraphs.

A subset M of edges is an (l,b)-matching when every vertex v is incident
to between lower[v] and upper[v] of its edges.  Minimum/maximum weight
and minimum cardinality solves all reduce to one maximum weight perfect
matching through a two-stage expansion:

* the instance is doubled, the two copies of each vertex joined by
  upper-lower length-3 paths whose middle edge weighs 2W and outer edges
  W (W = the largest weight magnitude), turning intervals into exact
  degrees;
* each vertex of the doubled graph is split into one external vertex per
  incident edge plus degree-minus-bound internal vertices joined to all
  externals by weight-2W edges, turning exact degrees into a perfect
  matching instance.

Cardinality objectives ride on the same chain with unit weights; minimum
cardinality additionally uses the standard auxiliary-vertex complement
construction so a maximum cardinality solve answers it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blossom import (
    MAX_ENGINE_VERTICES,
    MatchingCertificate,
    maximum_weight_perfect_matching,
)
from .errors import InfeasibleError, InstanceTooLargeError, InternalError
from .gadgets import AuxiliaryInstance
from .graph import ORIGINAL, CapacityVector, MultiGraph

AUX_TAG = "aux"
CARRY_TAG = "carry"


@dataclass
class ExpandedInstance:
    """Size record of the doubled and split graphs (diagnostics only)."""

    weight_bound: int
    star_vertices: int
    star_edges: int
    added_paths: int
    hat_vertices: int
    hat_edges: int


@dataclass
class LbMatching:
    """A feasible (l,b)-matching with its engine certificate."""

    edge_ids: list[int]
    degrees: list[int]
    weight: int
    certificate: MatchingCertificate
    expanded: ExpandedInstance

    @property
    def cardinality(self) -> int:
        return len(self.edge_ids)


def _normalize(mg: MultiGraph, cap: CapacityVector) -> tuple[list[int], list[int]]:
    degs = [mg.degree(v) for v in range(mg.n)]
    lower = list(cap.lower)
    upper = [min(cap.upper[v], degs[v]) for v in range(mg.n)]
    for v in range(mg.n):
        if lower[v] > upper[v]:
            raise InfeasibleError(
                f"vertex {v} needs {lower[v]} incident edges but at most {upper[v]} fit"
            )
    return lower, upper


def solve_lb(
    mg: MultiGraph,
    cap: CapacityVector,
    weights: list[int],
    *,
    maximize: bool,
    verify: bool = True,
) -> LbMatching:
    """Optimal-weight (l,b)-matching via the expansion chain.

    ``weights`` may be any integers (they override the multigraph's own
    edge weights, which lets callers apply objective transforms).  Raises
    InfeasibleError when no (l,b)-matching exists.
    """
    lower, upper = _normalize(mg, cap)
    sign = 1 if maximize else -1
    w_eff = [sign * w for w in weights]
    big = max((abs(w) for w in w_eff), default=0)

    # Edges at a zero-capacity vertex can never be matched; dropping them
    # lowers effective degrees, which may cascade into further clamping.
    keep = [True] * mg.m
    while True:
        deg_eff = [0] * mg.n
        for eid, e in enumerate(mg.edges):
            if keep[eid]:
                deg_eff[e.u] += 1
                deg_eff[e.v] += 1
        changed = False
        for v in range(mg.n):
            if upper[v] > deg_eff[v]:
                upper[v] = deg_eff[v]
                changed = True
            if lower[v] > upper[v]:
                raise InfeasibleError(
                    f"vertex {v} needs {lower[v]} incident edges but only "
                    f"{upper[v]} can be matched"
                )
        for eid, e in enumerate(mg.edges):
            if keep[eid] and (upper[e.u] == 0 or upper[e.v] == 0):
                keep[eid] = False
                changed = True
        if not changed:
            break

    # --- doubled graph: vertices become (copy, v); paths add two centrals.
    star_id: dict[tuple, int] = {}

    def sid(key: tuple) -> int:
        if key not in star_id:
            star_id[key] = len(star_id)
        return star_id[key]

    star_edges: list[tuple[int, int, int, tuple]] = []
    for copy in (0, 1):
        for eid, e in enumerate(mg.edges):
            if not keep[eid]:
                continue
            star_edges.append(
                (sid((copy, e.u)), sid((copy, e.v)), w_eff[eid], ("copy", copy, eid))
            )
    n_paths = 0
    for v in range(mg.n):
        for j in range(upper[v] - lower[v]):
            x = sid(("path", v, j, 0))
            y = sid(("path", v, j, 1))
            star_edges.append((sid((0, v)), x, big, ("outer", v, j, 0)))
            star_edges.append((x, y, 2 * big, ("middle", v, j)))
            star_edges.append((y, sid((1, v)), big, ("outer", v, j, 1)))
            n_paths += 1

    n_star = len(star_id)
    bound = [0] * n_star
    for key, x in star_id.items():
        bound[x] = upper[key[1]] if key[0] in (0, 1) else 1
    star_deg = [0] * n_star
    for (x, y, _, _) in star_edges:
        star_deg[x] += 1
        star_deg[y] += 1

    # --- split graph: externals per edge slot, internals per slack unit.
    n_internal = [star_deg[x] - bound[x] for x in range(n_star)]
    for x in range(n_star):
        if n_internal[x] < 0:
            raise InfeasibleError(
                f"exact degree {bound[x]} unreachable at an expansion vertex"
            )
    size = 2 * len(star_edges) + sum(n_internal)
    if size > MAX_ENGINE_VERTICES:
        raise InstanceTooLargeError(
            f"lb expansion needs {size} matching vertices "
            f"({n_star} doubled vertices, {len(star_edges)} doubled edges); "
            f"the matching engine is gated at {MAX_ENGINE_VERTICES}"
        )
    n_hat = 0
    ext_of_vertex: list[list[int]] = [[] for _ in range(n_star)]
    hat_edges: list[tuple[int, int, int]] = []
    edge_ext: list[tuple[int, int]] = []
    for (x, y, w, _) in star_edges:
        ex = n_hat
        ey = n_hat + 1
        n_hat += 2
        ext_of_vertex[x].append(ex)
        ext_of_vertex[y].append(ey)
        edge_ext.append((ex, ey))
        hat_edges.append((ex, ey, w))
    for x in range(n_star):
        for _ in range(n_internal[x]):
            iv = n_hat
            n_hat += 1
            for ev in ext_of_vertex[x]:
                hat_edges.append((iv, ev, 2 * big))

    expanded = ExpandedInstance(
        weight_bound=big,
        star_vertices=n_star,
        star_edges=len(star_edges),
        added_paths=n_paths,
        hat_vertices=n_hat,
        hat_edges=len(hat_edges),
    )

    mate, _, cert = maximum_weight_perfect_matching(n_hat, hat_edges, verify=verify)

    picked: list[list[int]] = [[], []]
    for se, (x, y, w, origin) in enumerate(star_edges):
        if origin[0] != "copy":
            continue
        (ex, ey) = edge_ext[se]
        if mate[ex] == ey:
            picked[origin[1]].append(origin[2])

    w0 = sum(w_eff[e] for e in picked[0])
    w1 = sum(w_eff[e] for e in picked[1])
    if w0 != w1:
        raise InternalError("the two expansion copies disagree on the optimum")

    degrees = [0] * mg.n
    for e in picked[0]:
        degrees[mg.edges[e].u] += 1
        degrees[mg.edges[e].v] += 1
    for v in range(mg.n):
        if not (lower[v] <= degrees[v] <= upper[v]):
            raise InternalError(f"capacity violated at vertex {v} after expansion solve")

    return LbMatching(
        edge_ids=sorted(picked[0]),
        degrees=degrees,
        weight=sum(weights[e] for e in picked[0]),
        certificate=cert,
        expanded=expanded,
    )


def _tightened_upper(
    mg: MultiGraph, lower: list[int], upper: list[int], costs: list[int]
) -> CapacityVector:
    """Shrink upper bounds without changing the set of minimum-cost optima.

    Valid only for minimization with no zero-cost edges: in any optimal
    solution an edge is either of negative cost, or needed to hold its own
    endpoint at its lower bound, or needed at the other endpoint (which
    then must have a positive lower bound).  Hence the degree at v never
    exceeds max(lower[v], negative-cost edges at v plus incidences to
    vertices with positive lower bound).
    """
    needy = [1 if lower[v] >= 1 else 0 for v in range(mg.n)]
    room = [0] * mg.n
    for eid, e in enumerate(mg.edges):
        if costs[eid] < 0:
            room[e.u] += 1
            room[e.v] += 1
        else:
            room[e.u] += needy[e.v]
            room[e.v] += needy[e.u]
    new_up = [min(upper[v], max(lower[v], room[v])) for v in range(mg.n)]
    return CapacityVector(lower, new_up)


def solve_min_weight_lb(
    aux_or_mg,
    cap: CapacityVector | None = None,
    weights: list[int] | None = None,
    *,
    tighten: bool = True,
    verify: bool = True,
) -> LbMatching:
    """Minimum weight (l,b)-matching, edge-minimal among minimum-weight ones.

    Accepts either an AuxiliaryInstance or an explicit (multigraph,
    capacities, weights) triple.  The edge-count tie-break is folded into
    the objective exactly: every weight is scaled by m+1 and one unit is
    added per edge, so weight order dominates and fewer edges win ties.
    """
    if isinstance(aux_or_mg, AuxiliaryInstance):
        mg = aux_or_mg.graph
        cap = aux_or_mg.capacities
        weights = mg.weights()
    else:
        mg = aux_or_mg
        if cap is None or weights is None:
            raise InternalError("explicit solve needs capacities and weights")

    scale = mg.m + 1
    lex = [w * scale + 1 for w in weights]
    lower, upper = _normalize(mg, cap)
    cap_used = CapacityVector(lower, upper)
    if tighten:
        cap_used = _tightened_upper(mg, lower, upper, lex)
    res = solve_lb(mg, cap_used, lex, maximize=False, verify=verify)
    true_weight = sum(weights[e] for e in res.edge_ids)
    return LbMatching(res.edge_ids, res.degrees, true_weight, res.certificate, res.expanded)


def solve_max_weight_lb(
    mg: MultiGraph, cap: CapacityVector, weights: list[int], *, verify: bool = True
) -> LbMatching:
    """Maximum weight (l,b)-matching (no edge-count tie-break)."""
    return solve_lb(mg, cap, weights, maximize=True, verify=verify)


def solve_min_cardinality_lb(
    mg: MultiGraph, cap: CapacityVector, *, verify: bool = True
) -> LbMatching:
    """(l,b)-matching with the fewest edges.

    Uses the complement construction: each vertex gains a twin joined by
    upper-lower parallel edges and must reach degree exactly upper, after
    which maximum cardinality there is minimum cardinality here.
    """
    lower, upper = _normalize(mg, cap)
    plus = MultiGraph(mg.n)
    for e in mg.edges:
        plus.add_edge(e.u, e.v, 1, (CARRY_TAG, len(plus.edges)))
    twin = {}
    lo2 = list(upper)
    up2 = list(upper)
    for v in range(mg.n):
        slack = upper[v] - lower[v]
        w = plus.add_vertex()
        twin[v] = w
        lo2.append(0)
        up2.append(slack)
        for _ in range(slack):
            plus.add_edge(v, w, 1, (AUX_TAG, v))
    res = solve_lb(
        plus, CapacityVector(lo2, up2), [1] * plus.m, maximize=True, verify=verify
    )
    kept = [e for e in res.edge_ids if plus.edges[e].tag[0] == CARRY_TAG]
    if len(res.edge_ids) != sum(upper) - len(kept):
        raise InternalError("cardinality complement identity violated")
    degrees = [0] * mg.n
    for e in kept:
        degrees[plus.edges[e].u] += 1
        degrees[plus.edges[e].v] += 1
    for v in range(mg.n):
        if not (lower[v] <= degrees[v] <= upper[v]):
            raise InternalError("capacity violated after cardinality solve")
    return LbMatching(sorted(kept), degrees, len(kept), res.certificate, res.expanded)


def greedy_feasible(aux: AuxiliaryInstance) -> list[int]:
    """A small feasible matching of the auxiliary instance: one incident
    original edge per full-degree vertex plus a constant number of edges
    per gadget, chosen to meet every exact gadget capacity."""
    mg = aux.graph
    g = aux.original
    picked: list[int] = []
    deg = [0] * mg.n

    def take(eid: int) -> None:
        picked.append(eid)
        deg[mg.edges[eid].u] += 1
        deg[mg.edges[eid].v] += 1

    for info in aux.gadgets:
        if info.kind == "clique":
            hub = info.hubs[0]
            for (eid, _) in info.half_edges[hub][:2]:
                take(eid)
        elif info.kind == "biclique":
            for hub in info.hubs:
                take(info.half_edges[hub][0][0])
        elif info.kind == "partite":
            need = aux.capacities.lower[info.collector]
            for eid in info.internal_edges[:need]:
                take(eid)
            for hub in info.hubs:
                if deg[hub] == 0:
                    take(info.half_edges[hub][0][0])
        elif info.kind == "dense":
            for (eid, _) in info.half_edges[info.center_hub][:2]:
                take(eid)
            hub_internal = [
                e for e in info.internal_edges
                if info.center_hub not in (mg.edges[e].u, mg.edges[e].v)
            ]
            for eid in hub_internal:
                take(eid)
        else:
            raise InternalError(f"unknown gadget kind {info.kind}")
    for v in range(g.n):
        if g.degree(v) == g.t + 1 and deg[v] == 0:
            best, slack = -1, -1
            for eid in mg.adj[v]:
                e = mg.edges[eid]
                if e.tag[0] != ORIGINAL:
                    continue
                other = e.v if e.u == v else e.u
                room = aux.capacities.upper[other] - deg[other]
                if room > slack:
                    best, slack = eid, room
            if best < 0 or slack <= 0:
                raise InternalError(f"no room to cover full-degree vertex {v} greedily")
            take(best)
    for v in range(mg.n):
        lo = aux.capacities.lower[v]
        up = aux.capacities.upper[v]
        if not (lo <= deg[v] <= up):
            raise InternalError(f"greedy start infeasible at vertex {v}")
    return picked


def solve_min_cardinality_capped(aux: AuxiliaryInstance, *, verify: bool = True) -> LbMatching:
    """Minimum cardinality solve for the unweighted pipeline.

    First builds a linear-size feasible matching, then caps every upper
    bound at that matching's degrees; a minimum cardinality matching
    within the caps is still globally minimum, and the capped expansion is
    much smaller.
    """
    start = greedy_feasible(aux)
    mg = aux.graph
    deg = [0] * mg.n
    for e in start:
        deg[mg.edges[e].u] += 1
        deg[mg.edges[e].v] += 1
    capped = CapacityVector(list(aux.capacities.lower), deg)
    return solve_min_cardinality_lb(mg, capped, verify=verify)


def count_weight_identity(aux: AuxiliaryInstance, m: LbMatching) -> int:
    """Cardinality-minus-weight bookkeeping for unit-weight instances.

    Returns |M| - w(M) in input units and checks it equals the per-gadget
    tally: one per clique or biclique gadget, p-1 per partite gadget and
    p - core/2 + 1 per dense gadget.
    """
    wd = sum(aux.graph.edges[e].w for e in m.edge_ids)
    num = 2 * len(m.edge_ids) - wd
    if num % 2 != 0:
        raise InternalError("count/weight difference is not an integer")
    value = num // 2
    expect = 0
    for info in aux.gadgets:
        if info.kind in ("clique", "biclique"):
            expect += 1
        elif info.kind == "partite":
            expect += info.p - 1
        elif info.kind == "dense":
            expect += info.p - info.core_size // 2 + 1
    if value != expect:
        raise InternalError(
            f"cardinality/weight identity off: got {value}, expected {expect}"
        )
    return value
