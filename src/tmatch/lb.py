"""Degree-interval constrained matchings on multigraphs.

A subset M of edges is an (l,b)-matching when every vertex v is incident
to between lower[v] and upper[v] of its edges.  :func:`solve_lb` finds
one of minimum weight (negate the weights to maximize) as a maximum
weight matching that must cover a *required* set of vertices.  After
edges at zero-capacity vertices are dropped, a vertex v of degree d with
interval [l, u] is split once:

* every edge becomes an edge between two externals, one per edge end,
  carrying the edge's negated weight;
* a vertex with l = 0 and u = d is left unsplit: its externals are
  optional, so any subset of its edges may be chosen;
* any other vertex gets d - u required and u - l optional internals,
  each joined to all of its externals by weight-0 edges, and its
  externals become required.  Each external not matched along its edge
  takes an internal, so between d - u and d - l edges stay unchosen.

The split has at most 4m - sum(l) vertices, and MAX_ENGINE_VERTICES
gates that total before any engine call.  No split edge joins two
components of the kept edges, so each component that keeps an edge is
split on its own and solved by its own engine call, with its own dual
certificate; the picked edges are merged in ascending id order.
Cardinality objectives ride on the same split with unit weights.
"""

from __future__ import annotations

from .blossom import MAX_ENGINE_VERTICES, maximum_weight_perfect_matching
from .errors import InfeasibleError, InstanceTooLargeError, InternalError
from .gadgets import AuxiliaryInstance
from .graph import CapacityVector, MultiGraph


class ExpandedInstance:
    """Size record of the reduction (diagnostics only): the interval
    instance after clamping (star), the matching instances (hat) summed
    over its components, and the number of engine calls."""

    __slots__ = ("star_vertices", "hat_vertices", "hat_edges", "engine_calls")

    def __init__(self, star_vertices: int, hat_vertices: int, hat_edges: int, engine_calls: int):
        self.star_vertices = star_vertices
        self.hat_vertices = hat_vertices
        self.hat_edges = hat_edges
        self.engine_calls = engine_calls


class LbMatching:
    """A feasible (l,b)-matching; the engine verified its own optimum."""

    __slots__ = ("edge_ids", "expanded")

    def __init__(self, edge_ids: list[int], expanded: ExpandedInstance):
        self.edge_ids = edge_ids
        self.expanded = expanded


def solve_lb(mg: MultiGraph, cap: CapacityVector, weights: list[int]) -> LbMatching:
    """Minimum weight (l,b)-matching via the single-copy split.

    ``weights`` may be any integers (they override the multigraph's own
    edge weights, which lets callers apply objective transforms).  Raises
    InfeasibleError when no (l,b)-matching exists.
    """
    lower = list(cap.lower)
    upper = [min(c, d) for (c, d) in zip(cap.upper, mg.deg)]

    # Edges at a zero-capacity vertex can never be matched.  Dropping them
    # lowers effective degrees, so upper bounds clamp once more; a vertex
    # clamped to zero has no edge left, so nothing cascades further.  The
    # kept edges' components are merged smaller into larger on the way.
    kept: list[int] = []
    deg_eff = [0] * mg.n
    comp = list(range(mg.n))
    members = [[v] for v in range(mg.n)]
    for eid, (u, v, _) in enumerate(mg.edges):
        if upper[u] > 0 and upper[v] > 0:
            kept.append(eid)
            deg_eff[u] += 1
            deg_eff[v] += 1
            a, b = comp[u], comp[v]
            if a != b:
                if len(members[a]) < len(members[b]):
                    a, b = b, a
                for x in members[b]:
                    comp[x] = a
                members[a] += members[b]
    for v in range(mg.n):
        upper[v] = min(upper[v], deg_eff[v])
        if lower[v] > upper[v]:
            raise InfeasibleError(
                f"vertex {v} needs {lower[v]} incident edges but only "
                f"{upper[v]} can be matched"
            )

    # The gate is on the whole split, before any component is solved.
    split = [lower[v] > 0 or upper[v] < deg_eff[v] for v in range(mg.n)]
    size = 2 * len(kept) + sum(deg_eff[v] - lower[v] for v in range(mg.n) if split[v])
    if size > MAX_ENGINE_VERTICES:
        raise InstanceTooLargeError(
            f"lb expansion needs {size} matching vertices "
            f"({mg.n} vertices, {len(kept)} edges); "
            f"the matching engine is gated at {MAX_ENGINE_VERTICES}"
        )

    # --- split per component: one external per edge end, internals
    # absorb the slack.  A part is (kept edge ids, hat edges, required).
    parts: dict[int, tuple[list[int], list[tuple[int, int, int]], list[bool]]] = {}
    ext_of_vertex: list[list[int]] = [[] for _ in range(mg.n)]
    for eid in kept:
        (u, v, _) = mg.edges[eid]
        part = parts.get(comp[u])
        if part is None:
            part = parts[comp[u]] = ([], [], [])
        (ids, hat_edges, required) = part
        x = len(required)
        ids.append(eid)
        required += (False, False)
        ext_of_vertex[u].append(x)
        ext_of_vertex[v].append(x + 1)
        hat_edges.append((x, x + 1, -weights[eid]))
    for v in range(mg.n):
        if not split[v]:
            continue
        (_, hat_edges, required) = parts[comp[v]]
        for x in ext_of_vertex[v]:
            required[x] = True
        # An external left off its edge pairs with an internal: the first
        # deg-upper internals must pair, the other upper-lower may.
        for j in range(deg_eff[v] - lower[v]):
            iv = len(required)
            required.append(j < deg_eff[v] - upper[v])
            for x in ext_of_vertex[v]:
                hat_edges.append((iv, x, 0))

    expanded = ExpandedInstance(
        star_vertices=mg.n,
        hat_vertices=size,
        hat_edges=sum(len(hat_edges) for (_, hat_edges, _) in parts.values()),
        engine_calls=len(parts),
    )

    # Each component is its own matching instance: its own engine call,
    # stop rule and certificate.  Edge i of a part owns externals 2i, 2i+1.
    picked: list[int] = []
    for (ids, hat_edges, required) in parts.values():
        mate, _, _ = maximum_weight_perfect_matching(len(required), hat_edges, required=required)
        picked += [eid for i, eid in enumerate(ids) if mate[2 * i] == 2 * i + 1]
    picked.sort()

    degrees = [0] * mg.n
    for eid in picked:
        (u, v, _) = mg.edges[eid]
        degrees[u] += 1
        degrees[v] += 1
    for v in range(mg.n):
        if not (lower[v] <= degrees[v] <= upper[v]):
            raise InternalError(f"capacity violated at vertex {v} after expansion solve")

    return LbMatching(edge_ids=picked, expanded=expanded)


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
    for eid, (u, v, _) in enumerate(mg.edges):
        if costs[eid] < 0:
            room[u] += 1
            room[v] += 1
        else:
            room[u] += needy[v]
            room[v] += needy[u]
    new_up = [min(upper[v], max(lower[v], room[v])) for v in range(mg.n)]
    return CapacityVector(lower, new_up)


def solve_min_weight_lb(
    mg: MultiGraph, cap: CapacityVector, weights: list[int]
) -> LbMatching:
    """Minimum weight (l,b)-matching, edge-minimal among minimum-weight ones.

    The edge-count tie-break is folded into the objective exactly: every
    weight is scaled by m+1 and one unit is added per edge, so weight
    order dominates and fewer edges win ties.
    """
    scale = mg.m + 1
    lex = [w * scale + 1 for w in weights]
    cap_used = _tightened_upper(mg, cap.lower, cap.upper, lex)
    return solve_lb(mg, cap_used, lex)


def solve_min_cardinality_lb(mg: MultiGraph, cap: CapacityVector) -> LbMatching:
    """(l,b)-matching with the fewest edges: a minimum weight solve with
    unit weights."""
    return solve_lb(mg, cap, [1] * mg.m)


def greedy_feasible(aux: AuxiliaryInstance) -> tuple[list[int], list[int]]:
    """A small feasible matching of the auxiliary instance: one incident
    original edge per full-degree vertex plus a constant number of edges
    per gadget, chosen to meet every exact gadget capacity.  Returns the
    picked edge ids and the degree of every vertex under them."""
    mg = aux.graph
    g = aux.original
    lower = aux.capacities.lower
    picked: list[int] = []
    deg = [0] * mg.n

    def take(eid: int) -> None:
        (u, v, _) = mg.edges[eid]
        picked.append(eid)
        deg[u] += 1
        deg[v] += 1

    for info in aux.gadgets:
        # The collector fills up from hubs other than a dense center hub,
        # then every hub short of its lower bound takes half-edges.
        if info.collector >= 0:
            links = [
                e for e in info.internal_edges
                if info.center_hub not in mg.edges[e][:2]
            ]
            for eid in links[:lower[info.collector]]:
                take(eid)
        for hub, halves in info.half_edges.items():
            for (eid, _) in halves[:lower[hub] - deg[hub]]:
                take(eid)
    for v in range(g.n):
        if g.degree(v) == g.t + 1 and deg[v] == 0:
            best, slack = -1, -1
            for (other, eid) in g.adj[v]:
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
    return picked, deg


def solve_min_cardinality_capped(aux: AuxiliaryInstance) -> LbMatching:
    """Minimum cardinality solve for the unweighted pipeline.

    First builds a linear-size feasible matching, then caps every upper
    bound at that matching's degrees; a minimum cardinality matching
    within the caps is still globally minimum, and the capped expansion is
    much smaller.
    """
    _, deg = greedy_feasible(aux)
    capped = CapacityVector(list(aux.capacities.lower), deg)
    return solve_min_cardinality_lb(aux.graph, capped)


def count_weight_identity(aux: AuxiliaryInstance, m: LbMatching) -> int:
    """Cardinality-minus-weight bookkeeping for unit-weight instances.

    Returns |M| - w(M) in input units and checks it equals the per-gadget
    tally: its two half-edges count one half each, and each collector edge
    counts one, so a gadget adds 1 plus its collector's lower bound.
    """
    wd = sum(aux.graph.edges[e][2] for e in m.edge_ids)
    num = 2 * len(m.edge_ids) - wd
    if num % 2 != 0:
        raise InternalError("count/weight difference is not an integer")
    value = num // 2
    expect = sum(
        1 + (aux.capacities.lower[info.collector] if info.collector >= 0 else 0)
        for info in aux.gadgets
    )
    if value != expect:
        raise InternalError(
            f"cardinality/weight identity off: got {value}, expected {expect}"
        )
    return value
