from tmatch import solve
from tmatch.detect import classify_problematic, find_all_forbidden
from tmatch.gadgets import build_auxiliary, gadget_stats
from tmatch.generators import plant_forbidden, reweighted
from tmatch.graph import Graph
from tmatch.lb import greedy_feasible, solve_min_weight_lb
from tmatch.oracle import brute_force_optimum
from tmatch.pipeline import prepare
from tmatch.recover import CoTMatching, cover_unproblematic
from tmatch.variant import Variant

from .conftest import complete_bipartite, complete_graph


def test_repair_k5_reaches_oracle_cover():
    # All five 4-cliques of K5 are unproblematic; starting from a complement
    # that covers degrees but no clique fully... K5 has every vertex at
    # degree 4 = t+1, so any co-t-matching touches all vertices.  Start from
    # a 2-edge perfect-ish cover and let repair finish the job.
    g = complete_graph(5, 3)
    records, inter, _ = find_all_forbidden(g, Variant.restricted())
    nbrs = classify_problematic(records, inter)
    start = [g.edge_id(0, 1), g.edge_id(2, 3), g.edge_id(0, 4)]
    cot = CoTMatching(g, start)
    assert cot.is_cotmatching()
    cot = cover_unproblematic(g, cot, records, nbrs, [])
    assert all(cot.covers(r) for r in records)
    assert cot.is_cotmatching()


def test_repair_noop_when_covered(k4):
    records, inter, _ = find_all_forbidden(k4, Variant.restricted())
    nbrs = classify_problematic(records, inter)
    # a single edge covers the only clique
    cot = CoTMatching(k4, [0])
    out = cover_unproblematic(k4, cot, records, nbrs, [])
    assert out.ids == {0}


def test_repair_weighted_shift_picks_cheap_edge():
    # Two 4-cliques sharing a triangle with distinct weights: the lighter
    # one is unproblematic; repair moves one edge across without raising
    # the weight.
    g0 = plant_forbidden(Graph(0, [], 3), "clique_pair", 1, 2)
    pots = {v: 1 for v in range(g0.n)}
    # find the two private vertices (degree 3); give one a higher potential
    privates = [v for v in range(g0.n) if g0.degree(v) == 3]
    pots[privates[0]] = 3
    weights = [pots[u] + pots[v] for (u, v, _) in g0.edges]
    g = reweighted(g0, weights)
    records, inter, _ = find_all_forbidden(g, Variant.restricted())
    nbrs = classify_problematic(records, inter)
    light = min(records, key=lambda r: r.weight)
    heavy = max(records, key=lambda r: r.weight)
    assert heavy.problematic and not light.problematic
    # complement covering the heavy clique only
    u_light = next(iter(set(light.vertices) - set(heavy.vertices)))
    u_heavy = next(iter(set(heavy.vertices) - set(light.vertices)))
    start = [g.edge_id(u_heavy, z) for z in heavy.vertices if z != u_heavy]
    cot = CoTMatching(g, start)
    assert cot.is_cotmatching() and not cot.covers(light)
    before = cot.weight_doubled()
    diags = []
    cot = cover_unproblematic(g, cot, records, nbrs, diags)
    assert cot.covers(light) and cot.covers(heavy)
    assert cot.weight_doubled() <= before
    assert any(d["rule"] == "clique-shift" for d in diags)


def test_repair_partite_shift_moves_edge_off_heavy_vertex():
    # A K^3_3 pair plant at t=6: the last class has four candidates, so
    # every three of them form a copy.  Raising one candidate's potential
    # leaves the copy without it lightest; a complement of every edge at
    # the heavy candidate covers all copies but that one, and the shift
    # flip moves one edge onto the light copy without raising the weight.
    g0 = plant_forbidden(Graph(0, [], 6), "partite_pair", 1, 1, p=3, q=3)
    privates = [v for v in range(g0.n) if g0.degree(v) == g0.t]
    heavy_vertex = privates[0]
    pots = {v: 1 for v in range(g0.n)}
    pots[heavy_vertex] = 3
    g = reweighted(g0, [pots[u] + pots[v] for (u, v, _) in g0.edges])
    records, inter, _ = find_all_forbidden(g, Variant.kpq(3, 3))
    nbrs = classify_problematic(records, inter)
    light = next(r for r in records if heavy_vertex not in r.vertices)
    assert not any(r.problematic for r in records)
    cot = CoTMatching(g, [eid for (_, eid) in g.adj[heavy_vertex]])
    assert cot.is_cotmatching() and not cot.covers(light)
    before = cot.weight_doubled()
    diags = []
    cot = cover_unproblematic(g, cot, records, nbrs, diags)
    assert all(cot.covers(r) for r in records)
    assert cot.weight_doubled() <= before
    assert any(d["rule"] == "partite-shift" for d in diags)


def test_gadget_size_bounds():
    # added vertices <= (p+2) per gadget; added edges <= (t+1+p+2) per gadget
    cases = [
        (plant_forbidden(Graph(0, [], 3), "clique", 3, 1), Variant.restricted(), 3),
        (plant_forbidden(Graph(0, [], 4), "dense", 2, 1, p=3, q=2), Variant.kpq(3, 2), 3),
        (plant_forbidden(Graph(0, [], 6), "partite", 2, 1, p=3, q=3), Variant.kpq(3, 3), 3),
    ]
    for g, variant, p in cases:
        records, _, potentials, _ = prepare(g, variant)
        aux = build_auxiliary(g, records, potentials)
        stats = gadget_stats(aux)
        k = stats["gadgets"]
        assert stats["added_vertices"] <= (p + 2) * k
        assert stats["added_edges"] <= (g.t + 1 + p + 2) * k


def test_greedy_feasible_on_every_gadget_kind():
    cases = [
        (plant_forbidden(Graph(0, [], 3), "clique", 2, 1), Variant.restricted()),
        (plant_forbidden(Graph(0, [], 3), "biclique", 1, 1), Variant.restricted()),
        (plant_forbidden(Graph(0, [], 4), "dense", 1, 1, p=3, q=2), Variant.kpq(3, 2)),
        (plant_forbidden(Graph(0, [], 6), "partite", 1, 1, p=3, q=3), Variant.kpq(3, 3)),
    ]
    for g, variant in cases:
        records, _, potentials, _ = prepare(g, variant)
        aux = build_auxiliary(g, records, potentials)
        picked, returned = greedy_feasible(aux)  # raises if infeasible
        deg = [0] * aux.graph.n
        for e in picked:
            for x in aux.graph.edges[e][:2]:
                deg[x] += 1
        assert returned == deg
        for v in range(aux.graph.n):
            assert aux.capacities.lower[v] <= deg[v] <= aux.capacities.upper[v]


def test_biclique_shift_flip():
    # Two bicliques sharing one full class plus two of three on the other
    # side; a complement covering only the partner forces the shift flip.
    edges = [(a, b, 1) for a in range(3) for b in (3, 4, 5, 6)]
    g = Graph(7, edges, 3)
    records, inter, _ = find_all_forbidden(g, Variant.restricted())
    nbrs = classify_problematic(records, inter)
    # one biclique per choice of three right-side vertices
    assert len(records) == 4 and not any(r.problematic for r in records)
    h = next(r for r in records if 6 not in r.vertices)
    start = [g.edge_id(a, 6) for a in range(3)]
    cot = CoTMatching(g, start)
    assert cot.is_cotmatching() and not cot.covers(h)
    diags = []
    cot = cover_unproblematic(g, cot, records, nbrs, diags)
    assert all(cot.covers(r) for r in records)
    assert any(d["rule"] == "biclique-shift" for d in diags)


def test_biclique_exchange_flip():
    # Bicliques sharing two vertices per side exchange a pair of crossing
    # edges.
    g = plant_forbidden(Graph(0, [], 3), "biclique_pair", 1, 0)
    records, inter, _ = find_all_forbidden(g, Variant.restricted())
    nbrs = classify_problematic(records, inter)
    assert len(records) == 2
    h, other = records
    shared = set(h.vertices) & set(other.vertices)
    assert len(shared) == 2 * g.t - 2
    # cover only `other`: every shared vertex has degree t+1 and exactly one
    # edge leaving h, namely into other's private vertices
    start = set()
    for z in sorted(shared):
        for (x, eid) in g.adj[z]:
            if x not in h.vertices:
                start.add(eid)
    cot = CoTMatching(g, start)
    assert cot.is_cotmatching() and not cot.covers(h) and cot.covers(other)
    diags = []
    cot = cover_unproblematic(g, cot, records, nbrs, diags)
    assert all(cot.covers(r) for r in records)
    assert any(d["rule"] == "biclique-exchange" for d in diags)


def _k6_minus_edge(weights_by_potential=None):
    import itertools as it

    pairs = [(u, v) for (u, v) in it.combinations(range(6), 2) if (u, v) != (0, 1)]
    if weights_by_potential is None:
        return Graph(6, [(u, v, 1) for (u, v) in pairs], 4)
    r = weights_by_potential
    return Graph(6, [(u, v, r[u] + r[v]) for (u, v) in pairs], 4)


def test_dense_rewire_translation():
    # Both selected half-edges on the cluster center and no matched edge
    # inside the core: two core-boundary edges are rewired through the
    # center.  The matching is handcrafted (feasible, not optimal).
    from tmatch.lb import LbMatching
    from tmatch.recover import matching_to_cotmatching

    g = _k6_minus_edge([1, 1, 1, 3, 3, 3])  # core {2,3,4,5}, center 2
    records, _, potentials, _ = prepare(g, Variant.kpq(3, 2))
    aux = build_auxiliary(g, records, potentials)
    info = aux.gadgets[0]
    assert info.kind == "dense" and info.center == 2
    chosen = [eid for (eid, _) in info.half_edges[info.center_hub]]
    hub = next(h for h in info.half_edges if h != info.center_hub)
    chosen += [e for e in info.internal_edges if hub in aux.graph.edges[e][:2]]
    # Input edges keep their ids in the auxiliary instance.
    chosen += [g.edge_id(u, v) for (u, v) in [(3, 0), (4, 1), (5, 0)]]
    deg = [0] * aux.graph.n
    for e in chosen:
        for x in aux.graph.edges[e][:2]:
            deg[x] += 1
    for v in range(aux.graph.n):
        assert aux.capacities.lower[v] <= deg[v] <= aux.capacities.upper[v]
    m = LbMatching(sorted(chosen), None)
    diags = []
    cot = matching_to_cotmatching(aux, m, diags)
    assert any(d["rule"] == "dense-rewire" for d in diags)
    dense = next(r for r in records if r.kind == "dense")
    for mid in dense.member_ids:
        assert cot.covers(records[mid])


def test_biclique_shift_invariance_of_optimum():
    # Shifting one class's potentials up and the other down by the same
    # amount is another valid potential function; the auxiliary optimum
    # must not depend on the choice.
    g = complete_bipartite(3, 3, 3, weight=2)
    records, _, potentials, _ = prepare(g, Variant.restricted())
    rec = records[0]
    base = potentials[rec.id]
    results = []
    for delta in (0, 2, -4):
        shifted = {}
        for v in rec.vertices:
            side = 0 if v in rec.classes[0] else 1
            shifted[v] = base[v] + (delta if side == 0 else -delta)
        aux = build_auxiliary(g, records, {rec.id: shifted})
        res = solve_min_weight_lb(aux.graph, aux.capacities, aux.graph.weights())
        results.append(sum(aux.graph.edges[e][2] for e in res.edge_ids))
    assert results[0] == results[1] == results[2]


def test_solve_repairs_uncovered_clique():
    # Two 4-cliques share the triangle 0,1,2 and both weigh 27, so neither
    # is problematic and no gadget covers either: the complement the
    # engine returns misses clique 1, and solve repairs it with a shift
    # from its partner, clique 0, at no loss of weight.
    r = [3, 4, 5, -3, -3]
    pairs = [(0, 1), (0, 2), (1, 2)] + [(x, v) for v in (3, 4) for x in range(3)]
    g = Graph(5, [(u, v, r[u] + r[v]) for (u, v) in pairs], 3)
    res = solve(g, Variant.restricted())
    assert res.diagnostics == [{"subgraph": 1, "rule": "clique-shift", "partner": 0}]
    assert res.weight_doubled == 54
    assert res.weight_doubled == brute_force_optimum(g, Variant.restricted())[0]
