from collections import Counter

from tmatch.detect import DENSE, find_all_forbidden
from tmatch.gadgets import build_auxiliary, gadget_stats
from tmatch.generators import plant_forbidden, reweighted
from tmatch.graph import Graph
from tmatch.pipeline import prepare
from tmatch.variant import Variant

from .conftest import complete_graph, cross_pairs
from .test_acceptance import CONFIGS, SEEDS, _instance, _weighted_copy


def build(g, variant):
    records, _, potentials, _ = prepare(g, variant)
    return build_auxiliary(g, records, potentials), records


def half_edges(aux):
    """The (u, v, w) tuples of every half-edge, gadget by gadget."""
    return [
        aux.graph.edges[eid]
        for info in aux.gadgets
        for pairs in info.half_edges.values()
        for (eid, _) in pairs
    ]


def test_clique_gadget_shape(k4):
    aux, _ = build(k4, Variant.restricted())
    assert aux.graph.n == 5
    hub = 4
    assert aux.capacities.lower[hub] == aux.capacities.upper[hub] == 2
    halves = half_edges(aux)
    assert len(halves) == 4
    assert all(w == 1 for (_, _, w) in halves)  # doubled half-integral potential
    # every vertex of a plain 4-clique has degree t, not t+1, so it keeps
    # the slack interval [0, degree]
    for v in range(4):
        assert (aux.capacities.lower[v], aux.capacities.upper[v]) == (0, 3)


def test_full_degree_vertices_get_unit_lower_bound():
    g = plant_forbidden(complete_graph(4, 3), "clique", 0, 1)
    # attach a pendant to vertex 0 so its degree reaches t+1
    edges = [(u, v, 1) for (u, v, _) in g.edges] + [(0, 4, 1)]
    g = Graph(5, edges, 3)
    aux, _ = build(g, Variant.restricted())
    assert (aux.capacities.lower[0], aux.capacities.upper[0]) == (1, 4)
    assert (aux.capacities.lower[1], aux.capacities.upper[1]) == (0, 3)


def test_biclique_gadget_shape(k33):
    aux, _ = build(k33, Variant.restricted())
    assert aux.graph.n == 8
    for hub in (6, 7):
        assert aux.capacities.lower[hub] == aux.capacities.upper[hub] == 1
    halves = half_edges(aux)
    assert len(halves) == 6
    sides = {hub: set() for hub in (6, 7)}
    for (u, v, _) in halves:
        hub = u if u >= 6 else v
        sides[hub].add(v if u >= 6 else u)
    assert sorted(map(sorted, sides.values())) == [[0, 1, 2], [3, 4, 5]]


def test_dense_gadget_k6_degenerate_collector():
    # The whole K6 is the core, so its gadget is the center hub alone: its
    # two slots leave nothing for a collector.
    g = complete_graph(6, 4)
    aux, records = build(g, Variant.kpq(3, 2))
    info = aux.gadgets[0]
    assert info.kind == DENSE
    assert list(info.half_edges) == [info.center_hub]  # whole vertex set is the core
    assert info.collector == -1 and info.internal_edges == []
    hub = info.center_hub
    assert aux.capacities.lower[hub] == aux.capacities.upper[hub] == 2
    # two parallel half-edges at the center, and no other gadget edge
    center_halves = [e for e in half_edges(aux) if hub in e[:2]]
    assert len(center_halves) == 2
    assert {x for (u, v, _) in center_halves for x in (u, v)} == {hub, info.center}
    assert gadget_stats(aux)["added_vertices"] == 1
    assert gadget_stats(aux)["added_edges"] == 2


def test_partite_gadget_collector_capacity():
    g = plant_forbidden(Graph(0, [], 6), "partite", 1, 2, p=3, q=3)
    aux, _ = build(g, Variant.kpq(3, 3))
    info = aux.gadgets[0]
    col = info.collector
    assert aux.capacities.lower[col] == aux.capacities.upper[col] == 1  # p-2
    assert len(info.half_edges) == 3
    for hub in info.half_edges:
        assert aux.capacities.lower[hub] == aux.capacities.upper[hub] == 1


def test_no_gadgets_for_unproblematic():
    g = complete_graph(5, 3)  # all five cliques unproblematic
    aux, records = build(g, Variant.restricted())
    assert aux.gadgets == []
    assert gadget_stats(aux)["added_vertices"] == 0


def test_negative_center_dense_skipped():
    g0 = plant_forbidden(Graph(0, [], 4), "dense", 1, 3, p=3, q=2)
    # potentials: one vertex at -1, the rest large
    base = [3] * g0.n
    base[0] = -1
    weights = []
    for (u, v, _) in g0.edges:
        weights.append(base[u] + base[v])
    g = reweighted(g0, weights)
    aux, records = build(g, Variant.kpq(3, 2))
    assert aux.gadgets == []


def test_stats_additivity():
    g1 = plant_forbidden(Graph(0, [], 3), "clique", 1, 1)
    g2 = plant_forbidden(Graph(0, [], 3), "clique", 2, 1)
    aux1, _ = build(g1, Variant.restricted())
    aux2, _ = build(g2, Variant.restricted())
    s1, s2 = gadget_stats(aux1), gadget_stats(aux2)
    assert s1["added_vertices"] == 1 and s1["added_edges"] == 4
    assert s2["added_vertices"] == 2 and s2["added_edges"] == 8


def test_half_edge_pairs_reproduce_edge_weights():
    g0 = plant_forbidden(Graph(0, [], 3), "clique", 1, 4)
    from tmatch.generators import vertex_induced_weights

    records, _, _ = find_all_forbidden(g0, Variant.restricted())
    w = vertex_induced_weights(g0, records, (0, 5), (0, 5), 9)
    g = reweighted(g0, w)
    aux, records = build(g, Variant.restricted())
    info = aux.gadgets[0]
    halves = {}
    for hub, pairs in info.half_edges.items():
        for (eid, v) in pairs:
            halves[v] = aux.graph.edges[eid][2]
    rec = [r for r in records if r.id == info.subgraph_id][0]
    for (u, v) in cross_pairs(rec):
        eid = g.edge_id(u, v)
        assert halves[u] + halves[v] == g.weight_doubled(eid)


def assert_one_gadget_shape(aux):
    """Every gadget is hubs with exact intervals plus, when they hold more
    than two slots, a collector with exact capacity for all but two of
    them, joined to each hub once per slot."""
    lower, upper = aux.capacities.lower, aux.capacities.upper
    for info in aux.gadgets:
        hubs = list(info.half_edges)
        assert all(lower[h] == upper[h] for h in hubs)
        slots = sum(upper[h] for h in hubs)
        links = Counter(x for e in info.internal_edges for x in aux.graph.edges[e][:2])
        if info.collector < 0:
            assert slots == 2 and info.internal_edges == []
            continue
        col = info.collector
        assert lower[col] == upper[col] == slots - 2 > 0
        assert links[col] == len(info.internal_edges)
        assert all(links[h] == upper[h] for h in hubs)


def test_every_gadget_has_one_shape():
    # K6 minus an edge is a dense cluster with a class outside its core;
    # the whole K6 is all core.
    k6e = [(u, v, 1) for (u, v, _) in complete_graph(6, 4).edges if (u, v) != (0, 1)]
    cases = [(Graph(6, k6e, 4), Variant.kpq(3, 2)), (complete_graph(6, 4), Variant.kpq(3, 2))]
    kinds = Counter()
    for cfg_idx, (_, _, variant, _) in enumerate(CONFIGS):
        for seed in range(SEEDS):
            g = _instance(cfg_idx, seed)
            cases += [(g, variant), (_weighted_copy(g, variant, seed), variant)]
    for (g, variant) in cases:
        aux, _ = build(g, variant)
        assert_one_gadget_shape(aux)
        kinds.update(info.kind for info in aux.gadgets)
    assert set(kinds) == {"clique", "biclique", "partite", "dense"}
