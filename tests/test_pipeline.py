import itertools
import random

import pytest

from tmatch import Graph, Variant, solve
from tmatch.detect import DENSE, find_all_forbidden
from tmatch.errors import InputFormatError, NotVertexInducedError
from tmatch.generators import (
    plant_forbidden,
    random_bounded,
    reweighted,
    vertex_induced_weights,
)
from tmatch.oracle import brute_force_optimum
from tmatch.pipeline import prepare
from tmatch.recover import SolveResult, verify_solution

from .conftest import complete_bipartite, complete_graph, octahedron


def assert_optimal(g, variant):
    res = solve(g, variant)
    want, _, cover = brute_force_optimum(g, variant)
    assert res.weight_doubled == want
    # weight sandwich: auxiliary optimum == recovered complement == oracle cover
    assert res.stats["aux_matching_weight_doubled"] == cover
    return res


def test_golden_k4():
    res = assert_optimal(complete_graph(4, 3), Variant.restricted())
    assert len(res.tmatching) == 5


def test_golden_k33():
    res = assert_optimal(complete_bipartite(3, 3, 3), Variant.restricted())
    assert len(res.tmatching) == 8


def test_golden_k5():
    res = assert_optimal(complete_graph(5, 3), Variant.restricted())
    assert len(res.tmatching) == 7


def test_golden_octahedron():
    res = assert_optimal(octahedron(), Variant.kpq(3, 2))
    assert len(res.tmatching) == 11


def test_golden_k6_dense():
    res = assert_optimal(complete_graph(6, 4), Variant.kpq(3, 2))
    assert len(res.tmatching) == 11


def test_cross_kind_instance_optimal():
    # 4-clique sharing a square with a 3,3-biclique.
    edges = {(a, 3 + b) for a in range(3) for b in range(3)}
    edges |= {(0, 1), (3, 4)}
    g = Graph(6, [(u, v, 1) for (u, v) in sorted(edges)], 3)
    assert_optimal(g, Variant.restricted())


def test_cross_kind_repair_flip():
    # Same instance, but starting from a hand-built complement that covers
    # the biclique while leaving the clique intact: the exchange flip must
    # restore coverage without raising the weight.
    from tmatch.detect import find_all_forbidden, classify_problematic
    from tmatch.recover import CoTMatching, cover_unproblematic

    edges = {(a, 3 + b) for a in range(3) for b in range(3)}
    edges |= {(0, 1), (3, 4)}
    g = Graph(6, [(u, v, 1) for (u, v) in sorted(edges)], 3)
    records, inter, _ = find_all_forbidden(g, Variant.restricted())
    nbrs = classify_problematic(records, inter)
    start = [g.edge_id(*pr) for pr in [(0, 5), (1, 5), (2, 3), (2, 4)]]
    cot = CoTMatching(g, start)
    assert cot.is_cotmatching()
    clique = next(r for r in records if r.kind == "clique")
    assert not cot.covers(clique)
    before = cot.weight_doubled()
    diags = []
    cot = cover_unproblematic(g, cot, records, nbrs, diags)
    assert all(cot.covers(r) for r in records)
    assert cot.weight_doubled() <= before
    assert any(d.get("rule") == "clique-biclique-exchange" for d in diags)


def test_negative_center_dense_still_covered():
    g0 = plant_forbidden(Graph(0, [], 4), "dense", 1, 3, p=3, q=2)
    pots = [3] * g0.n
    pots[2] = -1
    weights = [pots[u] + pots[v] for (u, v, _) in g0.edges]
    g = reweighted(g0, weights)
    assert_optimal(g, Variant.kpq(3, 2))


def test_variant_reroute_q1_p2():
    g = complete_graph(5, 4)
    res = assert_optimal(g, Variant.kpq(5, 1))
    g2 = complete_bipartite(3, 3, 3)
    res2 = assert_optimal(g2, Variant.kpq(2, 3))
    assert len(res.tmatching) == 9 and len(res2.tmatching) == 8


def test_bad_variant_parameters():
    with pytest.raises(InputFormatError):
        solve(complete_graph(4, 3), Variant.kpq(3, 2))  # (3-1)*2 != 3


def test_not_vertex_induced_rejected():
    g = Graph(
        4, [(0, 1, 2), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)], 3
    )
    with pytest.raises(NotVertexInducedError):
        solve(g, Variant.restricted())
    # A dense K6: only the members that put 0 and 1 in different classes
    # contain the heavy edge; the cluster's own check over all its edges
    # rejects it.
    edges = [
        (u, v, 3 if (u, v) == (0, 1) else 2)
        for (u, v) in itertools.combinations(range(6), 2)
    ]
    with pytest.raises(NotVertexInducedError, match="dense"):
        solve(Graph(6, edges, 4), Variant.kpq(3, 2))


def test_verify_solution_flags_subgraph(k4):
    # All six clique edges respect the degree bound but keep the clique.
    records, _, _ = find_all_forbidden(k4, Variant.restricted())
    res = SolveResult(list(range(6)), [], 12)
    ok, detail = verify_solution(k4, records, res)
    assert not ok and "clique" in detail


def test_verify_solution_flags_degree():
    star = Graph(5, [(0, i, 1) for i in range(1, 5)], 3)
    res = SolveResult([0, 1, 2, 3], [], 8)
    ok, detail = verify_solution(star, [], res)
    assert not ok and "degree" in detail


def test_empty_and_tiny_instances():
    g = Graph(0, [], 3)
    res = solve(g, Variant.restricted())
    assert res.tmatching == [] and res.weight == 0
    g1 = Graph(5, [(0, 1, 7)], 3)
    res1 = solve(g1, Variant.restricted())
    assert res1.tmatching == [0] and res1.weight == 7


def test_all_low_degree_keeps_everything():
    g = Graph(8, [(i, i + 1, 2) for i in range(7)], 3)
    res = solve(g, Variant.restricted())
    assert len(res.tmatching) == 7


def test_randomized_small_weighted_and_unweighted():
    rng = random.Random(31337)
    configs = [
        (3, Variant.restricted()),
        (4, Variant.kpq(3, 2)),
        (3, Variant.kpq(2, 3)),
    ]
    for (t, var) in configs:
        for trial in range(25):
            g = random_bounded(rng.randint(4, 9), t, rng.uniform(0.3, 0.9), trial)
            if g.m == 0:
                continue
            assert_optimal(g, var)
            records, _, _, _ = prepare(g, var)
            plain = [r for r in records if r.kind != DENSE]
            w = vertex_induced_weights(g, plain, (-1, 5), (0, 6), trial)
            assert_optimal(reweighted(g, w), var)


def test_partial_core_dense_cluster():
    # Fully connected six vertices minus one pair: the cluster's core has
    # four vertices, leaving one plain class outside it.
    edges = [
        (u, v, 1)
        for (u, v) in itertools.combinations(range(6), 2)
        if (u, v) != (0, 1)
    ]
    g = Graph(6, edges, 4)
    res = assert_optimal(g, Variant.kpq(3, 2))
    assert len(res.tmatching) == g.m - res.stats["aux_matching_weight_doubled"] // 2

    # weighted, negative-potential center included
    pots = [2, 2, -1, 3, 1, 2]
    w = [pots[u] + pots[v] for (u, v, _) in g.edges]
    assert_optimal(reweighted(g, w), Variant.kpq(3, 2))


def test_k8_family_p4_q2():
    misses = [set(), {(0, 1)}, {(0, 1), (2, 3)}, {(0, 1), (2, 3), (4, 5)}]
    for missing in misses:
        edges = [
            (u, v, 1)
            for (u, v) in itertools.combinations(range(8), 2)
            if (u, v) not in missing
        ]
        g = Graph(8, edges, 6)
        assert_optimal(g, Variant.kpq(4, 2))


def test_weight_overflow_guard():
    # Weights have no bound: every layer computes in exact integers.
    g = Graph(2, [(0, 1, 1 << 55)], 3)
    res = solve(g, Variant.restricted())
    assert res.tmatching == [0]
    assert res.weight == 1 << 55
    assert res.weight_doubled == 2 << 55


def test_medium_scale_weighted_smoke():
    # No oracle at this size; the solve self-checks the weight sandwich,
    # capacity feasibility and the dual certificate on every matching.
    g = plant_forbidden(random_bounded(60, 3, 0.5, 7), "clique", 2, 8)
    records, _, _ = find_all_forbidden(g, Variant.restricted())
    w = vertex_induced_weights(g, records, (0, 5), (0, 6), 9)
    gw = reweighted(g, w)
    res = solve(gw, Variant.restricted())
    ok, detail = verify_solution(gw, records, res)
    assert ok, detail
    assert res.stats["problematic"] >= 2
    assert res.stats["aux_matching_edges"] > 0 and res.cotmatching


def test_medium_scale_unweighted_smoke():
    g = plant_forbidden(random_bounded(100, 3, 0.5, 3), "clique", 3, 4)
    res = solve(g, Variant.restricted())
    assert res.stats["unweighted"]
    assert res.stats["gadgets"] >= 3
