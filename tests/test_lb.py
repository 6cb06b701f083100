import random

import pytest

import tmatch.lb
from tmatch.blossom import MAX_ENGINE_VERTICES
from tmatch.errors import InfeasibleError, InstanceTooLargeError
from tmatch.graph import CapacityVector, MultiGraph
from tmatch.lb import (
    solve_lb,
    solve_min_cardinality_lb,
    solve_min_weight_lb,
)

from .conftest import brute_force_lb


def mg_from(n, triples):
    mg = MultiGraph(n)
    for (u, v, w) in triples:
        mg.add_edge(u, v, w)
    return mg


def weight_of(res, weights):
    return sum(weights[e] for e in res.edge_ids)


def test_star_lower_bound():
    mg = mg_from(4, [(0, 1, 3), (0, 2, 1), (0, 3, 2)])
    cap = CapacityVector([1, 0, 0, 0], [1, 1, 1, 1])
    res = solve_min_weight_lb(mg, cap, [3, 1, 2])
    assert weight_of(res, [3, 1, 2]) == 1 and res.edge_ids == [1]


def test_four_cycle_exact():
    mg = mg_from(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2)])
    cap = CapacityVector([1] * 4, [1] * 4)
    res = solve_min_weight_lb(mg, cap, [1, 2, 1, 2])
    assert weight_of(res, [1, 2, 1, 2]) == 2 and len(res.edge_ids) == 2


def test_empty_lower_bounds():
    mg = mg_from(3, [(0, 1, 5), (1, 2, 5)])
    cap = CapacityVector([0, 0, 0], [1, 2, 1])
    res = solve_min_weight_lb(mg, cap, [5, 5])
    assert weight_of(res, [5, 5]) == 0 and res.edge_ids == []


def test_infeasible_lower_bound():
    mg = mg_from(2, [(0, 1, 1)])
    cap = CapacityVector([2, 0], [2, 1])
    with pytest.raises(InfeasibleError):
        solve_min_weight_lb(mg, cap, [1])


def test_min_cardinality_star():
    mg = mg_from(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    cap = CapacityVector([1, 0, 0, 0], [1, 1, 1, 1])
    res = solve_min_cardinality_lb(mg, cap)
    assert len(res.edge_ids) == 1


def test_min_cardinality_cycle_perfect():
    mg = mg_from(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    cap = CapacityVector([1] * 4, [2] * 4)
    res = solve_min_cardinality_lb(mg, cap)
    assert len(res.edge_ids) == 2


def _random_instance(rng):
    n = rng.randint(2, 10)
    m = rng.randint(1, 14)
    mg = MultiGraph(n)
    weights = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            v = (v + 1) % n
        w = rng.randint(-20, 20)
        mg.add_edge(u, v, w)
        weights.append(w)
    lower = [0] * n
    upper = [0] * n
    for v in range(n):
        d = mg.deg[v]
        upper[v] = min(d, rng.randint(0, 4))
        lower[v] = max(0, upper[v] - rng.randint(0, 3))
    return mg, CapacityVector(lower, upper), weights


def test_randomized_against_bruteforce():
    rng = random.Random(991)
    checked = 0
    for _ in range(250):
        mg, cap, weights = _random_instance(rng)
        try:
            want_w, want_k, want_card = brute_force_lb(mg, cap, weights)
            feasible = True
        except InfeasibleError:
            feasible = False
        if not feasible:
            with pytest.raises(InfeasibleError):
                solve_min_weight_lb(mg, cap, weights)
            continue
        res = solve_min_weight_lb(mg, cap, weights)
        assert weight_of(res, weights) == want_w
        assert len(res.edge_ids) == want_k  # edge-minimal among optima
        card = solve_min_cardinality_lb(mg, cap)
        assert len(card.edge_ids) == want_card
        checked += 1
    assert checked > 100


def _role_interval(rng, role, d):
    """The interval of a vertex of degree d: free [0, d], cover [1, d],
    an exact hub [1, 1] or [2, 2], or capped (upper 1, or 1 < upper < d)."""
    if role == "free":
        return (0, d)
    if role == "cover":
        return (1, d)
    if role == "hub":
        b = min(rng.choice([1, 2]), d)
        return (b, b)
    up = rng.randint(2, d - 1) if d > 2 and rng.random() < 0.5 else min(1, d)
    return (rng.randint(0, up), up)


def test_mixed_intervals_against_bruteforce():
    # Unsplit [0, d] vertices, [1, d] covers and exact degrees side by side.
    rng = random.Random(5150)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        mg = MultiGraph(n)
        weights = []
        for _ in range(rng.randint(1, 12)):
            u, v = rng.sample(range(n), 2)
            w = rng.randint(-10, 20)
            mg.add_edge(u, v, w)
            weights.append(w)
        lower, upper = [], []
        for v in range(n):
            d = mg.deg[v]
            kind = rng.choice(["free", "cover", "exact"])
            if kind == "free":
                lower.append(0)
                upper.append(d)
            elif kind == "cover":
                lower.append(min(1, d))
                upper.append(d)
            else:
                b = rng.randint(0, d)
                lower.append(b)
                upper.append(b)
        cap = CapacityVector(lower, upper)
        try:
            want_w, want_k, want_card = brute_force_lb(mg, cap, weights)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_min_weight_lb(mg, cap, weights)
            continue
        res = solve_min_weight_lb(mg, cap, weights)
        assert (weight_of(res, weights), len(res.edge_ids)) == (want_w, want_k)
        assert len(solve_min_cardinality_lb(mg, cap).edge_ids) == want_card
        # Maximizing is minimizing the negated weights.
        negated = [-w for w in weights]
        best_max, _, _ = brute_force_lb(mg, cap, negated)
        assert weight_of(solve_lb(mg, cap, negated), negated) == best_max
        checked += 1
    assert checked > 80

    # [1, deg] covers next to exact hubs ([1, 1] or [2, 2]) and next to
    # capped vertices (upper 1, or 1 < upper < deg), at non-negative
    # weights: every cover has an edge to a hub and one to a capped vertex.
    rng = random.Random(6262)
    checked = 0
    for _ in range(150):
        n = rng.randint(4, 8)
        roles = ["hub", "capped"] + [rng.choice(["cover", "hub", "capped"]) for _ in range(n - 2)]
        rng.shuffle(roles)
        hubs = [v for v in range(n) if roles[v] == "hub"]
        capped = [v for v in range(n) if roles[v] == "capped"]
        pairs = []
        for v in range(n):
            if roles[v] == "cover":
                pairs += [(v, rng.choice(hubs)), (v, rng.choice(capped))]
        while len(pairs) < 12 and rng.random() < 0.8:
            pairs.append(tuple(rng.sample(range(n), 2)))
        mg = MultiGraph(n)
        weights = []
        for (u, v) in pairs:
            w = rng.randint(0, 20)
            mg.add_edge(u, v, w)
            weights.append(w)
        lower, upper = [], []
        for v in range(n):
            (lo, up) = _role_interval(rng, roles[v], mg.deg[v])
            lower.append(lo)
            upper.append(up)
        cap = CapacityVector(lower, upper)
        try:
            want_w, want_k, want_card = brute_force_lb(mg, cap, weights)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_min_weight_lb(mg, cap, weights)
            continue
        res = solve_min_weight_lb(mg, cap, weights)
        assert (weight_of(res, weights), len(res.edge_ids)) == (want_w, want_k), (pairs, lower, upper)
        assert len(solve_min_cardinality_lb(mg, cap).edge_ids) == want_card
        checked += 1
    assert checked > 60


def test_capped_cardinality_matches_uncapped():
    from tmatch.gadgets import build_auxiliary
    from tmatch.generators import plant_forbidden
    from tmatch.graph import Graph
    from tmatch.lb import solve_min_cardinality_capped
    from tmatch.pipeline import prepare
    from tmatch.variant import Variant

    for kind, t, var, p, q in [
        ("clique", 3, Variant.restricted(), 0, 0),
        ("dense", 4, Variant.kpq(3, 2), 3, 2),
    ]:
        g = plant_forbidden(Graph(0, [], t), kind, 2, 3, p=p, q=q)
        records, _, potentials, _ = prepare(g, var)
        aux = build_auxiliary(g, records, potentials)
        capped = solve_min_cardinality_capped(aux)
        uncapped = solve_min_cardinality_lb(aux.graph, aux.capacities)
        assert len(capped.edge_ids) == len(uncapped.edge_ids)


def test_expansion_shape_matches_construction():
    # Vertices 0 and 2 have [0, deg] and stay unsplit; vertex 1 has [1, 2]
    # at degree 2, so it gets one optional internal and no required one.
    mg = mg_from(3, [(0, 1, 4), (1, 2, 1)])
    cap = CapacityVector([0, 1, 0], [1, 2, 1])
    res = solve_lb(mg, cap, [-4, -1])
    ex = res.expanded
    assert ex.star_vertices == 3
    assert ex.hat_vertices == 2 * 2 + 1
    assert ex.hat_edges == 2 + 1 * 2
    assert res.edge_ids == [0, 1]

    # Vertex 1 has upper 0, which drops its two edges.  What is left is
    # exact at 0 ([2, 2]: no internal), [1, 2] at 2 (one optional) and
    # [0, 1] at 3 (one required, one optional), 4m' - sum(l) in all.
    mg = mg_from(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1)])
    cap = CapacityVector([2, 0, 1, 0], [2, 0, 3, 1])
    res = solve_lb(mg, cap, [1] * 5)
    ex = res.expanded
    assert ex.star_vertices == 4
    assert ex.hat_vertices == 4 * 3 - 3
    assert ex.hat_edges == 3 + 1 * 2 + 2 * 2
    assert res.edge_ids == [1, 2]


def test_size_gate_fires_before_expansion(monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("the engine must not see an oversize expansion")

    monkeypatch.setattr(tmatch.lb, "maximum_weight_perfect_matching", engine)
    # Two exact-degree vertices: two externals per edge and no internal.
    k = MAX_ENGINE_VERTICES // 2 + 1
    mg = mg_from(2, [(0, 1, 1)] * k)
    with pytest.raises(InstanceTooLargeError, match="lb expansion"):
        solve_lb(mg, CapacityVector([k, k], [k, k]), [-1] * k)

    # Two such components, each within the gate alone: the gate is on the
    # total, before the first component's engine call.
    k = MAX_ENGINE_VERTICES // 4 + 1
    assert 2 * k <= MAX_ENGINE_VERTICES < 4 * k
    mg = mg_from(4, [(0, 1, 1)] * k + [(2, 3, 1)] * k)
    with pytest.raises(InstanceTooLargeError, match="lb expansion"):
        solve_lb(mg, CapacityVector([k] * 4, [k] * 4), [-1] * (2 * k))


def _connected_part(rng, free_only):
    """A connected interval instance on local ids: a random tree plus a few
    parallel or extra edges.  Every upper bound is at least 1, so no edge
    is dropped and the part stays one component."""
    n = rng.randint(2, 5)
    pairs = [(v, rng.randrange(v)) for v in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
    deg = [0] * n
    for (u, v) in pairs:
        deg[u] += 1
        deg[v] += 1
    lower, upper = [], []
    for v in range(n):
        role = "free" if free_only else rng.choice(["free", "cover", "hub", "capped"])
        (lo, up) = _role_interval(rng, role, deg[v])
        lower.append(lo)
        upper.append(up)
    weights = [rng.randint(-10, 20) for _ in pairs]
    return pairs, weights, lower, upper


def _disjoint_union(rng, parts):
    """The parts side by side, with isolated [0, 0] vertices between them
    and the edge order shuffled, so a component's edge ids interleave
    with the others'."""
    lower, upper, triples = [], [], []
    for (pairs, weights, lo, up) in parts:
        for _ in range(rng.randint(0, 1)):
            lower.append(0)
            upper.append(0)
        base = len(lower)
        triples += [(u + base, v + base, w) for ((u, v), w) in zip(pairs, weights)]
        lower += lo
        upper += up
    rng.shuffle(triples)
    mg = mg_from(len(lower), triples)
    return mg, CapacityVector(lower, upper), [w for (_, _, w) in triples]


def _part_instance(part):
    (pairs, weights, lower, upper) = part
    mg = mg_from(len(lower), [(u, v, w) for ((u, v), w) in zip(pairs, weights)])
    return mg, CapacityVector(lower, upper), weights


def _counting_engine(monkeypatch):
    calls = []
    real = tmatch.lb.maximum_weight_perfect_matching

    def engine(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(tmatch.lb, "maximum_weight_perfect_matching", engine)
    return calls


def test_disjoint_union_solves_each_component(monkeypatch):
    # A union's optimum is the sum of its parts' optima, on both
    # objectives, with one engine call per component that keeps an edge.
    calls = _counting_engine(monkeypatch)
    rng = random.Random(2020)
    checked = 0
    for trial in range(150):
        k = rng.randint(2, 4)
        parts = [_connected_part(rng, free_only=(i == 0 and trial % 3 == 0)) for i in range(k)]
        mg, cap, weights = _disjoint_union(rng, parts)
        optima = []
        for part in parts:
            try:
                optima.append(brute_force_lb(*_part_instance(part)))
            except InfeasibleError:
                optima = None
                break
        if optima is None:
            with pytest.raises(InfeasibleError):
                solve_min_weight_lb(mg, cap, weights)
            continue
        want_w = sum(w for (w, _, _) in optima)
        want_k = sum(c for (_, c, _) in optima)
        want_card = sum(c for (_, _, c) in optima)
        if mg.n <= 9:
            assert brute_force_lb(mg, cap, weights) == (want_w, want_k, want_card)

        calls.clear()
        res = solve_lb(mg, cap, weights)
        assert weight_of(res, weights) == want_w
        assert res.edge_ids == sorted(res.edge_ids)
        assert len(calls) == res.expanded.engine_calls == k
        assert sum(calls) == res.expanded.hat_vertices

        lex = solve_min_weight_lb(mg, cap, weights)
        assert (weight_of(lex, weights), len(lex.edge_ids)) == (want_w, want_k)
        assert len(solve_min_cardinality_lb(mg, cap).edge_ids) == want_card
        checked += 1
    assert checked > 60


def test_infeasible_component_raises(monkeypatch):
    # An edge with [1, 1] ends is solved first; the path 2-3-4 with [1, 1]
    # everywhere passes the per-vertex check, and only its engine call
    # finds that no matching covers all three.
    calls = _counting_engine(monkeypatch)
    mg = mg_from(5, [(0, 1, 1), (2, 3, 1), (3, 4, 1)])
    cap = CapacityVector([1] * 5, [1] * 5)
    with pytest.raises(InfeasibleError):
        solve_lb(mg, cap, [1, 1, 1])
    assert len(calls) == 2

