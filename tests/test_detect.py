import hashlib
import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tmatch import detect
from tmatch.detect import (
    BICLIQUE,
    CLIQUE,
    PARTITE,
    DetectionStats,
    ForbiddenSubgraph,
    _find_at,
    _kind_for_shape,
    _cross_edges,
    _Residual,
    classify_problematic,
    find_all_forbidden,
    find_dense,
    find_partner,
)
from tmatch.errors import InternalError
from tmatch.generators import (
    plant_forbidden,
    random_bounded,
    reweighted,
    vertex_induced_weights,
)
from tmatch.graph import Graph
from tmatch.oracle import brute_force_subgraphs
from tmatch.pipeline import forbidden_records
from tmatch.variant import Variant

from .conftest import complete_graph, cross_pairs, octahedron
from .test_acceptance import CONFIGS, _instance


def cycle(n, t=3):
    return Graph(n, [(i, (i + 1) % n, 1) for i in range(n)], t)


def detected_set(g, variant):
    records, inter, stats = find_all_forbidden(g, variant)
    return sorted(r.key() for r in records), records, inter


def residual(g):
    return _Residual(g, DetectionStats())


def find_kpq_at(g, v, p, q):
    """All K^p_q's of ``g`` containing vertex ``v``, probed on a fresh
    residual graph: the exhaustive reference for the sweep."""
    kind = _kind_for_shape(p, q)
    out = []
    for (verts, classes) in sorted(set(_find_at(residual(g), v, p, q))):
        h = ForbiddenSubgraph(kind, verts, classes, 0)
        h.edge_ids = _cross_edges(g, h, {})
        out.append(h)
    return out


def t_core(g, removed, t):
    """Vertices of the t-core of g minus ``removed``, peeled naively."""
    alive = set(range(g.n)) - set(removed)
    while True:
        low = [v for v in alive if sum(u in alive for (u, _) in g.adj[v]) < t]
        if not low:
            return alive
        alive -= set(low)


# --- _Residual --------------------------------------------------------------


def test_strip_keeps_the_t_core_under_random_removals():
    rng = random.Random(41)
    for trial in range(60):
        t = rng.choice([3, 4, 6])
        g = random_bounded(rng.randint(1, 60), t, rng.uniform(0.3, 0.95), trial)
        R = residual(g)
        R.strip_low_degree(t)
        removed = []
        assert {v for v in range(g.n) if R.alive[v]} == t_core(g, removed, t)
        for _ in range(rng.randint(1, 8)):
            for v in rng.sample(range(g.n), min(g.n, rng.randint(1, 3))):
                R.remove(v)
                removed.append(v)
            R.strip_low_degree(t)
            alive = {v for v in range(g.n) if R.alive[v]}
            assert alive == t_core(g, removed, t), (trial, removed)
            for v in alive:
                assert R.deg[v] == sum(u in alive for (u, _) in g.adj[v])


# --- find_partner ----------------------------------------------------------


def test_partner_cycle_none():
    g = cycle(5)
    assert find_partner(residual(g), 0, 4, 1) is None


def test_partner_k4(k4):
    z = find_partner(residual(k4), 0, 4, 1)
    assert z is not None
    assert len({u for (u, _) in k4.adj[0]} & {u for (u, _) in k4.adj[z]}) >= 2


def test_partner_k33(k33):
    z = find_partner(residual(k33), 0, 2, 3)
    assert z is not None
    assert len({u for (u, _) in k33.adj[0]} & {u for (u, _) in k33.adj[z]}) >= 3


# --- find_kpq_at ------------------------------------------------------------


def test_cliques_at_k5():
    g = complete_graph(5, 4)
    subs = find_kpq_at(g, 0, 5, 1)
    assert len(subs) == 1
    assert subs[0].vertices == (0, 1, 2, 3, 4)


def test_cliques_at_k6():
    g = complete_graph(6, 4)
    subs = find_kpq_at(g, 0, 5, 1)
    # each 5-clique through vertex 0 excludes one of the other five
    assert len(subs) == 5
    assert all(0 in s.vertices for s in subs)


def test_partite_at_octahedron():
    g = octahedron()
    subs = find_kpq_at(g, 0, 3, 2)
    assert len(subs) == 1
    assert subs[0].vertices == (0, 1, 2, 3, 4, 5)
    assert subs[0].classes == ((0, 1), (2, 3), (4, 5))


def test_partite_at_k6_lists_all_pairings():
    g = complete_graph(6, 4)
    subs = find_kpq_at(g, 0, 3, 2)
    assert len(subs) == 15  # all pairings of six vertices


def test_biclique_at_k33(k33):
    subs = find_kpq_at(k33, 0, 2, 3)
    assert len(subs) == 1
    assert subs[0].classes == ((0, 1, 2), (3, 4, 5))


# --- property test against brute force ---------------------------------------

# (t, variant): K_4, K_5, K_7, K_{3,3}, K_{4,4}, K_{5,5}, K^3_2, K^4_2, K^3_3,
# and both restricted shapes at t = 3 and t = 4.
PROPERTY_SHAPES = [
    (3, Variant.kpq(4, 1)), (4, Variant.kpq(5, 1)), (6, Variant.kpq(7, 1)),
    (3, Variant.kpq(2, 3)), (4, Variant.kpq(2, 4)), (5, Variant.kpq(2, 5)),
    (4, Variant.kpq(3, 2)), (6, Variant.kpq(4, 2)), (6, Variant.kpq(3, 3)),
    (3, Variant.restricted()), (4, Variant.restricted()),
]


def partite_edges(classes):
    return {(min(a, b), max(a, b)) for (ci, cj) in itertools.combinations(classes, 2)
            for a in ci for b in cj}


def unit_graph(n, pairs, t):
    return Graph(n, [(a, b, 1) for (a, b) in sorted(pairs)], t)


@st.composite
def planted_graphs(draw):
    """A K^p_q block of one of the shapes above on a random part of at most
    14 vertices, then random extra edges wherever both endpoints stay
    within degree t+1: edges inside the block's classes, class-mates
    adjacent to one another, and edges to the rest of the graph."""
    (t, variant) = draw(st.sampled_from(PROPERTY_SHAPES))
    (p, q) = draw(st.sampled_from(variant.shapes(t)))
    n = draw(st.integers(p * q, 14))
    order = draw(st.permutations(range(n)))
    edges = partite_edges([order[i * q:(i + 1) * q] for i in range(p)])
    deg = [0] * n
    for (a, b) in edges:
        deg[a] += 1
        deg[b] += 1
    vertex = st.integers(0, n - 1)
    for (a, b) in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        (a, b) = (min(a, b), max(a, b))
        if a != b and (a, b) not in edges and deg[a] <= t and deg[b] <= t:
            edges.add((a, b))
            deg[a] += 1
            deg[b] += 1
    return unit_graph(n, edges, t), variant


# K^3_3 plus an edge from 0 to its class-mate 1, and K_{3,3} plus an edge
# inside the side that 0 sees.
K333_WITH_A_CLASS_EDGE = unit_graph(
    9, partite_edges([(0, 1, 2), (3, 4, 5), (6, 7, 8)]) | {(0, 1)}, 6
)
K33_WITH_A_FAR_EDGE = unit_graph(6, partite_edges([(0, 1, 2), (3, 4, 5)]) | {(3, 4)}, 3)


@given(planted_graphs())
@example((K333_WITH_A_CLASS_EDGE, Variant.kpq(3, 3)))
@example((K33_WITH_A_FAR_EDGE, Variant.kpq(2, 3)))
def test_detection_and_every_vertex_search_match_brute_force(case):
    # 1,000 drawn graphs plus the two examples: about 3 s, budget 10 s.
    (g, variant) = case
    want = brute_force_subgraphs(g, variant)
    got, _, _ = detected_set(g, variant)
    assert got == want
    for v in range(g.n):
        at_v = sorted(
            (_kind_for_shape(p, q), verts, classes)
            for (p, q) in variant.shapes(g.t)
            for (verts, classes) in _find_at(residual(g), v, p, q)
        )
        assert at_v == [k for k in want if v in k[1]], v


# --- find_all_forbidden -----------------------------------------------------


def test_find_all_path_empty():
    g = Graph(10, [(i, i + 1, 1) for i in range(9)], 3)
    got, _, _ = detected_set(g, Variant.restricted())
    assert got == []


def test_find_all_two_disjoint_k4():
    g = plant_forbidden(Graph(0, [], 3), "clique", 2, 1)
    got, records, inter = detected_set(g, Variant.restricted())
    assert len(got) == 2
    assert inter == set()


def test_find_all_k5_cliques_all_pairs():
    g = complete_graph(5, 3)
    got, records, inter = detected_set(g, Variant.restricted())
    assert len(got) == 5
    assert len(inter) == 10  # any two 4-cliques in K5 intersect


def test_detection_equality_random():
    rng = random.Random(7)
    variants = [
        (3, Variant.restricted()),
        (4, Variant.kpq(5, 1)),
        (3, Variant.kpq(2, 3)),
        (4, Variant.kpq(3, 2)),
        (6, Variant.kpq(3, 3)),
    ]
    for (t, var) in variants:
        for trial in range(40):
            n = rng.randint(3, 12)
            g = random_bounded(n, t, rng.uniform(0.3, 0.95), trial * 13 + t)
            got, _, _ = detected_set(g, var)
            assert got == brute_force_subgraphs(g, var), (t, var, g.edges)


def test_detection_equality_planted():
    base3 = Graph(0, [], 3)
    base4 = Graph(0, [], 4)
    cases = [
        (plant_forbidden(base3, "clique_pair", 1, 3), Variant.restricted()),
        (plant_forbidden(base3, "biclique_pair", 1, 3), Variant.restricted()),
        (plant_forbidden(base4, "dense", 1, 3, p=3, q=2), Variant.kpq(3, 2)),
        (plant_forbidden(base4, "partite_pair", 1, 3, p=3, q=2), Variant.kpq(3, 2)),
    ]
    for g, var in cases:
        got, _, _ = detected_set(g, var)
        assert got == brute_force_subgraphs(g, var)


def test_intersection_size_laws():
    rng = random.Random(23)
    for trial in range(30):
        g = random_bounded(rng.randint(4, 12), 3, 0.8, trial)
        records, inter, _ = find_all_forbidden(g, Variant.restricted())
        for (a, b) in inter:
            ra, rb = records[a], records[b]
            shared = set(ra.vertices) & set(rb.vertices)
            if ra.kind == rb.kind == CLIQUE:
                assert len(shared) == g.t
            elif ra.kind == rb.kind == BICLIQUE:
                assert len(shared) >= 2 * (g.t - 1)
            else:
                assert len(shared) == 4  # clique inside biclique at t=3


def test_partite_intersection_law():
    # Two full classes plus a pool of q+1 candidates for the third class:
    # every q-subset of the pool completes a subgraph.
    g = plant_forbidden(Graph(0, [], 6), "partite_pair", 1, 5, p=3, q=3)
    records, inter, _ = find_all_forbidden(g, Variant.kpq(3, 3))
    assert len(records) == 4 and len(inter) == 6
    assert sorted(r.key() for r in records) == brute_force_subgraphs(g, Variant.kpq(3, 3))
    for (a, b) in inter:
        shared = set(records[a].vertices) & set(records[b].vertices)
        assert len(shared) >= 3 * 3 - 1


# --- find_dense -------------------------------------------------------------


def test_find_dense_k6():
    g = complete_graph(6, 4)
    records, inter, _ = find_all_forbidden(g, Variant.kpq(3, 2))
    assert len(records) == 15
    dense = find_dense(g, records)
    assert len(dense) == 1
    assert dense[0].core == (0, 1, 2, 3, 4, 5)
    assert all(r.in_dense == dense[0].id for r in records)


def test_find_dense_octahedron_none():
    g = octahedron()
    records, _, _ = find_all_forbidden(g, Variant.kpq(3, 2))
    assert len(records) == 1
    assert find_dense(g, records) == []


def test_find_dense_two_disjoint_k6():
    g = plant_forbidden(Graph(0, [], 4), "dense", 2, 9, p=3, q=2)
    records, _, _ = find_all_forbidden(g, Variant.kpq(3, 2))
    dense = find_dense(g, records)
    assert len(dense) == 2
    assert set(dense[0].vertices).isdisjoint(dense[1].vertices)


def test_partial_core_dense():
    # Complete graph on 8 vertices minus one missing pair: p=4, t=6.
    missing = {(0, 1)}
    edges = [
        (u, v, 1)
        for (u, v) in itertools.combinations(range(8), 2)
        if (u, v) not in missing
    ]
    g = Graph(8, edges, 6)
    records, _, _ = find_all_forbidden(g, Variant.kpq(4, 2))
    dense = find_dense(g, records)
    assert len(dense) == 1
    assert dense[0].core == (2, 3, 4, 5, 6, 7)
    # class {0,1} is forced; the core pairs freely: 5!! = 15 members
    assert len(dense[0].member_ids) == 15


# --- classify_problematic ---------------------------------------------------


def test_classify_two_disjoint_cliques_problematic():
    g = plant_forbidden(Graph(0, [], 3), "clique", 2, 1)
    records, inter, _ = find_all_forbidden(g, Variant.restricted())
    classify_problematic(records, inter)
    assert all(r.problematic for r in records)


def test_classify_k5_all_unproblematic():
    g = complete_graph(5, 3)
    records, inter, _ = find_all_forbidden(g, Variant.restricted())
    classify_problematic(records, inter)
    assert not any(r.problematic for r in records)


def test_classify_clique_meeting_biclique():
    edges = {(a, 3 + b) for a in range(3) for b in range(3)}
    edges |= {(0, 1), (3, 4)}
    g = Graph(6, [(u, v, 1) for (u, v) in sorted(edges)], 3)
    records, inter, _ = find_all_forbidden(g, Variant.restricted())
    classify_problematic(records, inter)
    cliques = [r for r in records if r.kind == CLIQUE]
    bicliques = [r for r in records if r.kind == BICLIQUE]
    assert cliques and bicliques
    assert not any(c.problematic for c in cliques)
    assert all(b.problematic for b in bicliques)


def test_classify_weight_tie_both_unproblematic():
    g = plant_forbidden(Graph(0, [], 3), "clique_pair", 1, 1)
    records, inter, _ = find_all_forbidden(g, Variant.restricted())
    classify_problematic(records, inter)
    assert not any(r.problematic for r in records)


def assert_driver_matches_probing(g, var):
    records, inter, _ = find_all_forbidden(g, var)
    got = sorted(r.key() for r in records)
    want = set()
    for (pp, qq) in var.shapes(g.t):
        for v in range(g.n):
            for r in find_kpq_at(g, v, pp, qq):
                want.add(r.key())
    assert got == sorted(want)
    pairs = {
        (min(a.id, b.id), max(a.id, b.id))
        for a, b in itertools.combinations(records, 2)
        if set(a.vertices) & set(b.vertices)
    }
    assert pairs == inter


def test_driver_matches_exhaustive_probing_midscale():
    # The sweep's removal and clustering logic must agree with probing
    # every vertex on graphs far beyond the brute-force oracle's reach.
    rng = random.Random(19)
    for seed in range(4):
        n = rng.randint(150, 300)
        for (t, var, plant, p, q) in [
            (3, Variant.restricted(), "clique_pair", 0, 0),
            (4, Variant.kpq(3, 2), "dense", 3, 2),
            (6, Variant.kpq(3, 3), "partite_pair", 3, 3),
        ]:
            g = random_bounded(n, t, rng.uniform(0.4, 0.8), seed * 3 + t)
            g = plant_forbidden(g, plant, rng.randint(1, 3), seed, p=p, q=q)
            assert_driver_matches_probing(g, var)
    # The other two shapes the detection benchmark plants, drawn from a
    # stream of their own so the graphs above stay as they were.
    rng = random.Random(29)
    for seed in range(4):
        n = rng.randint(150, 300)
        for (t, var, plant) in [
            (3, Variant.restricted(), "biclique"),
            (4, Variant.kpq(5, 1), "clique_pair"),
        ]:
            g = random_bounded(n, t, rng.uniform(0.4, 0.8), seed * 3 + t)
            g = plant_forbidden(g, plant, rng.randint(1, 3), seed)
            assert_driver_matches_probing(g, var)


def test_classify_weight_order_keeps_heavier():
    # Distinct weights on a sharing pair: only the heavier one needs a gadget.
    g = plant_forbidden(Graph(0, [], 3), "clique_pair", 1, 1)
    records, inter, _ = find_all_forbidden(g, Variant.restricted())
    records[0].weight += 2
    classify_problematic(records, inter)
    flags = sorted(r.problematic for r in records)
    assert flags == [False, True]
    heavy = max(records, key=lambda r: r.weight)
    assert heavy.problematic


# --- plants joined to a random part ------------------------------------------

# The shapes and plant sizes of the detection benchmark:
# (shape, t, variant, p, q, vertices per plant).
BENCH_SHAPES = [
    ("clique", 3, Variant.restricted(), 0, 0, 4),
    ("biclique", 3, Variant.restricted(), 0, 0, 6),
    ("dense", 4, Variant.kpq(3, 2), 3, 2, 6),
    ("partite", 6, Variant.kpq(3, 3), 3, 3, 9),
    ("clique_pair", 4, Variant.kpq(5, 1), 0, 0, 6),
]


def joined_plants(n, shape, t, p, q, size, plants, seed):
    """``plants`` copies of a shape on a random part of n - plants*size
    vertices, then joined to it: each plant vertex with spare degree gets
    an edge to a random-part vertex with spare degree, with probability
    one half.  Every K6 of a dense plant has full degree, so every other
    dense plant first loses one edge."""
    rng = random.Random(seed)
    base = random_bounded(n - plants * size, t, 0.5, seed)
    g = plant_forbidden(base, shape, plants, seed + 1, p=p, q=q)
    edges = {(u, v) for (u, v, _) in g.edges}
    if shape == "dense":
        for j in range(0, plants, 2):
            a = base.n + j * size
            edges.discard((a, a + 1))
    deg = [0] * g.n
    for (u, v) in edges:
        deg[u] += 1
        deg[v] += 1
    for x in range(base.n, g.n):
        if deg[x] <= t and rng.random() < 0.5:
            spare = [y for y in range(base.n) if deg[y] <= t and (y, x) not in edges]
            if spare:
                y = rng.choice(spare)
                edges.add((y, x))
                deg[x] += 1
                deg[y] += 1
    return Graph(g.n, [(u, v, 1) for (u, v) in sorted(edges)], t)


def test_driver_matches_probing_on_joined_plants():
    # Joined plants have base vertices with neighbours outside the base,
    # whose search may find subgraphs the first search did not.
    for seed in range(2):
        for i, (shape, t, var, p, q, size) in enumerate(BENCH_SHAPES):
            g = joined_plants(200, shape, t, p, q, size, 10, 100 * seed + i)
            assert_driver_matches_probing(g, var)


def assert_weights_sum_cross_pairs(g, var):
    records, _, _ = find_all_forbidden(g, var)
    for r in records:
        want = sum(g.weight_doubled(g.edge_id(u, v)) for (u, v) in cross_pairs(r))
        assert r.weight == want, (r.kind, r.vertices, r.classes)
    return records


def intra_class_edges(g, r):
    return sum(g.has_edge(u, v) for c in r.classes for (u, v) in itertools.combinations(c, 2))


def test_record_weight_is_the_sum_over_its_edge_pairs():
    # A record's weight comes from one walk of its vertex set, shared by
    # the records on that set, less the edges inside its classes.  The
    # weights here are arbitrary, not vertex-induced, so any edge wrongly
    # kept or subtracted changes the sum.
    rng = random.Random(61)
    intra = 0
    for seed in range(2):
        for i, (shape, t, var, p, q, size) in enumerate(BENCH_SHAPES):
            g = joined_plants(120, shape, t, p, q, size, 6, 300 + 10 * seed + i)
            g = reweighted(g, [rng.randint(0, 9) for _ in g.edges])
            records = assert_weights_sum_cross_pairs(g, var)
            assert records, shape
            intra += sum(intra_class_edges(g, r) for r in records)
    for cfg_idx, (_, _, var, _) in enumerate(CONFIGS):
        for seed in range(0, 500, 5):
            g = _instance(cfg_idx, seed)
            g = reweighted(g, [rng.randint(0, 9) for _ in g.edges])
            records = assert_weights_sum_cross_pairs(g, var)
            intra += sum(intra_class_edges(g, r) for r in records)
    assert intra > 0


def fresh_walk(g, verts):
    """The ids of the edges among ``verts`` in vertex-pair order, and the
    vertices of degree t+1 whose neighbours all lie in ``verts``."""
    vset = set(verts)
    ids = tuple(
        g.edge_id(u, v) for (u, v) in itertools.combinations(verts, 2) if g.has_edge(u, v)
    )
    core = tuple(
        u for u in verts
        if g.degree(u) == g.t + 1 and all(x in vset for (x, _) in g.adj[u])
    )
    return ids, core


def assert_edge_ids_match_reference(g, var):
    """Every record's edge ids are the ids of its cross pairs, and every
    dense cluster's edge ids and core are those of a fresh walk.  Returns
    the number of intra-class edges and of dense clusters seen."""
    records, _, _ = find_all_forbidden(g, var)
    intra = 0
    for r in records:
        want = sorted(g.edge_id(u, v) for (u, v) in cross_pairs(r))
        assert sorted(r.edge_ids) == want, (r.kind, r.vertices, r.classes)
        intra += intra_class_edges(g, r)
    dense = find_dense(g, records)
    for r in dense:
        assert (r.edge_ids, r.core) == fresh_walk(g, r.vertices), r.vertices
    return intra, len(dense)


def test_edge_ids_match_an_independent_derivation():
    # Detection derives each record's edge ids once, from the edges its
    # vertex set induces, and a dense cluster's from its members' ids.
    # The reference derives them from vertices and classes alone.
    intra = dense = 0
    for seed in range(2):
        for i, (shape, t, var, p, q, size) in enumerate(BENCH_SHAPES):
            g = joined_plants(200, shape, t, p, q, size, 10, 100 * seed + i)
            (a, b) = assert_edge_ids_match_reference(g, var)
            intra, dense = intra + a, dense + b
    for cfg_idx, (_, _, var, _) in enumerate(CONFIGS):
        for seed in range(0, 500, 5):
            (a, b) = assert_edge_ids_match_reference(_instance(cfg_idx, seed), var)
            intra, dense = intra + a, dense + b
    assert intra > 0 and dense > 0


def test_candidate_missing_a_cross_edge_raises_despite_an_intra_class_edge():
    # Trading the octahedron's cross edge (0,2) for the edge (0,1) inside
    # class {0,1} keeps the vertex set's induced edge count at 12.
    edges = {(u, v) for (u, v, _) in octahedron().edges} - {(0, 2)} | {(0, 1)}
    g = Graph(6, [(u, v, 1) for (u, v) in sorted(edges)], 4)
    h = ForbiddenSubgraph(PARTITE, tuple(range(6)), ((0, 1), (2, 3), (4, 5)), 0)
    with pytest.raises(InternalError, match=r"misses edge \(0,2\)"):
        _cross_edges(g, h, {})


def test_enclosed_base_vertices_are_not_searched(monkeypatch):
    # Isolated K6's over an empty base: every subgraph through a vertex of
    # the first K^3_2 found spans its K6, so the vertex that found it is
    # the only one searched.
    calls = []
    find_at = detect._find_at

    def counting(R, v, p, q):
        calls.append(v)
        return find_at(R, v, p, q)

    monkeypatch.setattr(detect, "_find_at", counting)
    g = plant_forbidden(Graph(0, [], 4), "dense", 5, 3, p=3, q=2)
    records, _, _ = find_all_forbidden(g, Variant.kpq(3, 2))
    assert len(records) == 5 * 15
    assert sorted(v // 6 for v in calls) == list(range(5))


def test_base_vertex_with_neighbours_in_the_base_is_not_searched(monkeypatch):
    # K_{4,3}: the first K_{3,3} found is 0,1,2 | 4,5,6, found at 0 with
    # partner 1.  The neighbours of 1 and 2 all lie in that base, but each
    # of them also meets 3 outside it.  The K_{3,3}'s through 1 or 2 that
    # leave the base contain 3 and 4, and 4's search lists them, so
    # neither 1 nor 2 is searched.
    calls = []
    find_at = detect._find_at

    def counting(R, v, p, q):
        calls.append((p, q, v))
        return find_at(R, v, p, q)

    monkeypatch.setattr(detect, "_find_at", counting)
    g = Graph(7, [(a, b, 1) for a in range(4) for b in range(4, 7)], 3)
    records, _, _ = find_all_forbidden(g, Variant.restricted())
    searched = [v for (p, q, v) in calls if (p, q) == (2, 3)]
    assert records[0].vertices == (0, 1, 2, 4, 5, 6)
    assert sorted(searched) == [0, 4, 5, 6]
    assert sorted(r.key() for r in records) == brute_force_subgraphs(g, Variant.restricted())


# --- golden record order ------------------------------------------------------

# One seeded instance per benchmark shape at n = 400 (ten plants of each),
# built as the detection benchmark builds its n = 2000 ones, and the same
# shapes joined to their random part.  The digests pin every record's
# kind, vertex set, classes, core, members and id, in the order detection
# returns them.
GOLDEN_PLANTED_SHA256 = "9c9b7e57fae0297bd13bb76f5536a942d82b77fe4ae1d846ee4be96dfd40b6c0"
GOLDEN_JOINED_SHA256 = "d075e5f24bd7de59de069d349993f496c5bfad5365b0fae2a625102d885450c8"


def record_digest(graphs):
    digest = hashlib.sha256()
    for (g, var) in graphs:
        rows = tuple(
            (r.kind, r.vertices, r.classes, r.core, r.member_ids, r.id)
            for r in forbidden_records(g, var)
        )
        digest.update(repr(rows).encode())
    return digest.hexdigest()


def test_record_order_golden():
    planted = []
    for i, (shape, t, var, p, q, size) in enumerate(BENCH_SHAPES):
        s = 4000 + i
        base = random_bounded(400 - 10 * size, t, 0.5, s)
        g = plant_forbidden(base, shape, 10, s + 1, p=p, q=q)
        records, _, _ = find_all_forbidden(g, var)
        g = reweighted(g, vertex_induced_weights(g, records, (0, 5), (0, 6), s + 2))
        planted.append((g, var))
    assert record_digest(planted) == GOLDEN_PLANTED_SHA256
    joined = [
        (joined_plants(400, shape, t, p, q, size, 10, 5000 + i), var)
        for i, (shape, t, var, p, q, size) in enumerate(BENCH_SHAPES)
    ]
    assert record_digest(joined) == GOLDEN_JOINED_SHA256
