import itertools
import random

import networkx
import pytest

from tmatch import Variant, lb, solve
from tmatch.blossom import (
    MatchingCertificate,
    maximum_weight_perfect_matching,
    verify_optimum,
)
from tmatch.detect import find_all_forbidden
from tmatch.errors import InfeasibleError, InternalError
from tmatch.generators import (
    plant_forbidden,
    random_bounded,
    reweighted,
    vertex_induced_weights,
)


def matched_edge_ids(edges, mate):
    """Edge ids realizing a mate array, preferring maximum weight then lowest id."""
    best = {}
    for eid, (u, v, w) in enumerate(edges):
        key = (min(u, v), max(u, v))
        if key not in best or w > edges[best[key]][2]:
            best[key] = eid
    return [best[(v, m)] for v, m in enumerate(mate) if m > v]


def brute_force_perfect(n, edges):
    best = {}
    for (u, v, w) in edges:
        key = (min(u, v), max(u, v))
        if key not in best or w > best[key]:
            best[key] = w

    out = [None]

    def rec(rem, tot):
        if not rem:
            if out[0] is None or tot > out[0]:
                out[0] = tot
            return
        v = min(rem)
        for u in rem:
            if u != v and (v, u) in best:
                rec(rem - {v, u}, tot + best[(v, u)])

    rec(frozenset(range(n)), 0)
    return out[0]


def brute_force_covering(n, edges, required):
    """Maximum weight of a matching covering every required vertex, or None."""
    best = {}
    for (u, v, w) in edges:
        key = (min(u, v), max(u, v))
        if key not in best or w > best[key]:
            best[key] = w

    out = [None]

    def rec(rem, tot):
        if not rem:
            if out[0] is None or tot > out[0]:
                out[0] = tot
            return
        v = min(rem)
        if not required[v]:
            rec(rem - {v}, tot)
        for u in rem:
            if u != v and (v, u) in best:
                rec(rem - {v, u}, tot + best[(v, u)])

    rec(frozenset(range(n)), 0)
    return out[0]


def test_four_cycle():
    edges = [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)]
    mate, w, _ = maximum_weight_perfect_matching(4, edges)
    assert w == 4  # takes the two weight-2 edges... or 1+... max is 2+2
    assert sorted(matched_edge_ids(edges, mate)) in ([1, 3], [0, 2])
    assert w == brute_force_perfect(4, edges)


def test_triangle_infeasible():
    with pytest.raises(InfeasibleError):
        maximum_weight_perfect_matching(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def test_k4_weighted():
    edges = [(0, 1, 5), (2, 3, 5), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)]
    _, w, _ = maximum_weight_perfect_matching(4, edges)
    assert w == 10


def test_disconnected_infeasible():
    # Two components of odd size each.
    edges = [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1), (0, 2, 1)]
    # both components have 3 vertices: no perfect matching
    with pytest.raises(InfeasibleError):
        maximum_weight_perfect_matching(6, edges)


def test_parallel_edges_use_best():
    edges = [(0, 1, 2), (0, 1, 7), (0, 1, -3)]
    mate, w, _ = maximum_weight_perfect_matching(2, edges)
    assert w == 7
    assert matched_edge_ids(edges, mate) == [1]


def test_negative_weights_forced():
    edges = [(0, 1, -5), (2, 3, -9), (0, 2, -20), (1, 3, -20)]
    _, w, _ = maximum_weight_perfect_matching(4, edges)
    assert w == -14


def test_randomized_against_bruteforce():
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.choice([2, 4, 6, 8, 10])
        edges = []
        for (u, v) in itertools.combinations(range(n), 2):
            if rng.random() < rng.uniform(0.25, 0.95):
                edges.append((u, v, rng.randint(-25, 25)))
        want = brute_force_perfect(n, edges)
        try:
            _, got, _ = maximum_weight_perfect_matching(n, edges)
        except InfeasibleError:
            got = None
        assert got == want


def test_required_masks_against_bruteforce():
    rng = random.Random(777)
    for _ in range(300):
        n = rng.randint(1, 10)
        required = [rng.random() < 0.5 for _ in range(n)]
        edges = []
        for (u, v) in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                edges.append((u, v, rng.randint(-25, 25)))
        want = brute_force_covering(n, edges, required)
        try:
            mate, got, _ = maximum_weight_perfect_matching(n, edges, required=required)
        except InfeasibleError:
            got = None
        else:
            assert all(mate[v] != -1 for v in range(n) if required[v])
        assert got == want


def test_certificate_rejects_tampering():
    edges = [(0, 1, 3), (1, 2, 4), (2, 3, 3), (0, 3, 4), (0, 2, 10)]
    mate, w, cert = maximum_weight_perfect_matching(4, edges)
    bad = MatchingCertificate(
        vertex_dual=[d + 1 for d in cert.vertex_dual],
        blossoms=cert.blossoms,
        shift=cert.shift,
    )
    with pytest.raises(InternalError):
        verify_optimum(4, edges, mate, bad)


def test_certificate_rejects_dual_on_free_vertex():
    edges = [(0, 1, 5), (1, 2, 3)]
    mate, w, cert = maximum_weight_perfect_matching(3, edges, required=[False] * 3)
    assert w == 5 and mate[2] == -1
    raised = list(cert.vertex_dual)
    raised[2] += 2
    bad = MatchingCertificate(raised, cert.blossoms, cert.shift, cert.required)
    with pytest.raises(InternalError, match="free vertex"):
        verify_optimum(3, edges, mate, bad)


def test_certificate_rejects_crossing_blossoms():
    edges = [(0, 1, 1), (2, 3, 1)]
    mate, _, cert = maximum_weight_perfect_matching(4, edges)
    bad = MatchingCertificate(cert.vertex_dual, [([0, 1, 2], 0), ([1, 2, 3], 0)], cert.shift)
    with pytest.raises(InternalError, match="laminar"):
        verify_optimum(4, edges, mate, bad)


def test_blossom_heavy_structure():
    # Two triangles joined by a bridge force blossom handling.
    edges = [
        (0, 1, 6), (1, 2, 6), (0, 2, 6),
        (3, 4, 6), (4, 5, 6), (3, 5, 6),
        (2, 3, 1),
    ]
    _, w, _ = maximum_weight_perfect_matching(6, edges)
    assert w == brute_force_perfect(6, edges) == 13


def _nested_odd_cycles(rng, depth, offset):
    """3**depth vertices: three copies of the depth-1 structure joined in
    an odd cycle, with heavier edges deeper down so blossoms nest."""
    if depth == 0:
        return [offset], []
    verts, edges = [], []
    parts = []
    for i in range(3):
        vs, es = _nested_odd_cycles(rng, depth - 1, offset + i * 3 ** (depth - 1))
        parts.append(vs)
        verts += vs
        edges += es
    for i in range(3):
        a, b = rng.choice(parts[i]), rng.choice(parts[(i + 1) % 3])
        edges.append((a, b, 10 * depth + rng.randint(0, 3)))
    return verts, edges


def _differential_instance(rng, n):
    """Random sparse graph on n vertices with a planted perfect matching,
    negative weights, parallel edges and nested odd cycles."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[i], perm[i + 1], rng.randint(-40, 10)) for i in range(0, n, 2)]
    offset = 0
    while offset + 28 <= n:
        _, es = _nested_odd_cycles(rng, 3, offset)
        edges += es
        edges.append((offset + 27, rng.randrange(offset, offset + 27), 1))
        offset += 28 + rng.randrange(0, 40, 2)
    for _ in range(int(1.5 * n)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.randint(-40, 40)))
    for _ in range(n // 10):
        (u, v, _) = rng.choice(edges)
        edges.append((v, u, rng.randint(-40, 40)))
    return edges


def test_differential_against_networkx():
    rng = random.Random(2024)
    nested_seen = False
    for n in (100, 250, 500, 1000):
        edges = _differential_instance(rng, n)
        mate, total, cert = maximum_weight_perfect_matching(n, edges)

        g = networkx.Graph()
        g.add_nodes_from(range(n))
        for (u, v, w) in edges:
            if not g.has_edge(u, v) or g[u][v]["weight"] < w:
                g.add_edge(u, v, weight=w)
        ref = networkx.max_weight_matching(g, maxcardinality=True)
        assert 2 * len(ref) == n
        assert total == sum(g[u][v]["weight"] for (u, v) in ref)

        verify_optimum(n, edges, mate, cert)
        lowered = list(cert.vertex_dual)
        lowered[rng.randrange(n)] -= 1
        with pytest.raises(InternalError):
            verify_optimum(
                n, edges, mate, MatchingCertificate(lowered, cert.blossoms, cert.shift)
            )

        sets = [set(members) for (members, _) in cert.blossoms]
        nested_seen |= any(a < b for a in sets for b in sets)
    assert nested_seen


def test_all_optional_against_networkx():
    rng = random.Random(31)
    for n in (100, 250, 500):
        edges = _differential_instance(rng, n)
        mate, total, cert = maximum_weight_perfect_matching(
            n, edges, required=[False] * n
        )
        g = networkx.Graph()
        g.add_nodes_from(range(n))
        for (u, v, w) in edges:
            if not g.has_edge(u, v) or g[u][v]["weight"] < w:
                g.add_edge(u, v, weight=w)
        ref = networkx.max_weight_matching(g, maxcardinality=False)
        assert total == sum(g[u][v]["weight"] for (u, v) in ref)
        assert -1 in mate
        verify_optimum(n, edges, mate, cert)


def _lb_hat_instances():
    """The matching instances ``lb.solve_lb`` builds for the two scale
    families of criterion 9b: split vertices joined to their externals by
    weight-0 stars, with required and optional vertices mixed."""
    calls = []

    def record(n, edges, *, required):
        calls.append((n, list(edges), list(required)))
        return maximum_weight_perfect_matching(n, edges, required=required)

    variant = Variant.restricted()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lb, "maximum_weight_perfect_matching", record)
        for seed in range(8):
            # Unweighted: the capped cardinality track.
            solve(random_bounded(20 + 4 * seed, 3, 0.5, seed), variant)
            # Weighted: the lexicographic track with vertex-induced weights.
            g = random_bounded(8 + 3 * seed, 3, 0.5, seed)
            g = plant_forbidden(g, "clique", 1, seed + 1)
            records, _, _ = find_all_forbidden(g, variant)
            solve(reweighted(g, vertex_induced_weights(g, records, (0, 5), (0, 6), seed)), variant)
    return calls


def test_required_masks_on_lb_instances_against_networkx():
    calls = _lb_hat_instances()
    # One call per component: each unweighted solve has one, and each
    # weighted solve two, as the planted clique's gadget is its own.
    assert len(calls) == 8 * 1 + 8 * 2
    assert max(n for (n, _, _) in calls) >= 250
    for (n, edges, required) in calls:
        assert any(required) and not all(required)
        mate, total, cert = maximum_weight_perfect_matching(n, edges, required=required)
        # The engine maximises w + shift per required endpoint; networkx
        # must find the same shifted optimum, and it must cover every
        # required vertex.
        g = networkx.Graph()
        g.add_nodes_from(range(n))
        for (u, v, w) in edges:
            ws = w + cert.shift * (required[u] + required[v])
            if ws > 0 and (not g.has_edge(u, v) or g[u][v]["weight"] < ws):
                g.add_edge(u, v, weight=ws)
        ref = networkx.max_weight_matching(g, maxcardinality=False)
        covered = {x for pair in ref for x in pair}
        assert all(v in covered for v in range(n) if required[v])
        want = sum(g[u][v]["weight"] for (u, v) in ref)
        got = total + cert.shift * sum(1 for v in range(n) if required[v] and mate[v] != -1)
        assert got == want
