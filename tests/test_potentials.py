import random

import pytest

from tmatch.detect import find_all_forbidden, find_dense
from tmatch.errors import NotVertexInducedError
from tmatch.generators import plant_forbidden, reweighted, vertex_induced_weights
from tmatch.graph import Graph
from tmatch.potentials import (
    extract_potential,
    triangle_potential,
    unit_potentials,
    verify_vertex_induced,
)
from tmatch.variant import Variant


def test_triangle_345():
    # input weights 3,4,5 -> doubled 6,8,10 -> potentials 1,2,3 (doubled 2,4,6)
    assert triangle_potential(6, 8, 10) == (2, 4, 6)


def test_triangle_unit():
    assert triangle_potential(2, 2, 2) == (1, 1, 1)


def test_triangle_zero():
    assert triangle_potential(0, 0, 0) == (0, 0, 0)


def _single_record(g, variant):
    records, _, _ = find_all_forbidden(g, variant)
    assert len(records) == 1
    return records[0]


def test_unweighted_clique_half_potentials(k4):
    r = _single_record(k4, Variant.restricted())
    pf = extract_potential(k4, r)
    assert all(pf[v] == 1 for v in r.vertices)  # doubled half
    assert verify_vertex_induced(k4, r, pf)


def test_planted_biclique_roundtrip():
    a = [1, 2, 3]
    b = [4, 5, 6]
    edges = [(i, 3 + j, a[i] + b[j]) for i in range(3) for j in range(3)]
    g = Graph(6, edges, 3)
    r = _single_record(g, Variant.restricted())
    pf = extract_potential(g, r)
    assert verify_vertex_induced(g, r, pf)
    # recovered potentials differ from planted ones by one shift per side
    planted = {0: 2, 1: 4, 2: 6, 3: 8, 4: 10, 5: 12}  # doubled
    side1 = r.classes[0]
    deltas = {pf[v] - planted[v] for v in side1}
    assert len(deltas) == 1
    d = deltas.pop()
    assert all(pf[v] - planted[v] == -d for v in r.classes[1])


def test_perturbed_clique_rejected(k4):
    g = Graph(4, [(0, 1, 2), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)], 3)
    r = _single_record(g, Variant.restricted())
    with pytest.raises(NotVertexInducedError):
        extract_potential(g, r)


def test_verify_rejects_perturbation(k4):
    r = _single_record(k4, Variant.restricted())
    pf = extract_potential(k4, r)
    bad = {v: pf[v] + (1 if v == 0 else 0) for v in r.vertices}
    assert not verify_vertex_induced(k4, r, bad)


def test_unit_potentials_are_halves(k33):
    r = _single_record(k33, Variant.restricted())
    pf = unit_potentials(r)
    assert verify_vertex_induced(k33, r, pf)


def test_dense_cluster_potentials():
    g0 = plant_forbidden(Graph(0, [], 4), "dense", 1, 3, p=3, q=2)
    records, _, _ = find_all_forbidden(g0, Variant.kpq(3, 2))
    weights = vertex_induced_weights(g0, records, (0, 4), (0, 5), 11)
    g = reweighted(g0, weights)
    records, _, _ = find_all_forbidden(g, Variant.kpq(3, 2))
    dense = find_dense(g, records)
    assert len(dense) == 1
    members = [records[i] for i in dense[0].member_ids]
    pf = extract_potential(g, dense[0], members=members)
    assert verify_vertex_induced(g, dense[0], pf)
    # the same potentials witness every member
    for m in members:
        assert verify_vertex_induced(g, m, pf)


def test_extraction_independent_of_member_choice():
    g0 = plant_forbidden(Graph(0, [], 4), "dense", 1, 5, p=3, q=2)
    records, _, _ = find_all_forbidden(g0, Variant.kpq(3, 2))
    weights = vertex_induced_weights(g0, records, (1, 6), (0, 3), 23)
    g = reweighted(g0, weights)
    records, _, _ = find_all_forbidden(g, Variant.kpq(3, 2))
    dense = find_dense(g, records)[0]
    members = [records[i] for i in dense.member_ids]
    rng = random.Random(5)
    picks = [members[rng.randrange(len(members))] for _ in range(4)]
    results = [
        extract_potential(g, dense, members=[m]) for m in picks
    ]
    assert all(r == results[0] for r in results)
