import pytest

from tmatch.detect import find_all_forbidden, find_dense
from tmatch.errors import InputFormatError
from tmatch.generators import (
    plant_forbidden,
    random_bounded,
    reweighted,
    vertex_induced_weights,
)
from tmatch.graph import Graph
from tmatch.potentials import extract_potential
from tmatch.variant import Variant


def test_random_bounded_deterministic():
    g1 = random_bounded(10, 3, 0.5, 42)
    g2 = random_bounded(10, 3, 0.5, 42)
    assert g1.edges == g2.edges
    g3 = random_bounded(10, 3, 0.5, 43)
    assert g1.edges != g3.edges


def test_random_bounded_zero_prob():
    assert random_bounded(8, 3, 0.0, 1).m == 0


def test_random_bounded_caps_degree():
    g = random_bounded(5, 3, 1.0, 7)
    assert max(g.degree(v) for v in range(5)) <= 4


def test_plant_two_cliques_detected():
    g = plant_forbidden(Graph(0, [], 3), "clique", 2, 0)
    records, inter, _ = find_all_forbidden(g, Variant.restricted())
    assert len(records) == 2 and not inter


def test_plant_clique_pair_intersects():
    g = plant_forbidden(Graph(0, [], 3), "clique_pair", 1, 0)
    records, inter, _ = find_all_forbidden(g, Variant.restricted())
    assert len(records) == 2 and len(inter) == 1
    (a, b) = next(iter(inter))
    assert len(set(records[a].vertices) & set(records[b].vertices)) == 3


def test_plant_dense_core():
    g = plant_forbidden(Graph(0, [], 4), "dense", 1, 0, p=3, q=2)
    records, _, _ = find_all_forbidden(g, Variant.kpq(3, 2))
    dense = find_dense(g, records)
    assert len(dense) == 1 and len(dense[0].core) == 6


def test_plant_validates_parameters():
    with pytest.raises(InputFormatError):
        plant_forbidden(Graph(0, [], 4), "partite", 1, 0, p=2, q=2)
    with pytest.raises(InputFormatError):
        plant_forbidden(Graph(0, [], 3), "nonsense", 1, 0)


def test_vertex_induced_weights_recoverable():
    g0 = plant_forbidden(Graph(0, [], 3), "clique", 2, 5)
    records, _, _ = find_all_forbidden(g0, Variant.restricted())
    w = vertex_induced_weights(g0, records, (1, 5), (0, 9), 3)
    g = reweighted(g0, w)
    records, _, _ = find_all_forbidden(g, Variant.restricted())
    for r in records:
        extract_potential(g, r)  # must not raise


def test_unweighted_mode_all_ones():
    g = plant_forbidden(Graph(0, [], 3), "clique", 1, 5)
    assert all(w == 2 for (_, _, w) in g.edges)  # doubled unit weights


def test_generated_instances_pass_validation():
    for seed in range(10):
        g = random_bounded(12, 4, 0.6, seed)
        assert max((g.degree(v) for v in range(g.n)), default=0) <= 5
        assert all(w >= 0 for (_, _, w) in g.edges)
