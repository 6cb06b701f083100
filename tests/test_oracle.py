import pytest

from tmatch.errors import InfeasibleError
from tmatch.graph import CapacityVector, Graph, MultiGraph
from tmatch.oracle import brute_force_optimum, brute_force_subgraphs
from tmatch.variant import Variant

from .conftest import brute_force_lb, complete_bipartite, complete_graph


def test_optimum_k4():
    w, witness, cover = brute_force_optimum(complete_graph(4, 3), Variant.restricted())
    assert w == 10 and cover == 2  # doubled units: 5 edges kept, 1 removed
    assert len(witness) == 5


def test_optimum_k33():
    w, witness, _ = brute_force_optimum(
        complete_bipartite(3, 3, 3), Variant.restricted()
    )
    assert w == 16 and len(witness) == 8


def test_optimum_k6_partite():
    w, witness, cover = brute_force_optimum(complete_graph(6, 4), Variant.kpq(3, 2))
    assert w == 22 and len(witness) == 11 and cover == 8


def test_subgraphs_k5():
    subs = brute_force_subgraphs(complete_graph(5, 3), Variant.restricted())
    assert len(subs) == 5
    assert all(kind == "clique" for (kind, _, _) in subs)


def test_subgraphs_c6_empty():
    g = Graph(6, [(i, (i + 1) % 6, 1) for i in range(6)], 3)
    assert brute_force_subgraphs(g, Variant.restricted()) == []


def test_subgraphs_k6_fifteen_pairings():
    subs = brute_force_subgraphs(complete_graph(6, 4), Variant.kpq(3, 2))
    assert len(subs) == 15


def test_lb_star():
    mg = MultiGraph(4)
    for (i, w) in ((1, 3), (2, 1), (3, 2)):
        mg.add_edge(0, i, w)
    cap = CapacityVector([1, 0, 0, 0], [1, 1, 1, 1])
    w, k, card = brute_force_lb(mg, cap, [3, 1, 2])
    assert (w, k, card) == (1, 1, 1)


def test_lb_infeasible():
    mg = MultiGraph(2)
    mg.add_edge(0, 1, 1)
    with pytest.raises(InfeasibleError):
        brute_force_lb(mg, CapacityVector([2, 0], [2, 1]), [1])


def test_lb_cycle():
    mg = MultiGraph(4)
    for i, w in enumerate([1, 2, 1, 2]):
        mg.add_edge(i, (i + 1) % 4, w)
    cap = CapacityVector([1] * 4, [1] * 4)
    w, k, card = brute_force_lb(mg, cap, [1, 2, 1, 2])
    assert (w, k, card) == (2, 2, 2)
